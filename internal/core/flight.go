package core

// Live query registration: every Verify / Sweep / enumeration query an
// analyzer runs is mirrored into an obs.QueryRegistry when one is
// armed, feeding GET /v1/queries and the CLI -watch mode. The wiring
// follows the observability contract of the rest of the package: a nil
// registry costs one nil-check per phase, nothing more.

import (
	"fmt"

	"scadaver/internal/obs"
)

// WithQueryRegistry mirrors every verification of this analyzer into
// the live query registry: phase transitions, solver progress from the
// probe and flight-recorder events (restarts, DB reductions, retries,
// checkpoint flushes). Budget
// exhaustion additionally dumps the flight record into the trace and
// appends it to Result.FailureReason. A nil registry (the default)
// disables registration entirely.
func WithQueryRegistry(r *obs.QueryRegistry) Option {
	return func(a *Analyzer) { a.queries = r }
}

// fingerprint returns the analyzer's configuration fingerprint for
// query registration, sharing the encoding cache key's memoization.
// Fingerprint failures degrade to an empty label.
func (a *Analyzer) fingerprint() string {
	fp, _ := a.encodingFingerprint()
	return fp
}

// beginQuery registers q in the live query registry and makes it the
// analyzer's current query, so solveBudgeted and the progress probe
// find it. Returns nil (a valid no-op state) when no registry is armed.
func (a *Analyzer) beginQuery(q Query, phase string) *obs.QueryState {
	if a.queries == nil {
		return nil
	}
	conflicts := a.budget.Conflicts
	if conflicts == 0 {
		conflicts = a.conflictBudget
	}
	qs := a.queries.Begin(a.fingerprint(), q.Property.String(), budgetLabel(q), conflicts, a.budget.Deadline)
	qs.SetPhase(phase)
	a.qs = qs
	return qs
}

// completeQuery finalizes the registry entry and, for queries over the
// registry's slow threshold, traces the flight record so slow queries
// are diagnosable after the fact.
func (a *Analyzer) completeQuery(qs *obs.QueryState, qspan *obs.Span, status, reason string) {
	if qs == nil {
		return
	}
	a.qs = nil
	snap := qs.Complete(status, reason)
	if t := a.queries.SlowThreshold(); t > 0 && snap.ElapsedNanos > int64(t) {
		qspan.Event("flight-record",
			obs.A("id", snap.ID),
			obs.A("elapsedNanos", snap.ElapsedNanos),
			obs.A("events", snap.Events))
	}
}

// panicQuery finalizes the registry entry of a query whose goroutine is
// unwinding from a panic, so the flight record survives into the
// completed ring before the panic propagates to the Runner's isolation.
func (a *Analyzer) panicQuery(qs *obs.QueryState, v any) {
	if qs == nil {
		return
	}
	a.qs = nil
	qs.Record("panic", fmt.Sprint(v), qs.Snapshot().Conflicts)
	qs.Complete("panic", fmt.Sprintf("panic: %v", v))
}

// flightReason dumps the current query's flight record into the trace
// and appends its one-line summary to a budget-exhaustion reason. The
// suffix only appears when a registry is armed, so exact-match
// consumers of the bare reason constants are unaffected; interrupted
// queries (campaign shutdown) never reach this path.
func (a *Analyzer) flightReason(reason string, solveSpan *obs.Span) string {
	if a.qs == nil {
		return reason
	}
	snap := a.qs.Snapshot()
	solveSpan.Event("flight-record",
		obs.A("id", snap.ID),
		obs.A("eventsDropped", snap.EventsDropped),
		obs.A("events", snap.Events))
	if fl := a.qs.FlightSummary(); fl != "" {
		return reason + " [flight: " + fl + "]"
	}
	return reason
}
