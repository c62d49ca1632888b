package core

import (
	"errors"
	"fmt"
	"time"

	"scadaver/internal/logic"
	"scadaver/internal/obs"
	"scadaver/internal/sat"
)

// DefaultEscalation is the factor by which per-attempt deadlines and
// conflict budgets grow between retries when QueryBudget.Escalate is
// unset. Doubling keeps the total work of n attempts within 2× the
// final attempt, so retrying is never asymptotically worse than having
// started with the large budget.
const DefaultEscalation = 2.0

// QueryBudget bounds how much work a single verification query may
// consume before it is declared Unsolved instead of holding a campaign
// hostage. The zero value imposes no bounds.
//
// Deadline and Conflicts are per-attempt limits; Retries grants that
// many additional attempts after the first, each with its budgets
// scaled by Escalate (default DefaultEscalation), so a query that was
// merely unlucky gets progressively more room while a genuinely
// intractable one still terminates. A query that exhausts every attempt
// degrades gracefully: the campaign records Status Unsolved with
// Result.Attempts and Result.FailureReason instead of erroring.
type QueryBudget struct {
	// Deadline bounds the wall-clock time of one solve attempt
	// (0 = no deadline). Enforced through the solver's cooperative
	// interrupt, so an expired attempt unwinds within a few hundred
	// search steps.
	Deadline time.Duration `json:"deadlineNanos,omitempty"`
	// Conflicts bounds the SAT conflicts of one solve attempt
	// (0 = unlimited; falls back to WithConflictBudget when set).
	Conflicts uint64 `json:"conflicts,omitempty"`
	// Retries is the number of additional attempts after the first.
	Retries int `json:"retries,omitempty"`
	// Escalate multiplies Deadline and Conflicts between attempts
	// (values <= 1 select DefaultEscalation).
	Escalate float64 `json:"escalate,omitempty"`
}

// Enabled reports whether the budget bounds anything.
func (b QueryBudget) Enabled() bool {
	return b.Deadline > 0 || b.Conflicts > 0 || b.Retries > 0
}

// ErrBadBudget reports a nonsensical query budget (negative deadline,
// negative retry count, negative escalation factor). Budgets are
// validated when an Analyzer is built, so a bad budget fails loudly at
// construction instead of silently producing a solver that never
// expires or retries forever.
var ErrBadBudget = errors.New("core: invalid query budget")

// Validate checks the budget for nonsensical values. The zero value is
// valid (no bounds); Escalate may be 0 (select DefaultEscalation) or
// any positive factor, but a negative factor — like a negative deadline
// or retry count — is an error wrapping ErrBadBudget.
func (b QueryBudget) Validate() error {
	if b.Deadline < 0 {
		return fmt.Errorf("%w: negative deadline %v", ErrBadBudget, b.Deadline)
	}
	if b.Retries < 0 {
		return fmt.Errorf("%w: negative retries %d", ErrBadBudget, b.Retries)
	}
	if b.Escalate < 0 {
		return fmt.Errorf("%w: negative escalation factor %g", ErrBadBudget, b.Escalate)
	}
	return nil
}

// Clamp derives a request-scoped budget from b bounded by cap: fields
// that cap bounds never exceed cap's value, and fields b leaves unset
// (zero) inherit cap's bound, so a caller-supplied budget can tighten —
// but never loosen — a server-enforced ceiling. A zero field of cap
// imposes no bound. Retries only ever clamp down: an unset retry count
// means "no retries" and does not inherit cap's count, since extra
// attempts are extra work, not a bound. Escalation is taken from b when
// set, else from cap.
func (b QueryBudget) Clamp(cap QueryBudget) QueryBudget {
	out := b
	if cap.Deadline > 0 && (out.Deadline <= 0 || out.Deadline > cap.Deadline) {
		out.Deadline = cap.Deadline
	}
	if cap.Conflicts > 0 && (out.Conflicts == 0 || out.Conflicts > cap.Conflicts) {
		out.Conflicts = cap.Conflicts
	}
	if cap.Retries > 0 && out.Retries > cap.Retries {
		out.Retries = cap.Retries
	}
	if out.Escalate <= 0 {
		out.Escalate = cap.Escalate
	}
	return out
}

// WithBudget attaches a per-query budget (deadline, conflict cap,
// retries with escalation) to every verification of this analyzer.
// Budget exhaustion degrades to Status Unsolved with a recorded
// attempt count and failure reason; it is never an error. The budget is
// validated by NewAnalyzer: nonsensical values (see Validate) fail
// construction with an error wrapping ErrBadBudget.
func WithBudget(b QueryBudget) Option {
	return func(a *Analyzer) { a.budget = b }
}

// Failure reasons recorded on Result.FailureReason (and as the reason
// label of scadaver_queries_unsolved_total) when a query degrades to
// Unsolved.
const (
	// ReasonInterrupted: the campaign's context was cancelled; the
	// query was abandoned, not exhausted.
	ReasonInterrupted = "interrupted"
	// ReasonDeadline: every attempt hit its wall-clock deadline.
	ReasonDeadline = "deadline exceeded"
	// ReasonConflicts: every attempt exhausted its conflict budget.
	ReasonConflicts = "conflict budget exhausted"
	// ReasonInjectedStall: a fault-injection plan stalled the solver
	// (chaos testing only).
	ReasonInjectedStall = "injected solver stall"
)

// solveOutcome is the result of one budgeted solve: the final status,
// how many attempts it took, and — when Unsolved — why the query was
// given up on.
type solveOutcome struct {
	status   sat.Status
	attempts int
	reason   string
}

// solveBudgeted runs one solve of q's encoding under the analyzer's
// query budget: each attempt is armed with the per-attempt deadline and
// conflict budget (escalating between attempts), the caller's interrupt
// hook, and any fault-injection hooks, and an Unsolved attempt is
// retried until the attempts are spent. External cancellation is never
// retried — the campaign is shutting down, and the caller (Runner)
// drops interrupted queries.
//
// The solver's budget/interrupt/hook state is reset afterwards so a
// solver that solves again (enumeration) never leaks one solve's
// deadline into the next.
func (a *Analyzer) solveBudgeted(q Query, enc *logic.Encoder, solveSpan *obs.Span, assumptions ...*logic.Formula) solveOutcome {
	s := enc.Solver()
	deadline := a.budget.Deadline
	conflicts := a.budget.Conflicts
	if conflicts == 0 {
		conflicts = a.conflictBudget
	}
	maxAttempts := a.budget.Retries + 1
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	escalate := a.budget.Escalate
	if escalate <= 1 {
		escalate = DefaultEscalation
	}
	hook := a.faults.SolverHook()
	defer func() {
		s.SetConflictHook(nil)
		s.SetConflictBudget(a.conflictBudget)
		s.SetInterrupt(a.interrupt)
	}()

	for attempt := 1; ; attempt++ {
		a.qs.SetAttempt(attempt)
		// expired is set by the interrupt hook, which runs on the
		// solving goroutine.
		var expired bool
		switch {
		case deadline > 0:
			deadlineAt := time.Now().Add(deadline)
			s.SetInterrupt(func() bool {
				if a.interrupt != nil && a.interrupt() {
					return true
				}
				if time.Now().After(deadlineAt) {
					expired = true
					return true
				}
				return false
			})
		default:
			s.SetInterrupt(a.interrupt)
		}
		s.SetConflictHook(hook)
		s.SetConflictBudget(conflicts)
		stallsBefore := a.faults.Counts().SolverStalls

		a.faults.BeforeSolve()
		status := enc.Solve(assumptions...)
		if status != sat.Unsolved {
			return solveOutcome{status: status, attempts: attempt}
		}

		// Diagnose why this attempt gave up, most specific first.
		reason := ReasonConflicts
		switch {
		case a.interrupt != nil && a.interrupt():
			return solveOutcome{status: status, attempts: attempt, reason: ReasonInterrupted}
		case expired:
			reason = ReasonDeadline
		case a.faults.Counts().SolverStalls > stallsBefore:
			reason = ReasonInjectedStall
		}
		if attempt >= maxAttempts {
			a.metrics.Inc("scadaver_queries_unsolved_total", map[string]string{
				"property": q.Property.String(), "reason": reason,
			})
			// The metric label above stays the bare reason; only the
			// Result carries the flight-record suffix.
			a.qs.Record("exhausted", reason, s.Stats().Conflicts)
			return solveOutcome{status: status, attempts: attempt, reason: a.flightReason(reason, solveSpan)}
		}

		a.metrics.Inc("scadaver_retries_total", map[string]string{
			"property": q.Property.String(), "reason": reason,
		})
		solveSpan.Event("retry", obs.A("attempt", attempt), obs.A("reason", reason))
		a.qs.Record("retry", reason, s.Stats().Conflicts)
		if deadline > 0 {
			deadline = time.Duration(float64(deadline) * escalate)
		}
		if conflicts > 0 {
			conflicts = uint64(float64(conflicts) * escalate)
		}
	}
}
