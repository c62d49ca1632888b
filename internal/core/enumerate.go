package core

import (
	"encoding/json"
	"fmt"
	"time"

	"scadaver/internal/logic"
	"scadaver/internal/obs"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
)

// startEnumerateSpan opens the span wrapping a whole threat-space
// enumeration (nil when tracing is disabled). Its end record carries
// the number of distinct vectors found.
func (a *Analyzer) startEnumerateSpan(q Query) *obs.Span {
	if a.trace == nil {
		return nil
	}
	return a.trace.Start("enumerate",
		obs.A("property", q.Property.String()),
		obs.A("budget", budgetLabel(q)))
}

// EnumerateThreats lists distinct minimal threat vectors for the query,
// up to max (0 = no cap beyond termination). After each satisfying
// model, the minimized vector V is blocked with the clause
// ∨_{i∈V} Node_i, so subsequent models must avoid failing all of V
// simultaneously; enumeration therefore yields an antichain of minimal
// vectors and terminates.
func (a *Analyzer) EnumerateThreats(q Query, max int) ([]ThreatVector, error) {
	return a.EnumerateThreatsResumable(q, max, nil)
}

// blockVector adds the blocking clause for one minimal vector and
// reports whether the vector had anything to block — an empty vector
// means the property is violated with zero failures, so enumeration is
// complete.
func blockVector(enc *logic.Encoder, v ThreatVector) bool {
	block := make(map[string]bool, v.Size())
	for _, id := range v.Devices() {
		block[fmt.Sprintf("Node_%d", id)] = false
	}
	for _, id := range v.Links {
		block[fmt.Sprintf("Link_%d", id)] = false
	}
	if len(block) == 0 {
		return false
	}
	enc.Block(block)
	return true
}

// EnumerateThreatsResumable is EnumerateThreats with checkpointing:
// each discovered vector is appended to ck, and vectors recovered from
// a prior interrupted run seed the result set and are re-blocked before
// the search resumes, so completed work is never repeated.
//
// Resuming is sound because minimal vectors form an antichain: blocking
// one minimal vector excludes only its supersets, never a different
// minimal vector, so enumeration to exhaustion reaches the same final
// set regardless of the order — or the number of interruptions — in
// which vectors were found. A nil ck disables checkpointing.
func (a *Analyzer) EnumerateThreatsResumable(q Query, max int, ck *Checkpoint) ([]ThreatVector, error) {
	return a.EnumerateThreatsStream(q, max, ck, nil)
}

// EnumerateThreatsStream is EnumerateThreatsResumable with a per-vector
// emit callback, for callers that stream vectors as they are discovered
// (the verification service's JSONL endpoint) instead of waiting for
// the full set. emit is called once per distinct vector, in discovery
// order, checkpoint-recovered vectors included (a resumed stream replays
// the full set). An emit error — typically a disconnected client —
// aborts the enumeration and is returned with the vectors found so far;
// the checkpoint keeps every discovered vector, so the same enumeration
// resumes where the stream broke. A nil emit disables streaming.
func (a *Analyzer) EnumerateThreatsStream(q Query, max int, ck *Checkpoint, emit func(ThreatVector) error) (out []ThreatVector, err error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if emit == nil {
		emit = func(ThreatVector) error { return nil }
	}
	span := a.startEnumerateSpan(q)
	defer span.End()
	// The whole enumeration is one registry entry: iterated solves
	// share its progress counters, and checkpoint flushes land in its
	// flight recorder.
	qs := a.beginQuery(q, "enumerate")
	var unsolvedReason string
	defer func() {
		switch {
		case err != nil:
			a.completeQuery(qs, span, "error", err.Error())
		case unsolvedReason != "":
			a.completeQuery(qs, span, "unsolved", unsolvedReason)
		default:
			a.completeQuery(qs, span, "done", "")
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			a.panicQuery(qs, r)
			panic(r)
		}
	}()
	enc, err := a.enumEncoder(q)
	if err != nil {
		return nil, err
	}
	a.armProgress(enc, span)
	defer a.disarmProgress(enc)
	seen := map[string]bool{}
	defer func() { span.Annotate(obs.A("vectors", len(out))) }()

	for _, raw := range ck.Entries() {
		var v ThreatVector
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("checkpoint entry %d: %w", len(out), err)
		}
		if seen[v.key()] {
			continue
		}
		seen[v.key()] = true
		out = append(out, v)
		if err := emit(v); err != nil {
			return out, err
		}
		if !blockVector(enc, v) {
			return out, nil
		}
	}
	span.Annotate(obs.A("resumedVectors", len(out)))

	for max <= 0 || len(out) < max {
		// Each solve is budgeted independently so every enumerated vector
		// gets the full conflict budget (and its own deadline/retries)
		// rather than sharing one budget across the whole enumeration
		// (regression: TestEnumerateBudgetPerSolve).
		sv := a.solveBudgeted(q, enc, span)
		if sv.status != sat.Sat {
			if sv.status == sat.Unsolved {
				span.Annotate(obs.A("unsolved", sv.reason))
				unsolvedReason = sv.reason
			}
			break
		}
		v := a.minimizeVector(q, a.extractVector(q, enc))
		if !seen[v.key()] {
			seen[v.key()] = true
			out = append(out, v)
			if err := ck.Add(v); err != nil {
				// Survivable: the previous on-disk checkpoint stays
				// valid and the entry is retried on the next Add.
				a.metrics.Inc("scadaver_checkpoint_errors_total", nil)
				span.Event("checkpoint-error", obs.A("error", err.Error()))
				qs.Record("checkpoint-error", err.Error(), 0)
			} else if ck != nil {
				qs.Record("checkpoint", fmt.Sprintf("vectors=%d", len(out)), 0)
			}
			if err := emit(v); err != nil {
				return out, err
			}
		}
		if !blockVector(enc, v) {
			// The property is violated with zero failures; nothing else
			// to enumerate.
			break
		}
	}
	return out, nil
}

// CountThreats returns the size of the minimal threat space for the
// query (capped at max when max > 0).
func (a *Analyzer) CountThreats(q Query, max int) (int, error) {
	vs, err := a.EnumerateThreats(q, max)
	if err != nil {
		return 0, err
	}
	return len(vs), nil
}

// MaxResiliency computes the maximum k for which the system is
// k-resilient for the property. varyIEDs / varyRTUs select the failure
// class: (true,false) answers "how many IED failures are tolerable with
// no RTU failures" (the paper's maximum (k,0) form), and vice versa;
// (true,true) uses the combined budget (MaxResiliencyCombined).
//
// Resiliency is monotone — enlarging the failure budget only adds
// candidate threat models — so the search gallops up from k = 0: unit
// steps through the small budgets, where real boundaries sit and unit
// steps bracket them with zero overshoot, then doubling until the
// property breaks (the first Sat probe), then binary refinement inside
// the bracketed octave. A plain binary search over [0, #devices] would
// open with the most expensive cardinality encodings the instance can
// ask for. Each probe is one Verify on a pristine clone of the shared
// snapshot, so per-probe cost stays flat: a solver accumulating every
// probed budget's cardinality clauses grows its watch lists until each
// probe propagates several times slower than the same query on a fresh
// clone (EXPERIMENTS.md §P3).
func (a *Analyzer) MaxResiliency(p Property, r int, varyIEDs, varyRTUs bool) (int, error) {
	if !varyIEDs && !varyRTUs {
		return 0, fmt.Errorf("%w: nothing to vary", ErrBadQuery)
	}
	limit := 0
	if varyIEDs {
		limit += len(a.fieldIEDs)
	}
	if varyRTUs {
		limit += len(a.fieldRTUs)
	}
	resilient := func(k int) (bool, error) {
		q := Query{Property: p, R: r}
		switch {
		case varyIEDs && varyRTUs:
			q.Combined, q.K = true, k
		case varyIEDs:
			q.K1 = k
		default:
			q.K2 = k
		}
		res, err := a.Verify(q)
		if err != nil {
			return false, err
		}
		return res.Status == sat.Unsat, nil
	}
	lo := -1 // largest k known resilient (-1: none yet)
	hi := limit
	for k := 0; k <= limit; {
		ok, err := resilient(k)
		if err != nil {
			return 0, err
		}
		if !ok {
			hi = k - 1
			break
		}
		lo = k
		if k == limit {
			return limit, nil
		}
		if k < 4 {
			k++
		} else {
			k = min(2*k, limit)
		}
	}
	// Refine: largest unsat k inside (lo, hi].
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := resilient(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// MaxResiliencyCombined computes the maximum combined budget k for
// which the system is k-resilient for the property: MaxResiliency over
// IED and RTU failures together.
func (a *Analyzer) MaxResiliencyCombined(p Property, r int) (int, error) {
	return a.MaxResiliency(p, r, true, true)
}

// MinimalThreat returns a smallest-cardinality failure set violating
// the property (and its size), found by verifying just past the
// binary-searched resiliency boundary. A nil vector with size 0 means
// even failing every field device keeps the property (it can never be
// violated by device failures alone).
func (a *Analyzer) MinimalThreat(p Property, r int) (*ThreatVector, int, error) {
	kStar, err := a.MaxResiliencyCombined(p, r)
	if err != nil {
		return nil, 0, err
	}
	limit := len(a.fieldIEDs) + len(a.fieldRTUs)
	if kStar >= limit {
		return nil, 0, nil
	}
	res, err := a.Verify(Query{Property: p, Combined: true, K: kStar + 1, R: r})
	if err != nil {
		return nil, 0, err
	}
	if res.Status != sat.Sat {
		// Unreachable given the boundary search, kept for robustness.
		return nil, 0, nil
	}
	return res.Vector, res.Vector.Size(), nil
}

// Report is a complete verification report for one configuration,
// produced by Analyze: the primary query result plus the enumerated
// threat space.
type Report struct {
	Result   *Result
	Threats  []ThreatVector
	Elapsed  time.Duration
	Analyzer *Analyzer
}

// Analyze verifies the configuration's own resiliency specification
// (Config.K1/K2/R) for the given property and enumerates up to
// maxThreats threat vectors when the specification is violated.
func (a *Analyzer) Analyze(p Property, maxThreats int) (*Report, error) {
	start := time.Now()
	q := Query{Property: p, K1: a.cfg.K1, K2: a.cfg.K2, R: a.cfg.R}
	res, err := a.Verify(q)
	if err != nil {
		return nil, err
	}
	rep := &Report{Result: res, Analyzer: a}
	if res.Status == sat.Sat && maxThreats != 0 {
		rep.Threats, err = a.EnumerateThreats(q, maxThreats)
		if err != nil {
			return nil, err
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// VerifyWithFailures is a convenience query that fixes a concrete set of
// failed devices and reports whether the property holds under exactly
// those failures (direct evaluation; no search).
func (a *Analyzer) VerifyWithFailures(p Property, r int, failed []scadanet.DeviceID) bool {
	down := make(map[scadanet.DeviceID]bool, len(failed))
	for _, id := range failed {
		down[id] = true
	}
	switch p {
	case Observability:
		return a.EvalObservability(down, false)
	case SecuredObservability:
		return a.EvalObservability(down, true)
	case BadDataDetectability:
		return a.EvalBadDataDetectability(down, r)
	}
	return false
}
