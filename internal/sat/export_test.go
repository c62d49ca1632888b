package sat

import (
	"slices"
	"unsafe"
)

// Backing returns the backing array of every slice a clone reserves
// room in, by name, so a test can tell whether adding to the clone
// reallocated one of them.
func Backing(s *Solver) map[string]unsafe.Pointer {
	return map[string]unsafe.Pointer{
		"vals":       unsafe.Pointer(unsafe.SliceData(s.vals)),
		"level":      unsafe.Pointer(unsafe.SliceData(s.level)),
		"reason":     unsafe.Pointer(unsafe.SliceData(s.reason)),
		"trail":      unsafe.Pointer(unsafe.SliceData(s.trail)),
		"activity":   unsafe.Pointer(unsafe.SliceData(s.activity)),
		"polarity":   unsafe.Pointer(unsafe.SliceData(s.polarity)),
		"seen":       unsafe.Pointer(unsafe.SliceData(s.seen)),
		"frozen":     unsafe.Pointer(unsafe.SliceData(s.frozen)),
		"eliminated": unsafe.Pointer(unsafe.SliceData(s.eliminated)),
		"heap":       unsafe.Pointer(unsafe.SliceData(s.order.heap)),
		"heap pos":   unsafe.Pointer(unsafe.SliceData(s.order.pos)),
		"lists":      unsafe.Pointer(unsafe.SliceData(s.wl)),
		"clauses":    unsafe.Pointer(unsafe.SliceData(s.clauses)),
		"arena":      unsafe.Pointer(unsafe.SliceData(s.ca.mem)),
		"pool":       unsafe.Pointer(unsafe.SliceData(s.wpool)),
	}
}

// ReferenceProbeRoot is ProbeRoot with the probing loop as it was
// before dominated probes were skipped: every candidate literal, up to
// maxProbes of them, is assumed and propagated. Tests hold
// probeFailedLiterals to it.
func ReferenceProbeRoot(s *Solver, maxProbes int) bool {
	s.cancelUntil(0)
	if s.rootUnsat {
		return false
	}
	if s.propagate() != 0 {
		s.markRootUnsat()
		return false
	}
	referenceProbe(s, maxProbes)
	return !s.rootUnsat
}

func referenceProbe(s *Solver, maxProbes int) {
	probes := 0
	for v := Var(0); int(v) < len(s.level); v++ {
		if probes >= maxProbes {
			return
		}
		if s.vals[PosLit(v)] != Unknown || s.eliminated[v] {
			continue
		}
		for _, l := range [2]Lit{PosLit(v), NegLit(v)} {
			if s.value(l) != Unknown {
				continue
			}
			probes++
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(l, 0)
			conflict := s.propagate()
			s.cancelUntil(0)
			if conflict == 0 {
				continue
			}
			s.stats.FailedLits++
			s.proofStep(ProofAdd, []Lit{l.Neg()})
			s.uncheckedEnqueue(l.Neg(), 0)
			if s.propagate() != 0 {
				s.markRootUnsat()
				return
			}
		}
	}
}

// Decide opens a decision level and assigns l on it, as the search
// does for a branching literal.
func Decide(s *Solver, l Lit) {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(l, 0)
}

// PropagateAnalyze propagates the pending assignments. On a conflict it
// runs conflict analysis and returns a copy of the learned clause, the
// backjump level and true; it leaves the trail as analysis found it.
func PropagateAnalyze(s *Solver) ([]Lit, int, bool) {
	conflict := s.propagate()
	if conflict == 0 {
		return nil, 0, false
	}
	learnt, back := s.analyze(conflict)
	return slices.Clone(learnt), back, true
}

// Seen returns the variables whose conflict-analysis mark is set.
// Between conflicts there must be none.
func Seen(s *Solver) []Var {
	var vs []Var
	for v, on := range s.seen {
		if on {
			vs = append(vs, Var(v))
		}
	}
	return vs
}

// MinimizeMarks returns how many variables the last conflict analysis
// marked beyond its first-UIP clause: each belongs to a reason chain
// that proved a clause literal redundant.
func MinimizeMarks(s *Solver) int { return len(s.minimizeMarks) }
