package sat

import (
	"fmt"
	"strconv"
	"time"
)

// Var identifies a propositional variable. Valid variables are created by
// Solver.NewVar and are numbered from 0.
type Var int

// Lit is a literal: a variable or its negation. The encoding is the usual
// one (lit = 2*var, or 2*var+1 for the negation) so that negation is a
// single XOR and literals index arrays directly.
type Lit int

// LitUndef is the sentinel "no literal" value.
const LitUndef Lit = -1

// VarUndef is the sentinel "no variable" value.
const VarUndef Var = -1

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1) | 1 }

// MkLit returns the literal of v with the given sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	if neg {
		return NegLit(v)
	}
	return PosLit(v)
}

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg returns the negation of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether l is a negated literal.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal in DIMACS-like form ("3", "-7").
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	n := int(l.Var()) + 1
	if l.Sign() {
		n = -n
	}
	return strconv.Itoa(n)
}

// Tribool is a three-valued truth assignment.
type Tribool int8

// The three truth values. Unknown is the zero value so fresh assignment
// arrays start unassigned.
const (
	Unknown Tribool = 0
	True    Tribool = 1
	False   Tribool = -1
)

// Not negates a Tribool (Unknown stays Unknown).
func (t Tribool) Not() Tribool { return -t }

// String implements fmt.Stringer.
func (t Tribool) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// Status is the result of a Solve call.
type Status int

// Solve outcomes. Unsolved is returned only on budget exhaustion
// (see Solver.SetConflictBudget).
const (
	Unsolved Status = iota
	Sat
	Unsat
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unsolved"
	}
}

// MarshalJSON renders the status as its name.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(s.String())), nil
}

// UnmarshalJSON parses a status name.
func (s *Status) UnmarshalJSON(data []byte) error {
	name, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("sat: bad status %s: %w", data, err)
	}
	switch name {
	case "sat":
		*s = Sat
	case "unsat":
		*s = Unsat
	case "unsolved":
		*s = Unsolved
	default:
		return fmt.Errorf("sat: unknown status %q", name)
	}
	return nil
}

// watcher pairs a watched clause with a blocker literal: if the blocker is
// already true the clause is satisfied and need not be inspected. It
// holds no pointer (8 bytes), so watch lists are invisible to the
// garbage collector and propagate stores them without write barriers.
type watcher struct {
	c       cref
	blocker int32 // a Lit
}

// Stats aggregates solver counters, exposed for the evaluation harness.
// Counters are cumulative over the solver's lifetime, across
// incremental Solve calls (threat enumeration).
type Stats struct {
	Conflicts    uint64
	Decisions    uint64
	Propagations uint64
	Restarts     uint64
	Learned      uint64
	Removed      uint64        // learned clauses deleted by DB reduction
	Reduces      uint64        // learned-DB reduction sweeps (reduceDB calls)
	Solves       uint64        // completed Solve calls
	SolveTime    time.Duration // wall time spent inside Solve
	// Preprocessing counters (Solver.Simplify).
	ElimVars            uint64        // variables removed by bounded variable elimination
	SubsumedClauses     uint64        // clauses deleted by (backward) subsumption
	StrengthenedClauses uint64        // literals removed by self-subsuming resolution
	FailedLits          uint64        // literals fixed by failed-literal probing
	SimplifyTime        time.Duration // wall time spent inside Simplify
	// Carryover counter (Solver.ImportLearnts).
	ImportedClauses uint64 // harvested clauses accepted by the RUP gate
	MaxVars         int
	Clauses         int
}

// Progress is the point-in-time search snapshot delivered to the
// progress probe (Solver.SetProgress) every N conflicts. The cumulative
// counters mirror Stats; LearntDB and Level describe the current state
// of the search rather than totals.
type Progress struct {
	Conflicts    uint64
	Decisions    uint64
	Propagations uint64
	Restarts     uint64
	Reduces      uint64
	LearntDB     int // current learned-clause database size
	Level        int // current decision level
}

// EventKind classifies a coarse solver event delivered to the event
// hook (Solver.SetEventHook).
type EventKind uint8

// The event kinds: a search restart and a learned-DB reduction sweep.
const (
	EventRestart EventKind = iota + 1
	EventReduce
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventRestart:
		return "restart"
	case EventReduce:
		return "reduce"
	default:
		return "unknown"
	}
}

// Event is a coarse solver event (restart, DB reduction) delivered to
// the event hook with the cumulative counters at the point it fired.
// Unlike the per-N-conflicts Progress probe, events are rare and mark
// qualitative search transitions, which makes them the right grain for
// a bounded flight recorder.
type Event struct {
	Kind         EventKind
	Conflicts    uint64
	Decisions    uint64
	Propagations uint64
	Restarts     uint64
	Reduces      uint64
	LearntDB     int // learned-DB size after the event
}

// String implements fmt.Stringer. Every counter added to Stats MUST be
// rendered here — TestStatsCountersComplete enforces this by
// reflection.
func (st Stats) String() string {
	return fmt.Sprintf(
		"vars=%d clauses=%d conflicts=%d decisions=%d propagations=%d restarts=%d learned=%d removed=%d reduces=%d solves=%d solve_ms=%.2f elim_vars=%d subsumed=%d strengthened=%d failed_lits=%d simplify_ms=%.2f imported=%d",
		st.MaxVars, st.Clauses, st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learned, st.Removed,
		st.Reduces, st.Solves, float64(st.SolveTime.Microseconds())/1000,
		st.ElimVars, st.SubsumedClauses, st.StrengthenedClauses, st.FailedLits,
		float64(st.SimplifyTime.Microseconds())/1000,
		st.ImportedClauses)
}
