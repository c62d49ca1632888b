package sat

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// php adds the pigeonhole principle PHP(pigeons, holes) to s: every
// pigeon sits in some hole, no two pigeons share a hole. Unsatisfiable
// (and hard for CDCL) whenever pigeons > holes.
func php(t testing.TB, s *Solver, pigeons, holes int) {
	t.Helper()
	vars := make([][]Var, pigeons)
	for i := range vars {
		vars[i] = newVars(s, holes)
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = PosLit(vars[i][j])
		}
		mustAdd(t, s, lits...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				mustAdd(t, s, NegLit(vars[i][j]), NegLit(vars[k][j]))
			}
		}
	}
}

func TestStatsSolvesAndSolveTime(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	mustAdd(t, s, PosLit(vs[0]), PosLit(vs[1]))
	mustAdd(t, s, NegLit(vs[1]), PosLit(vs[2]))
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	if s.Solve(NegLit(vs[0])) != Sat {
		t.Fatal("want sat under assumption")
	}
	st := s.Stats()
	if st.Solves != 2 {
		t.Fatalf("Solves = %d, want 2", st.Solves)
	}
	if st.SolveTime < 0 {
		t.Fatalf("SolveTime = %v", st.SolveTime)
	}
}

// TestStatsCountersComplete is the round-trip guard for Stats: every
// field — including ones added later — must be rendered by String. It
// works by reflection so a newly added counter that is forgotten in
// String fails here instead of silently going unreported.
func TestStatsCountersComplete(t *testing.T) {
	var big Stats
	bv := reflect.ValueOf(&big).Elem()
	tp := reflect.TypeOf(big)
	for i := 0; i < bv.NumField(); i++ {
		switch bv.Field(i).Kind() {
		case reflect.Uint64:
			bv.Field(i).SetUint(uint64(1000 + 111*i))
		case reflect.Int64: // time.Duration
			bv.Field(i).SetInt(int64(time.Duration(1000+111*i) * time.Millisecond))
		case reflect.Int: // absolute instance-size fields
			bv.Field(i).SetInt(int64(1000 + 111*i))
		default:
			t.Fatalf("Stats field %s has unhandled kind %v — extend this test",
				tp.Field(i).Name, bv.Field(i).Kind())
		}
	}

	s := big.String()
	durationType := reflect.TypeOf(time.Duration(0))
	for i := 0; i < bv.NumField(); i++ {
		name := tp.Field(i).Name
		var want string
		if tp.Field(i).Type == durationType {
			// Durations render as fractional milliseconds.
			want = fmt.Sprintf("%.2f", float64(time.Duration(bv.Field(i).Int()).Microseconds())/1000)
		} else {
			switch bv.Field(i).Kind() {
			case reflect.Uint64:
				want = fmt.Sprintf("%d", bv.Field(i).Uint())
			default:
				want = fmt.Sprintf("%d", bv.Field(i).Int())
			}
		}
		if !strings.Contains(s, want) {
			t.Errorf("String() does not render %s (looked for %q): %s", name, want, s)
		}
	}
}

// TestSetProgress checks the solver progress probe: reports fire at the
// configured conflict interval, carry monotonically increasing counters
// consistent with the final Stats, and the probe can be disabled.
func TestSetProgress(t *testing.T) {
	s := New()
	php(t, s, 8, 7)
	const every = 10
	var reports []Progress
	s.SetProgress(every, func(p Progress) { reports = append(reports, p) })
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(8,7) = %v, want unsat", got)
	}
	if len(reports) == 0 {
		t.Fatal("no progress reports on a multi-hundred-conflict proof")
	}
	var last uint64
	for i, p := range reports {
		if p.Conflicts < last+every {
			t.Fatalf("report %d at %d conflicts, previous at %d: interval violated", i, p.Conflicts, last)
		}
		last = p.Conflicts
		if p.Decisions == 0 || p.Propagations == 0 {
			t.Fatalf("report %d has empty counters: %+v", i, p)
		}
	}
	final := s.Stats()
	if last > final.Conflicts {
		t.Fatalf("last report (%d conflicts) exceeds final stats (%d)", last, final.Conflicts)
	}
	if uint64(len(reports)) > final.Conflicts/every {
		t.Fatalf("%d reports for %d conflicts at interval %d", len(reports), final.Conflicts, every)
	}
}

func TestSetProgressDisabled(t *testing.T) {
	fired := false
	probe := func(Progress) { fired = true }

	s := New()
	php(t, s, 6, 5)
	s.SetProgress(0, probe) // every == 0 disables
	if s.Solve() != Unsat {
		t.Fatal("want unsat")
	}
	if fired {
		t.Fatal("probe fired with interval 0")
	}

	s2 := New()
	php(t, s2, 6, 5)
	s2.SetProgress(10, probe)
	s2.SetProgress(10, nil) // nil callback disables
	if s2.Solve() != Unsat {
		t.Fatal("want unsat")
	}
	if fired {
		t.Fatal("probe fired after being cleared")
	}
}

func TestSetInterrupt(t *testing.T) {
	s := New()
	php(t, s, 8, 7)
	polls := 0
	s.SetInterrupt(func() bool {
		polls++
		return true
	})
	if got := s.Solve(); got != Unsolved {
		t.Fatalf("interrupted solve = %v, want unsolved", got)
	}
	if polls == 0 {
		t.Fatal("interrupt hook was never polled")
	}
	// The solver must stay usable: clear the hook and finish the proof.
	s.SetInterrupt(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after interrupt: %v, want unsat", got)
	}
}

func TestConflictBudgetIsPerSolve(t *testing.T) {
	s := New()
	php(t, s, 7, 6)
	s.SetConflictBudget(50)
	first := s.Solve()
	if first != Unsolved {
		t.Fatalf("tiny budget should exhaust on PHP(7,6), got %v", first)
	}
	// Each Solve call gets the full budget again: repeated bounded calls
	// make progress via learned clauses instead of dying immediately.
	before := s.Stats().Conflicts
	if s.Solve() == Sat {
		t.Fatal("PHP must never be sat")
	}
	spent := s.Stats().Conflicts - before
	if spent == 0 {
		t.Fatal("second bounded solve did no work: budget was consumed across calls")
	}
}
