package sat

import "testing"

// TestEventHookRestarts pins the event-hook seam: a conflict-heavy
// unsat solve delivers restart events carrying the cumulative counters
// at each firing.
func TestEventHookRestarts(t *testing.T) {
	s := pigeonholeSolver(t, 7)
	var events []Event
	s.SetEventHook(func(e Event) { events = append(events, e) })
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
	st := s.Stats()
	if st.Restarts == 0 {
		t.Skip("instance decided without restarting; nothing to observe")
	}
	var restarts uint64
	var lastConflicts uint64
	for _, e := range events {
		if e.Kind != EventRestart && e.Kind != EventReduce {
			t.Fatalf("unexpected event kind %v", e.Kind)
		}
		if e.Conflicts < lastConflicts {
			t.Fatalf("event conflicts went backwards: %d after %d", e.Conflicts, lastConflicts)
		}
		lastConflicts = e.Conflicts
		if e.Kind == EventRestart {
			restarts++
			if e.Restarts != restarts {
				t.Fatalf("restart event #%d carries Restarts=%d", restarts, e.Restarts)
			}
		}
	}
	if restarts != st.Restarts {
		t.Fatalf("observed %d restart events, solver counted %d", restarts, st.Restarts)
	}
}

// TestEventHookDisabled: a nil hook must not fire and must not change
// the verdict.
func TestEventHookDisabled(t *testing.T) {
	s := pigeonholeSolver(t, 6)
	s.SetEventHook(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

// TestEventKindString pins the names the flight recorder stores.
func TestEventKindString(t *testing.T) {
	for kind, want := range map[EventKind]string{
		EventRestart: "restart",
		EventReduce:  "reduce",
		EventKind(0): "unknown",
	} {
		if got := kind.String(); got != want {
			t.Fatalf("EventKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}
