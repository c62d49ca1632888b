package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightNilRegistryIsNoOp(t *testing.T) {
	var r *QueryRegistry
	qs := r.Begin("fp", "observability", "k=2", 100, time.Second)
	if qs != nil {
		t.Fatalf("nil registry Begin = %v, want nil", qs)
	}
	// Every method on the nil state must be callable.
	qs.SetPhase("solve")
	qs.SetAttempt(2)
	qs.Progress(1, 2, 3, 4, 5, 6)
	qs.Record("restart", "", 1)
	qs.Complete("sat", "")
	if got := qs.Snapshot(); got.ID != 0 {
		t.Fatalf("nil state Snapshot = %+v, want zero", got)
	}
	if qs.FlightSummary() != "" || qs.ID() != 0 {
		t.Fatal("nil state summary/id not zero")
	}
	if got := r.Active(); len(got) != 0 {
		t.Fatalf("nil registry Active = %v", got)
	}
	if got := r.Completed(); len(got) != 0 {
		t.Fatalf("nil registry Completed = %v", got)
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("nil registry Get found something")
	}
	r.SetSlowQueryLog(time.Second, nil)
	if r.SlowThreshold() != 0 {
		t.Fatal("nil registry SlowThreshold != 0")
	}
	stop := WatchProgress(nil, r, time.Second)
	stop()
}

func TestFlightQueryLifecycle(t *testing.T) {
	r := NewQueryRegistry(4, 8)
	qs := r.Begin("fp123", "observability", "k=2", 5000, 2*time.Second)
	if qs.ID() == 0 {
		t.Fatal("query id not assigned")
	}
	qs.SetPhase("solve")
	qs.SetAttempt(1)
	qs.Progress(1024, 2048, 65536, 7, 1, 300)
	qs.Record("restart", "learnt=300", 1024)

	active := r.Active()
	if len(active) != 1 {
		t.Fatalf("Active = %d entries, want 1", len(active))
	}
	got := active[0]
	if got.Property != "observability" || got.Budget != "k=2" || got.Fingerprint != "fp123" {
		t.Fatalf("identity fields wrong: %+v", got)
	}
	if got.Phase != "solve" || got.Conflicts != 1024 || got.Restarts != 7 || got.LearntDB != 300 {
		t.Fatalf("progress fields wrong: %+v", got)
	}
	if got.ConflictBudget != 5000 || got.DeadlineNanos != int64(2*time.Second) {
		t.Fatalf("budget fields wrong: %+v", got)
	}
	if got.Done {
		t.Fatal("active query reported done")
	}
	if got.ConflictsPerS <= 0 {
		t.Fatalf("rate = %v, want > 0", got.ConflictsPerS)
	}

	snap := qs.Complete("unsat", "")
	if !snap.Done || snap.Status != "unsat" {
		t.Fatalf("completed snapshot: %+v", snap)
	}
	if len(r.Active()) != 0 {
		t.Fatal("completed query still active")
	}
	comp := r.Completed()
	if len(comp) != 1 || comp[0].ID != qs.ID() {
		t.Fatalf("Completed = %+v", comp)
	}
	// Get finds it in the completed ring, and the elapsed time froze.
	g1, ok := r.Get(qs.ID())
	if !ok || !g1.Done {
		t.Fatalf("Get(%d) = %+v, %v", qs.ID(), g1, ok)
	}
	g2, _ := r.Get(qs.ID())
	if g1.ElapsedNanos != g2.ElapsedNanos {
		t.Fatal("elapsed time of a completed query still advancing")
	}
	// Double-complete is a no-op.
	if again := qs.Complete("sat", ""); again.ID != 0 {
		t.Fatalf("second Complete = %+v, want zero", again)
	}
	if len(r.Completed()) != 1 {
		t.Fatal("double completion duplicated the ring entry")
	}
}

func TestFlightCompletedRingBounded(t *testing.T) {
	r := NewQueryRegistry(3, 4)
	var ids []uint64
	for i := 0; i < 10; i++ {
		qs := r.Begin("", "observability", "k=1", 0, 0)
		ids = append(ids, qs.ID())
		qs.Complete("unsat", "")
	}
	comp := r.Completed()
	if len(comp) != 3 {
		t.Fatalf("Completed = %d entries, want 3", len(comp))
	}
	// Newest first: the last three begun queries, in reverse order.
	for i, want := range []uint64{ids[9], ids[8], ids[7]} {
		if comp[i].ID != want {
			t.Fatalf("Completed[%d].ID = %d, want %d", i, comp[i].ID, want)
		}
	}
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("evicted query still retrievable")
	}
}

func TestFlightEventRingBounded(t *testing.T) {
	r := NewQueryRegistry(2, 4)
	qs := r.Begin("", "secured", "k=1", 0, 0)
	for i := 0; i < 10; i++ {
		qs.Record("restart", "", uint64(i))
	}
	snap := qs.Snapshot()
	if len(snap.Events) != 4 {
		t.Fatalf("events = %d, want ring cap 4", len(snap.Events))
	}
	if snap.EventsDropped != 6 {
		t.Fatalf("eventsDropped = %d, want 6", snap.EventsDropped)
	}
	// Oldest → newest, holding the last four records.
	for i, ev := range snap.Events {
		if want := uint64(6 + i); ev.Conflicts != want {
			t.Fatalf("events[%d].Conflicts = %d, want %d", i, ev.Conflicts, want)
		}
	}
	sum := qs.FlightSummary()
	if !strings.Contains(sum, "+6 earlier") || !strings.Contains(sum, "restart@9") {
		t.Fatalf("FlightSummary = %q", sum)
	}
}

func TestFlightSlowQueryLog(t *testing.T) {
	r := NewQueryRegistry(2, 4)
	var slow []QuerySnapshot
	r.SetSlowQueryLog(time.Nanosecond, func(s QuerySnapshot) { slow = append(slow, s) })

	qs := r.Begin("", "observability", "k=2", 0, 0)
	time.Sleep(time.Millisecond)
	qs.Complete("sat", "")
	if len(slow) != 1 || slow[0].ID != qs.ID() {
		t.Fatalf("slow log = %+v, want the completed query", slow)
	}

	r.SetSlowQueryLog(time.Hour, func(s QuerySnapshot) { slow = append(slow, s) })
	r.Begin("", "observability", "k=2", 0, 0).Complete("sat", "")
	if len(slow) != 1 {
		t.Fatal("fast query hit the slow log")
	}
}

func TestFlightSnapshotJSONShape(t *testing.T) {
	r := NewQueryRegistry(2, 4)
	qs := r.Begin("fp", "baddata", "k=1,r=2", 10, time.Second)
	qs.Progress(5, 6, 7, 1, 0, 9)
	qs.Record("retry", "deadline exceeded", 5)
	b, err := json.Marshal(qs.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"property":"baddata"`, `"budget":"k=1,r=2"`, `"conflicts":5`,
		`"events":[{"tNanos":`, `"kind":"retry"`, `"done":false`,
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("snapshot JSON missing %s:\n%s", want, b)
		}
	}
}

// TestFlightConcurrent hammers one registry from writer and reader
// goroutines; the race detector is the real assertion, the history
// bound the functional one.
func TestFlightConcurrent(t *testing.T) {
	r := NewQueryRegistry(4, 8)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				qs := r.Begin("", "observability", "k=2", 0, 0)
				for j := 0; j < 20; j++ {
					qs.Progress(uint64(j), 0, 0, 0, 0, j)
					qs.Record("restart", "", uint64(j))
				}
				qs.Complete("unsat", "")
			}
		}()
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Active()
				r.Completed()
				r.Get(1)
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := len(r.Completed()); got != 4 {
		t.Fatalf("completed ring = %d entries, want history bound 4", got)
	}
}
