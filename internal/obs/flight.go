package obs

// Live query introspection: a registry of in-flight verification
// queries plus a bounded per-query flight recorder of recent solver
// events. The registry follows the package's nil-is-off contract: a
// nil *QueryRegistry hands out nil *QueryState values, and every
// method on both types is a no-op on a nil receiver, so instrumented
// code pays one nil check when introspection is disabled.
//
// Memory is bounded by construction: the active map holds only
// queries currently being solved (capped by the caller's worker
// count), each query keeps at most eventCap flight events in a ring,
// and completed snapshots are retained in a fixed-size ring of the
// last `history` queries.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the registry's two memory bounds.
const (
	// DefaultQueryHistory is the number of completed query snapshots
	// retained for GET /v1/queries when no explicit bound is given.
	DefaultQueryHistory = 64
	// DefaultFlightEvents is the per-query flight-recorder ring size.
	DefaultFlightEvents = 32
)

// FlightEvent is one entry in a query's flight recorder: a rare,
// coarse solver or control-plane event (restart, DB reduction, retry,
// checkpoint flush) with the conflict count at which it happened and
// its offset from the query's start.
type FlightEvent struct {
	OffsetNanos int64  `json:"tNanos"`
	Kind        string `json:"kind"`
	Detail      string `json:"detail,omitempty"`
	Conflicts   uint64 `json:"conflicts,omitempty"`
}

// QuerySnapshot is the point-in-time JSON view of a query served by
// GET /v1/queries and streamed by /v1/queries/{id}/watch.
type QuerySnapshot struct {
	ID             uint64        `json:"id"`
	Fingerprint    string        `json:"fingerprint,omitempty"`
	Property       string        `json:"property"`
	Budget         string        `json:"budget,omitempty"`
	Phase          string        `json:"phase"`
	Attempt        int           `json:"attempt"`
	Conflicts      uint64        `json:"conflicts"`
	ConflictBudget uint64        `json:"conflictBudget,omitempty"`
	DeadlineNanos  int64         `json:"deadlineNanos,omitempty"`
	Decisions      uint64        `json:"decisions"`
	Propagations   uint64        `json:"propagations"`
	Restarts       uint64        `json:"restarts"`
	Reduces        uint64        `json:"reduces"`
	LearntDB       int           `json:"learntDB"`
	StartUnixNano  int64         `json:"startUnixNano"`
	ElapsedNanos   int64         `json:"elapsedNanos"`
	ConflictsPerS  float64       `json:"conflictsPerSec"`
	Events         []FlightEvent `json:"events,omitempty"`
	EventsDropped  uint64        `json:"eventsDropped,omitempty"`
	Done           bool          `json:"done"`
	Status         string        `json:"status,omitempty"`
	FailureReason  string        `json:"failureReason,omitempty"`
}

// WatchLine renders the snapshot as a single human-readable progress
// line for the CLI -watch mode.
func (q QuerySnapshot) WatchLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "watch: q%d %s", q.ID, q.Property)
	if q.Budget != "" {
		fmt.Fprintf(&b, " %s", q.Budget)
	}
	fmt.Fprintf(&b, " phase=%s attempt=%d conflicts=%d", q.Phase, q.Attempt, q.Conflicts)
	if q.ConflictBudget > 0 {
		fmt.Fprintf(&b, "/%d", q.ConflictBudget)
	}
	fmt.Fprintf(&b, " (%.0f/s) restarts=%d learnt=%d", q.ConflictsPerS, q.Restarts, q.LearntDB)
	if q.Done {
		fmt.Fprintf(&b, " done status=%s", q.Status)
	}
	return b.String()
}

// QueryRegistry tracks live queries and retains the last N completed
// ones. All methods are safe on a nil receiver and for concurrent use.
type QueryRegistry struct {
	history  int
	eventCap int
	nextID   atomic.Uint64

	slowThreshold atomic.Int64 // nanoseconds; 0 = slow-query log off
	slowMu        sync.Mutex
	slowLog       func(QuerySnapshot)

	mu        sync.Mutex
	active    map[uint64]*QueryState
	completed []QuerySnapshot // ring of the last `history` completions
	compNext  int
	compLen   int
}

// NewQueryRegistry builds a registry retaining the last `history`
// completed snapshots and at most `eventCap` flight events per query.
// Non-positive arguments select the package defaults.
func NewQueryRegistry(history, eventCap int) *QueryRegistry {
	if history <= 0 {
		history = DefaultQueryHistory
	}
	if eventCap <= 0 {
		eventCap = DefaultFlightEvents
	}
	return &QueryRegistry{
		history:   history,
		eventCap:  eventCap,
		active:    make(map[uint64]*QueryState),
		completed: make([]QuerySnapshot, history),
	}
}

// SetSlowQueryLog arms the slow-query log: any query whose total
// duration exceeds threshold has fn invoked with its final snapshot
// (flight record included) at completion. A zero threshold disarms.
func (r *QueryRegistry) SetSlowQueryLog(threshold time.Duration, fn func(QuerySnapshot)) {
	if r == nil {
		return
	}
	r.slowMu.Lock()
	r.slowLog = fn
	r.slowMu.Unlock()
	r.slowThreshold.Store(int64(threshold))
}

// SlowThreshold returns the armed slow-query threshold (0 = off).
func (r *QueryRegistry) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowThreshold.Load())
}

// Begin registers a new query and returns its live state. On a nil
// registry it returns nil, which is itself a valid no-op QueryState.
func (r *QueryRegistry) Begin(fingerprint, property, budget string, conflictBudget uint64, deadline time.Duration) *QueryState {
	if r == nil {
		return nil
	}
	qs := &QueryState{
		reg:            r,
		id:             r.nextID.Add(1),
		fingerprint:    fingerprint,
		property:       property,
		budget:         budget,
		conflictBudget: conflictBudget,
		deadline:       deadline,
		start:          time.Now(),
		phase:          "begin",
	}
	qs.attempt.Store(1)
	r.mu.Lock()
	r.active[qs.id] = qs
	r.mu.Unlock()
	return qs
}

// Active returns snapshots of all in-flight queries, ordered by id.
func (r *QueryRegistry) Active() []QuerySnapshot {
	if r == nil {
		return []QuerySnapshot{}
	}
	r.mu.Lock()
	states := make([]*QueryState, 0, len(r.active))
	for _, qs := range r.active {
		states = append(states, qs)
	}
	r.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]QuerySnapshot, len(states))
	for i, qs := range states {
		out[i] = qs.Snapshot()
	}
	return out
}

// Completed returns the retained completed-query snapshots, newest
// first. The slice length is bounded by the registry's history.
func (r *QueryRegistry) Completed() []QuerySnapshot {
	if r == nil {
		return []QuerySnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QuerySnapshot, 0, r.compLen)
	for i := 0; i < r.compLen; i++ {
		idx := (r.compNext - 1 - i + r.history) % r.history
		out = append(out, r.completed[idx])
	}
	return out
}

// Get returns the snapshot for a query id, searching active queries
// first and then the completed ring.
func (r *QueryRegistry) Get(id uint64) (QuerySnapshot, bool) {
	if r == nil {
		return QuerySnapshot{}, false
	}
	r.mu.Lock()
	qs, ok := r.active[id]
	r.mu.Unlock()
	if ok {
		return qs.Snapshot(), true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.compLen; i++ {
		idx := (r.compNext - 1 - i + r.history) % r.history
		if r.completed[idx].ID == id {
			return r.completed[idx], true
		}
	}
	return QuerySnapshot{}, false
}

// complete moves a finished query from the active map into the
// completed ring and fires the slow-query log when armed.
func (r *QueryRegistry) complete(qs *QueryState, snap QuerySnapshot) {
	r.mu.Lock()
	delete(r.active, qs.id)
	r.completed[r.compNext] = snap
	r.compNext = (r.compNext + 1) % r.history
	if r.compLen < r.history {
		r.compLen++
	}
	r.mu.Unlock()
	if t := r.slowThreshold.Load(); t > 0 && snap.ElapsedNanos > t {
		r.slowMu.Lock()
		fn := r.slowLog
		r.slowMu.Unlock()
		if fn != nil {
			fn(snap)
		}
	}
}

// QueryState is the live state of one registered query. The solving
// goroutine updates the hot counters through lock-free atomics (fed
// by the sat.SetProgress probe); rare transitions (phase changes,
// flight events, completion) take a per-query mutex.
// All methods are no-ops on a nil receiver.
type QueryState struct {
	reg            *QueryRegistry
	id             uint64
	fingerprint    string
	property       string
	budget         string
	conflictBudget uint64
	deadline       time.Duration
	start          time.Time

	// Hot fields, written from the progress probe.
	conflicts    atomic.Uint64
	decisions    atomic.Uint64
	propagations atomic.Uint64
	restarts     atomic.Uint64
	reduces      atomic.Uint64
	learntDB     atomic.Int64
	attempt      atomic.Int64

	mu            sync.Mutex
	phase         string
	events        []FlightEvent // ring, bounded by reg.eventCap
	evNext        int
	evLen         int
	eventsDropped uint64
	done          bool
	status        string
	failureReason string
	end           time.Time
}

// ID returns the registry-assigned query id (0 on a nil state).
func (qs *QueryState) ID() uint64 {
	if qs == nil {
		return 0
	}
	return qs.id
}

// SetPhase records the query's current phase (encode, solve, decode…).
func (qs *QueryState) SetPhase(phase string) {
	if qs == nil {
		return
	}
	qs.mu.Lock()
	qs.phase = phase
	qs.mu.Unlock()
}

// SetAttempt records the current solve attempt (1-based).
func (qs *QueryState) SetAttempt(n int) {
	if qs == nil {
		return
	}
	qs.attempt.Store(int64(n))
}

// Progress publishes a solver progress snapshot. It is the hot path:
// seven atomic stores, no locks, called from the sat progress probe.
func (qs *QueryState) Progress(conflicts, decisions, propagations, restarts, reduces uint64, learntDB int) {
	if qs == nil {
		return
	}
	qs.conflicts.Store(conflicts)
	qs.decisions.Store(decisions)
	qs.propagations.Store(propagations)
	qs.restarts.Store(restarts)
	qs.reduces.Store(reduces)
	qs.learntDB.Store(int64(learntDB))
}

// Record appends a flight event to the query's bounded ring. When the
// ring is full the oldest event is overwritten and the drop counted.
func (qs *QueryState) Record(kind, detail string, conflicts uint64) {
	if qs == nil {
		return
	}
	ev := FlightEvent{
		OffsetNanos: int64(time.Since(qs.start)),
		Kind:        kind,
		Detail:      detail,
		Conflicts:   conflicts,
	}
	qs.mu.Lock()
	cap := qs.reg.eventCap
	if qs.events == nil {
		qs.events = make([]FlightEvent, cap)
	}
	qs.events[qs.evNext] = ev
	qs.evNext = (qs.evNext + 1) % cap
	if qs.evLen < cap {
		qs.evLen++
	} else {
		qs.eventsDropped++
	}
	qs.mu.Unlock()
}

// Complete marks the query finished, moves it into the registry's
// completed ring, and returns the final snapshot. Subsequent calls
// are no-ops returning the zero snapshot.
func (qs *QueryState) Complete(status, failureReason string) QuerySnapshot {
	if qs == nil {
		return QuerySnapshot{}
	}
	qs.mu.Lock()
	if qs.done {
		qs.mu.Unlock()
		return QuerySnapshot{}
	}
	qs.done = true
	qs.status = status
	qs.failureReason = failureReason
	qs.end = time.Now()
	snap := qs.snapshotLocked()
	qs.mu.Unlock()
	qs.reg.complete(qs, snap)
	return snap
}

// Snapshot returns the query's current point-in-time view.
func (qs *QueryState) Snapshot() QuerySnapshot {
	if qs == nil {
		return QuerySnapshot{}
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.snapshotLocked()
}

func (qs *QueryState) snapshotLocked() QuerySnapshot {
	end := qs.end
	if !qs.done {
		end = time.Now()
	}
	elapsed := end.Sub(qs.start)
	conflicts := qs.conflicts.Load()
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(conflicts) / secs
	}
	var events []FlightEvent
	if qs.evLen > 0 {
		events = make([]FlightEvent, 0, qs.evLen)
		cap := len(qs.events)
		for i := 0; i < qs.evLen; i++ {
			events = append(events, qs.events[(qs.evNext-qs.evLen+i+cap)%cap])
		}
	}
	return QuerySnapshot{
		ID:             qs.id,
		Fingerprint:    qs.fingerprint,
		Property:       qs.property,
		Budget:         qs.budget,
		Phase:          qs.phase,
		Attempt:        int(qs.attempt.Load()),
		Conflicts:      conflicts,
		ConflictBudget: qs.conflictBudget,
		DeadlineNanos:  int64(qs.deadline),
		Decisions:      qs.decisions.Load(),
		Propagations:   qs.propagations.Load(),
		Restarts:       qs.restarts.Load(),
		Reduces:        qs.reduces.Load(),
		LearntDB:       int(qs.learntDB.Load()),
		StartUnixNano:  qs.start.UnixNano(),
		ElapsedNanos:   int64(elapsed),
		ConflictsPerS:  rate,
		Events:         events,
		EventsDropped:  qs.eventsDropped,
		Done:           qs.done,
		Status:         qs.status,
		FailureReason:  qs.failureReason,
	}
}

// FlightSummary renders the recorded events as one compact line
// ("restart@1024 reduce@4096 retry@8192(deadline)"), suitable for
// appending to a FailureReason. Empty when nothing was recorded.
func (qs *QueryState) FlightSummary() string {
	if qs == nil {
		return ""
	}
	snap := qs.Snapshot()
	if len(snap.Events) == 0 {
		return ""
	}
	var b strings.Builder
	if snap.EventsDropped > 0 {
		fmt.Fprintf(&b, "+%d earlier", snap.EventsDropped)
	}
	for _, ev := range snap.Events {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%d", ev.Kind, ev.Conflicts)
		if ev.Detail != "" {
			fmt.Fprintf(&b, "(%s)", ev.Detail)
		}
	}
	return b.String()
}

// WatchProgress starts a goroutine that renders one WatchLine per
// active query to w every interval, for the CLI -watch mode. The
// returned stop function halts the goroutine and waits for it. On a
// nil registry or non-positive interval it is a no-op.
func WatchProgress(w io.Writer, r *QueryRegistry, interval time.Duration) (stop func()) {
	if r == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, q := range r.Active() {
					fmt.Fprintln(w, q.WatchLine())
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
