// Package faultinject provides deterministic fault-injection hooks for
// chaos-testing verification campaigns: a seeded plan of faults —
// solver stalls after a fixed conflict count, a forced panic on a
// chosen worker task, transient I/O errors on checkpoint and trace
// writers, and artificial solve latency — that production code threads
// through plain function hooks with no build tags.
//
// The central design rule is "nil is off": every hook method is safe on
// a nil *Faults receiver and injects nothing, so internal/sat,
// internal/core and the checkpoint writer carry a possibly-nil plan
// without branching at call sites. Faults are counter-based, not
// probabilistic, so a plan replays identically across runs and across
// worker schedules: the i-th dispatched task panics, the i-th write
// fails, every solve stalls at exactly N conflicts. The seed only feeds
// Pick, a helper for tests that want to derive victim indices
// reproducibly from one number.
package faultinject

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel error returned by injected I/O faults.
// Code under test must treat it like any other transient write error;
// chaos tests use errors.Is to tell injected failures from real ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Faults is one deterministic fault-injection plan. Construct with New
// and arm individual faults with the chainable setters; a plan with no
// faults armed (and the nil *Faults) injects nothing.
//
// A single plan may be shared by many goroutines: hook state is either
// immutable after arming or guarded by atomics, and the injection
// counters are safe to read while a campaign runs.
type Faults struct {
	seed uint64

	stallAfter    uint64 // solver stall: give up after N conflicts (0 = off)
	panicTask     int64  // task index to panic on (< 0 = off)
	panicEvery    bool   // panic on every matching task, not just once
	solveDelay    time.Duration
	mutationDelay time.Duration   // config-mutation stall (0 = off)
	failedWrite   map[uint64]bool // global write indices that fail

	// HTTP-layer faults (see BeforeStreamItem).
	streamDelay time.Duration // slow client: per-item stall (0 = off)
	dropAfter   int64         // mid-stream disconnect after N items (< 0 = off)

	// Verdict-corruption faults (see FlipVerdict, CorruptModel and
	// DropProofStep): wrong answers injected after the solver decided,
	// which only a certification layer can catch.
	flipVerdict  int64 // verdict index to invert (< 0 = off)
	corruptModel int64 // sat-model index to corrupt (< 0 = off)
	dropProofAt  int64 // proof-addition index to truncate from (< 0 = off)

	// Network-level faults (see transport.go), allocated on first arm so
	// a plan without them carries no extra state.
	netOnce  sync.Once
	netState *netFaults

	rngMu sync.Mutex
	rng   uint64

	panicFired     atomic.Bool
	writeIdx       atomic.Uint64
	streamIdx      atomic.Int64
	verdictIdx     atomic.Int64
	modelIdx       atomic.Int64
	proofDropFired atomic.Bool

	stalls         atomic.Uint64
	mutationStalls atomic.Uint64
	panics         atomic.Uint64
	writeFaults    atomic.Uint64
	streamFaults   atomic.Uint64
	verdictFlips   atomic.Uint64
	modelFaults    atomic.Uint64
	proofDrops     atomic.Uint64
}

// New returns a plan with every fault disabled. The seed feeds Pick
// only; the faults themselves are counter-based and deterministic.
func New(seed int64) *Faults {
	return &Faults{
		seed:         uint64(seed),
		rng:          uint64(seed)*2862933555777941757 + 3037000493,
		panicTask:    -1,
		dropAfter:    -1,
		flipVerdict:  -1,
		corruptModel: -1,
		dropProofAt:  -1,
		failedWrite:  map[uint64]bool{},
	}
}

// StallSolverAfter arms the solver-stall fault: every SAT solve gives
// up (sat.Unsolved) once it has spent n conflicts, as if the instance
// were too hard for its budget. 0 disarms.
func (f *Faults) StallSolverAfter(n uint64) *Faults {
	f.stallAfter = n
	return f
}

// PanicOnTask arms a one-shot worker panic: the worker executing the
// task with this index panics with ErrInjected. A negative index
// disarms.
func (f *Faults) PanicOnTask(i int) *Faults {
	f.panicTask = int64(i)
	f.panicFired.Store(false)
	return f
}

// DelaySolves arms artificial solve latency: every solve sleeps d
// before starting, modeling a slow or contended solver.
func (f *Faults) DelaySolves(d time.Duration) *Faults {
	f.solveDelay = d
	return f
}

// FailWrites arms transient I/O errors: across all writers wrapped by
// WrapWriter, the writes with the given global 0-based indices fail
// with ErrInjected. Later writes succeed again, which is what makes the
// fault transient rather than latched.
func (f *Faults) FailWrites(indices ...uint64) *Faults {
	for _, i := range indices {
		f.failedWrite[i] = true
	}
	return f
}

// Seed returns the plan's seed.
func (f *Faults) Seed() int64 {
	if f == nil {
		return 0
	}
	return int64(f.seed)
}

// Pick returns a deterministic pseudo-random index in [0, n), advancing
// the plan's seeded generator. Tests use it to choose victim tasks or
// write indices reproducibly from the plan's seed.
func (f *Faults) Pick(n int) int {
	if f == nil || n <= 0 {
		return 0
	}
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	// xorshift64* keeps the dependency surface at zero.
	f.rng ^= f.rng >> 12
	f.rng ^= f.rng << 25
	f.rng ^= f.rng >> 27
	return int((f.rng * 2685821657736338717) % uint64(n))
}

// SolverHook returns the solver's conflict hook for this plan, or nil
// when the solver-stall fault is disarmed (the solver treats a nil hook
// as absent). The hook reports true — abort the solve — once the
// current call has spent the armed number of conflicts.
func (f *Faults) SolverHook() func(conflicts uint64) bool {
	if f == nil || f.stallAfter == 0 {
		return nil
	}
	limit := f.stallAfter
	return func(conflicts uint64) bool {
		if conflicts < limit {
			return false
		}
		f.stalls.Add(1)
		return true
	}
}

// BeforeSolve blocks for the armed solve delay (a no-op otherwise).
func (f *Faults) BeforeSolve() {
	if f == nil || f.solveDelay <= 0 {
		return
	}
	time.Sleep(f.solveDelay)
}

// CheckTask panics with ErrInjected when the worker-panic fault is
// armed for task index i and has not fired yet. Campaign runners call
// it right before executing a task; the panic travels the same path as
// a genuine bug in verification code.
func (f *Faults) CheckTask(i int) {
	if f == nil || f.panicTask < 0 || int64(i) != f.panicTask {
		return
	}
	if f.panicFired.Swap(true) {
		return
	}
	f.panics.Add(1)
	panic(ErrInjected)
}

// FlipVerdict arms verdict corruption: the n-th (0-based, counted
// across the plan) decided solve verdict is inverted — Sat reported as
// Unsat and vice versa — modeling a wrong answer escaping the solver
// undetected. Without a certification layer the flipped verdict is
// simply believed; with one it must be caught and quarantined. A
// negative n disarms.
func (f *Faults) FlipVerdict(n int) *Faults {
	f.flipVerdict = int64(n)
	return f
}

// CorruptVerdict reports whether the current decided verdict must be
// inverted, advancing the plan's verdict counter. Callers invoke it
// once per decided (Sat/Unsat) verdict.
func (f *Faults) CorruptVerdict() bool {
	if f == nil || f.flipVerdict < 0 {
		return false
	}
	if f.verdictIdx.Add(1)-1 != f.flipVerdict {
		return false
	}
	f.verdictFlips.Add(1)
	return true
}

// CorruptModel arms witness corruption: the n-th (0-based, counted
// across the plan) decoded sat model has one element of its threat
// vector corrupted before it is reported, modeling a bad model readout.
// A negative n disarms.
func (f *Faults) CorruptModel(n int) *Faults {
	f.corruptModel = int64(n)
	return f
}

// CorruptModelNow reports whether the current decoded witness must be
// corrupted, advancing the plan's model counter. Callers invoke it once
// per decoded sat model.
func (f *Faults) CorruptModelNow() bool {
	if f == nil || f.corruptModel < 0 {
		return false
	}
	if f.modelIdx.Add(1)-1 != f.corruptModel {
		return false
	}
	f.modelFaults.Add(1)
	return true
}

// DropProofStep arms proof-stream truncation: in the first certified
// solve whose proof reaches the n-th (0-based) derived clause addition,
// that addition and every later one are silently dropped before
// reaching the proof checker — modeling a proof writer that crashed or
// lost derivation steps. One-shot across the plan, so later solves (in
// particular a quarantine re-solve) log complete proofs again. A
// negative n disarms.
func (f *Faults) DropProofStep(n int) *Faults {
	f.dropProofAt = int64(n)
	f.proofDropFired.Store(false)
	return f
}

// ProofDropHook returns a per-stream proof-truncation predicate for
// this plan, or nil when the fault is disarmed. Each certified solve
// obtains its own hook and calls it once per derived clause addition;
// the first stream to reach the armed step index claims the one-shot
// fault and truncates its proof from there.
func (f *Faults) ProofDropHook() func() bool {
	if f == nil || f.dropProofAt < 0 {
		return nil
	}
	at := f.dropProofAt
	var seen int64
	dropping := false
	return func() bool {
		if dropping {
			f.proofDrops.Add(1)
			return true
		}
		seen++
		if seen-1 == at && !f.proofDropFired.Swap(true) {
			dropping = true
			f.proofDrops.Add(1)
			return true
		}
		return false
	}
}

// StallMutations arms config-mutation latency: every delta-aware cache
// evolution (core.EncodingCache.Mutate) stalls for d before diffing
// constraint groups, modeling a mutation that lands mid-campaign while
// queries against the previous snapshot are still in flight. 0 disarms.
func (f *Faults) StallMutations(d time.Duration) *Faults {
	f.mutationDelay = d
	return f
}

// BeforeMutation blocks for the armed mutation delay (a no-op
// otherwise) and counts the stall. The delta cache calls it while
// holding the per-lineage evolution lock, so an armed stall widens the
// window in which concurrent queries race the mutation.
func (f *Faults) BeforeMutation() {
	if f == nil || f.mutationDelay <= 0 {
		return
	}
	f.mutationStalls.Add(1)
	time.Sleep(f.mutationDelay)
}

// SlowClient arms HTTP-stream latency: every streamed response item
// (a JSONL line of the enumeration endpoint) stalls for d before being
// written, modeling a client that drains the response slowly. 0 disarms.
func (f *Faults) SlowClient(d time.Duration) *Faults {
	f.streamDelay = d
	return f
}

// DropStreamAfter arms a mid-stream client disconnect: the n-th
// (0-based, counted across all streams of the plan) streamed item fails
// with ErrInjected, as if the client hung up while the response was in
// flight. A negative n disarms.
func (f *Faults) DropStreamAfter(n int) *Faults {
	f.dropAfter = int64(n)
	return f
}

// BeforeStreamItem is the HTTP streaming hook: response writers call it
// before emitting each streamed item. It blocks for the slow-client
// delay, then reports ErrInjected when the armed mid-stream disconnect
// index is reached — the caller must treat that exactly like a real
// client disconnect (abort the stream, keep server state consistent).
func (f *Faults) BeforeStreamItem() error {
	if f == nil {
		return nil
	}
	if f.streamDelay > 0 {
		time.Sleep(f.streamDelay)
	}
	if f.dropAfter < 0 {
		return nil
	}
	if f.streamIdx.Add(1)-1 >= f.dropAfter {
		f.streamFaults.Add(1)
		return ErrInjected
	}
	return nil
}

// WrapWriter interposes the plan's transient write faults in front of
// w. With no write faults armed (or a nil plan) it returns w unchanged,
// so the production path pays nothing.
func (f *Faults) WrapWriter(w io.Writer) io.Writer {
	if f == nil || len(f.failedWrite) == 0 {
		return w
	}
	return &faultyWriter{f: f, w: w}
}

type faultyWriter struct {
	f *Faults
	w io.Writer
}

func (fw *faultyWriter) Write(p []byte) (int, error) {
	idx := fw.f.writeIdx.Add(1) - 1
	if fw.f.failedWrite[idx] {
		fw.f.writeFaults.Add(1)
		return 0, ErrInjected
	}
	return fw.w.Write(p)
}

// Counts reports how many times each fault actually fired, for chaos
// tests to assert the plan was exercised.
type Counts struct {
	SolverStalls      uint64
	MutationStalls    uint64
	Panics            uint64
	WriteFaults       uint64
	StreamFaults      uint64
	RefusedConnects   uint64
	ResponseCuts      uint64
	VerdictFlips      uint64
	ModelCorruptions  uint64
	DroppedProofSteps uint64
}

// Counts returns the current injection counters.
func (f *Faults) Counts() Counts {
	if f == nil {
		return Counts{}
	}
	c := Counts{
		SolverStalls:      f.stalls.Load(),
		MutationStalls:    f.mutationStalls.Load(),
		Panics:            f.panics.Load(),
		WriteFaults:       f.writeFaults.Load(),
		StreamFaults:      f.streamFaults.Load(),
		VerdictFlips:      f.verdictFlips.Load(),
		ModelCorruptions:  f.modelFaults.Load(),
		DroppedProofSteps: f.proofDrops.Load(),
	}
	if n := f.netState; n != nil {
		c.RefusedConnects = n.refused.Load()
		c.ResponseCuts = n.cuts.Load()
	}
	return c
}
