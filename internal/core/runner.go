package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"scadaver/internal/faultinject"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
)

// Runner fans independent verification work out across a pool of worker
// goroutines. The paper's evaluation — per-bus-system, per-property,
// per-budget queries — is embarrassingly parallel: every query is an
// independent SAT instance. The runner exploits that while enforcing the
// solver ownership rule: each worker builds and owns its own Analyzer
// (and therefore its own encoder and SAT solver); only the read-only
// Config is shared. Results come back in input order regardless of
// which worker finished first, so parallel campaigns produce results
// identical to serial ones.
//
// Cancellation is context-based: cancelling the context stops dispatch
// and interrupts in-flight solves through the solver's cooperative
// interrupt hook, so even a long unsat proof unwinds within a few
// hundred search steps.
type Runner struct {
	workers  int
	opts     []Option
	inflight atomic.Int64
}

// NewRunner returns a runner with the given pool size; workers <= 0
// selects runtime.GOMAXPROCS(0). The options are applied to every
// analyzer the runner builds (WithConflictBudget, WithPolicy, ...).
func NewRunner(workers int, opts ...Option) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, opts: opts}
}

// Workers returns the configured pool size.
func (r *Runner) Workers() int { return r.workers }

// Inflight reports how many tasks this runner's campaigns are executing
// at this instant, across all concurrent campaign calls. Long-running
// services (internal/serve) poll it for load introspection.
func (r *Runner) Inflight() int64 { return r.inflight.Load() }

// probe materializes the runner's options onto a blank analyzer so the
// runner itself can reach the cross-cutting hooks they carry — the
// metrics registry and the fault-injection plan — without widening the
// Option API. Options only set fields, so applying them to a zero
// Analyzer is safe.
func (r *Runner) probe() *Analyzer {
	a := &Analyzer{}
	for _, o := range r.opts {
		o(a)
	}
	return a
}

// PanicError reports a worker panic that a campaign isolated to the
// task (query index) that raised it, instead of letting it tear down
// the whole process. Stack is the panicking goroutine's stack at
// recovery time.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v", e.Index, e.Value)
}

// Unwrap exposes a panic value that was itself an error (as injected
// faults are), so errors.Is/As see through the panic wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Outcome is the per-query verdict of a collect-mode campaign: exactly
// one of Result and Err is set. Err is a *PanicError when the worker
// panicked on this query.
type Outcome struct {
	Result *Result `json:"result,omitempty"`
	Err    error   `json:"-"`
}

// analyzerOptions returns the runner's options plus an interrupt hook
// polling ctx, for analyzers that must abandon solves on cancellation.
func (r *Runner) analyzerOptions(ctx context.Context) []Option {
	done := ctx.Done()
	hook := WithInterrupt(func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	return append(append([]Option(nil), r.opts...), hook)
}

// verifyTask builds one worker's verification task over a private
// Analyzer. Task errors are annotated with the query index and the
// query itself, so a campaign failure names the culprit.
func (r *Runner) verifyTask(ctx context.Context, cfg *scadanet.Config, queries []Query, record func(i int, res *Result)) (func(i int) error, error) {
	a, err := NewAnalyzer(cfg, r.analyzerOptions(ctx)...)
	if err != nil {
		return nil, err
	}
	return func(i int) error {
		res, err := a.Verify(queries[i])
		if err != nil {
			return fmt.Errorf("query %d (%v): %w", i, queries[i], err)
		}
		if res.Status == sat.Unsolved && res.FailureReason == ReasonInterrupted && ctx.Err() != nil {
			// The solve was interrupted by cancellation, not decided;
			// leave the slot empty like every other unfinished query.
			return nil
		}
		record(i, res)
		return nil
	}, nil
}

// VerifyAll verifies all queries against one shared configuration and
// returns results indexed like the input. Each worker owns a private
// Analyzer over cfg, which itself is only ever read.
//
// This is the strict (fail-fast) campaign: on context cancellation or
// the first verification error the remaining queries are abandoned —
// the returned slice holds nil at every unfinished index and the error
// (annotated with the failing query's index) is the context's,
// respectively the verification's. A nil error guarantees every entry
// is non-nil. Campaigns that should survive individual failures use
// VerifyAllCollect.
func (r *Runner) VerifyAll(ctx context.Context, cfg *scadanet.Config, queries []Query) ([]*Result, error) {
	results := make([]*Result, len(queries))
	err := r.runEach(ctx, dispatchOrder(queries, nil), func(ctx context.Context) (func(i int) error, error) {
		return r.verifyTask(ctx, cfg, queries, func(i int, res *Result) { results[i] = res })
	}, nil)
	return results, err
}

// dispatchOrder is the order in which a campaign hands queries to its
// workers: the first pending query of every snapshot (one per
// snapshotKeyOf, the structural fields encodingKey covers) goes
// first, in input order, and the rest follow in input order. A query whose snapshot another
// worker is still building waits for that build, so leading with one
// query per snapshot lets the workers build distinct snapshots side by
// side instead of queueing behind one; the pool's wall time then no
// longer depends on where in the input each snapshot's first query
// sits. Queries with done[i] set (nil: none) are skipped when picking
// the leaders. Results are indexed like the input.
func dispatchOrder(queries []Query, done []bool) []int {
	order := make([]int, 0, len(queries))
	seen := make(map[snapshotKey]bool)
	lead := make([]bool, len(queries))
	for i, q := range queries {
		g := snapshotKeyOf(q)
		if (done == nil || !done[i]) && !seen[g] {
			seen[g] = true
			lead[i] = true
			order = append(order, i)
		}
	}
	for i := range queries {
		if !lead[i] {
			order = append(order, i)
		}
	}
	return order
}

// inputOrder is the identity dispatch order over n tasks.
func inputOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// VerifyAllCollect is the partial-results variant of VerifyAll: every
// query is attempted and the campaign never aborts on per-query
// failures. Each index of the returned slice holds either the query's
// Result (possibly Unsolved with a FailureReason, when budgets ran
// out) or the isolated error — including recovered worker panics as
// *PanicError — that prevented one. The returned error is reserved for
// campaign-level failures: analyzer construction and context
// cancellation (unfinished outcomes then have neither field set).
func (r *Runner) VerifyAllCollect(ctx context.Context, cfg *scadanet.Config, queries []Query) ([]Outcome, error) {
	return r.VerifyAllResumable(ctx, cfg, queries, nil)
}

// VerifyAllResumable is VerifyAllCollect with checkpointing: every
// finished result is appended to ck (kind CheckpointKindCampaign,
// entries keyed by query index), and results recovered from a prior
// interrupted run are returned as-is with their queries skipped.
// Entries are index-keyed, so a checkpoint resumes correctly under any
// worker count. A nil ck disables checkpointing; checkpoint write
// failures are survivable (counted in scadaver_checkpoint_errors_total,
// previous on-disk checkpoint stays valid, retried on the next write).
func (r *Runner) VerifyAllResumable(ctx context.Context, cfg *scadanet.Config, queries []Query, ck *Checkpoint) ([]Outcome, error) {
	outcomes := make([]Outcome, len(queries))
	done := make([]bool, len(queries))
	for n, raw := range ck.Entries() {
		var e campaignEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("checkpoint entry %d: %w", n, err)
		}
		if e.Index < 0 || e.Index >= len(queries) || e.Result == nil {
			return nil, fmt.Errorf("checkpoint entry %d: index %d out of range [0,%d)", n, e.Index, len(queries))
		}
		outcomes[e.Index].Result = e.Result
		done[e.Index] = true
	}
	metrics := r.probe().metrics
	err := r.runEach(ctx, dispatchOrder(queries, done), func(ctx context.Context) (func(i int) error, error) {
		task, err := r.verifyTask(ctx, cfg, queries, func(i int, res *Result) {
			outcomes[i].Result = res
			if cerr := ck.Add(campaignEntry{Index: i, Result: res}); cerr != nil {
				metrics.Inc("scadaver_checkpoint_errors_total", nil)
			}
		})
		if err != nil {
			return nil, err
		}
		return func(i int) error {
			if done[i] {
				return nil
			}
			return task(i)
		}, nil
	}, func(i int, err error) {
		outcomes[i].Err = err
	})
	return outcomes, err
}

// Run executes task(0) … task(n-1) on the worker pool, at most Workers
// at a time, and returns the first error (cancelling the rest). Tasks
// must be independent; they run on arbitrary workers in arbitrary
// order. Callers needing per-worker state (e.g. a private Analyzer
// reused across tasks) should use RunEach or VerifyAll.
func (r *Runner) Run(ctx context.Context, n int, task func(i int) error) error {
	return r.RunEach(ctx, n, func(context.Context) (func(i int) error, error) {
		return task, nil
	})
}

// RunEach is Run with per-worker setup: newTask runs once on each worker
// goroutine and returns that worker's task function, closing over any
// single-goroutine state (an Analyzer, a Sweep, scratch buffers). The
// context passed to newTask is cancelled as soon as any task errors or
// the caller's context is done — wire it into WithInterrupt (as
// VerifyAll does) to make in-flight solves abandonable.
func (r *Runner) RunEach(ctx context.Context, n int, newTask func(ctx context.Context) (func(i int) error, error)) error {
	return r.runEach(ctx, inputOrder(n), newTask, nil)
}

// runTask executes task(i) with panic isolation: a panic raised by the
// task — or injected before it by the fault plan — is recovered and
// converted into a *PanicError naming the task index, so one bad query
// (an encoder bug, a corrupted model) cannot tear down a campaign.
func runTask(task func(i int) error, faults *faultinject.Faults, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	faults.CheckTask(i)
	return task(i)
}

// runEach is the engine behind RunEach and the campaigns: it dispatches
// the task indices in order (a permutation of 0..n-1, n = len(order)).
// With collect == nil it is strict: the first task error records as the
// campaign error and cancels everything in flight. With a collect
// callback, task errors (panics included) are handed to collect(i, err)
// and the campaign keeps going; only worker construction failures and
// context cancellation surface as the returned error. collect is called
// from worker goroutines, one call per failed index — distinct indices,
// so index-sliced writes need no locking.
func (r *Runner) runEach(ctx context.Context, order []int, newTask func(ctx context.Context) (func(i int) error, error), collect func(i int, err error)) error {
	n := len(order)
	if n == 0 {
		return ctx.Err()
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	probe := r.probe()
	faults, metrics := probe.faults, probe.metrics

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task, err := newTask(ctx)
			if err != nil {
				fail(err)
				return
			}
			for i := range jobs {
				r.inflight.Add(1)
				err := runTask(task, faults, i)
				r.inflight.Add(-1)
				if err != nil {
					var pe *PanicError
					if errors.As(err, &pe) {
						metrics.Inc("scadaver_worker_panics_total", nil)
					}
					if collect == nil {
						fail(err)
						return
					}
					collect(i, err)
				}
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}

dispatch:
	for _, i := range order {
		// A select with both cases ready picks one at random, so a
		// cancelled context is checked before each send, not only
		// raced against it.
		if ctx.Err() != nil {
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
