// Package serve is the long-running verification service around the
// SCADA Analyzer: an HTTP/JSON API over named configurations with the
// robustness layers a service needs that a one-shot CLI does not —
// bounded admission (shed with 429, never unbounded goroutines),
// server-capped per-request budgets mapped onto core.QueryBudget, a
// fixed worker pool with per-request panic isolation, checkpoint-backed
// resumable enumeration streams, a breaker that turns /readyz unready
// when the rolling unsolved/panic rate says the service is degrading,
// and a graceful drain that finishes or deadline-cancels in-flight
// solves on shutdown. Overload degrades; it does not cascade.
//
// The request path is: admission (drain gate → breaker → bounded
// queue) → worker pool (core.Runner / core.Sweep / enumeration under
// *core.PanicError recovery) → response. See DESIGN.md §10.
package serve

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/faultinject"
	"scadaver/internal/obs"
	"scadaver/internal/scadanet"
)

// Options configures a Server. Configs is required; every other field
// has a serviceable default noted per field.
type Options struct {
	// Configs are the named SCADA configurations the service verifies;
	// requests select one by name. Each is validated at construction so
	// a bad config fails the boot, not the first request.
	Configs map[string]*scadanet.Config

	// QueueDepth bounds the admission queue (default 64). Requests
	// beyond depth are shed with 429 Retry-After.
	QueueDepth int
	// Workers is the fixed worker-pool size (default GOMAXPROCS).
	Workers int

	// DefaultBudget applies when a request carries no budget; it is
	// clamped by MaxBudget like any request budget (default: 10s
	// deadline, no retries).
	DefaultBudget core.QueryBudget
	// MaxBudget is the server-enforced budget ceiling: request budgets
	// are clamped to it, so a client can tighten but never loosen the
	// server's bounds (default: 30s deadline, 2 retries).
	MaxBudget core.QueryBudget
	// RequestTimeout bounds a whole request — queue wait included —
	// when its budget derives no deadline (default 60s).
	RequestTimeout time.Duration

	// MaxEnumerate caps the vectors one /v1/enumerate request may
	// stream (default 256).
	MaxEnumerate int
	// MaxSweepK caps the budget range of one /v1/sweep request
	// (default 64).
	MaxSweepK int
	// RetryAfter is the Retry-After hint attached to shed responses
	// (default 1s). The header value is this duration rounded up to
	// whole seconds plus up to 50% random jitter (also rounded up), so a
	// cohort of simultaneously-shed clients does not re-stampede the
	// queue on the very same second: with RetryAfter = 4s the header is
	// uniformly one of 4..6.
	RetryAfter time.Duration

	// MaxSubscribers caps concurrent GET /v1/subscribe streams per
	// configuration (default 64); a subscriber beyond the cap is shed
	// with 503 Retry-After.
	MaxSubscribers int
	// CacheEntries bounds the service-wide encoding cache (default 256
	// entries, LRU): the cache keeps at most this many distinct
	// (structure, options) snapshots, evicting the least recently used
	// and counting evictions in
	// scadaver_encoding_cache_evictions_total.
	CacheEntries int

	// QueryHistory bounds how many completed queries GET /v1/queries
	// retains (default obs.DefaultQueryHistory). Active queries are
	// bounded by the worker pool, so the introspection plane's memory
	// is fixed regardless of load.
	QueryHistory int
	// SLOThreshold arms latency SLO accounting: requests slower than
	// this increment scadaver_slo_breach_total{route}, and queries over
	// it are written to the slow-query log with their flight record
	// (and traced, when tracing is on). 0 disables both.
	SLOThreshold time.Duration

	// Breaker tuning; zero values select the defaults documented on
	// breakerOptions.
	BreakerWindow     int
	BreakerThreshold  float64
	BreakerMinSamples int
	BreakerCooldown   time.Duration

	// CheckpointDir enables resumable /v1/enumerate requests: a request
	// with a requestId journals its vectors to <dir>/<requestId>.ckpt
	// and a retry of the same requestId resumes instead of re-solving.
	// Empty disables checkpointing.
	CheckpointDir string

	// Metrics receives the service metrics (a fresh registry when nil);
	// it is also served at /metrics and /metrics.json.
	Metrics *obs.Registry
	// Faults threads a deterministic fault-injection plan through the
	// solvers, the checkpoint writer and the HTTP stream (chaos tests
	// only; nil injects nothing).
	Faults *faultinject.Faults
	// AnalyzerOptions are extra options for every analyzer the service
	// builds (policy, path bounds, tracing).
	AnalyzerOptions []core.Option
	// Presimplify preprocesses each structural CNF before search (unit
	// propagation, probing, subsumption, bounded variable elimination —
	// see core.WithPresimplify). With the shared encoding cache the cost
	// is paid once per distinct structure, not per request.
	Presimplify bool
	// Certify makes every verdict this service reports carry a
	// certification attestation (core.WithCertification): solves are
	// proof-logged and checked in-process, sat models are audited, and
	// diverging verdicts are quarantined and re-solved pristinely. The
	// attestation surfaces in the certified/proofClauses/auditMs fields
	// of /v1/verify and /v1/sweep responses.
	Certify bool
	// ErrorLog receives worker panics and drain progress (default:
	// the standard logger).
	ErrorLog *log.Logger

	// breakerNow overrides the breaker clock in tests.
	breakerNow func() time.Time
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if !o.DefaultBudget.Enabled() {
		o.DefaultBudget = core.QueryBudget{Deadline: 10 * time.Second}
	}
	if !o.MaxBudget.Enabled() {
		o.MaxBudget = core.QueryBudget{Deadline: 30 * time.Second, Retries: 2}
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxEnumerate <= 0 {
		o.MaxEnumerate = 256
	}
	if o.MaxSweepK <= 0 {
		o.MaxSweepK = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxSubscribers <= 0 {
		o.MaxSubscribers = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.ErrorLog == nil {
		o.ErrorLog = log.Default()
	}
	return o
}

// Server is the verification service. Construct with New, mount
// Handler on an http.Server, and call Drain exactly once on shutdown.
type Server struct {
	opts  Options
	reg   *obs.Registry
	q     *queue
	brk   *breaker
	mux   *http.ServeMux
	cache *core.EncodingCache

	// configs is the versioned configuration registry: one slot per
	// served name, each holding the atomically-published current version
	// and the mutation-event hub. The map itself is immutable after New;
	// PATCH swaps versions inside a slot.
	configs map[string]*servedConfig

	// queries is the live query registry behind GET /v1/queries and the
	// per-query flight recorders; every worker analyzer reports into it.
	queries *obs.QueryRegistry

	// baseCtx is the service lifetime; cancelBase deadline-cancels every
	// in-flight solve through the solver interrupt hook (forced drain).
	baseCtx    context.Context
	cancelBase context.CancelFunc

	quit      chan struct{} // stops idle workers once all jobs finished
	workersWG sync.WaitGroup

	// admitMu serializes admission against Drain: once draining is set
	// under the mutex, no new job can slip past the jobsWG.Wait.
	admitMu  sync.Mutex
	draining atomic.Bool
	jobsWG   sync.WaitGroup

	inflight atomic.Int64
	seq      atomic.Int64
}

// New validates the options and every named configuration, starts the
// worker pool, and returns the service ready to accept requests.
func New(opts Options) (*Server, error) {
	// Validate the caller's budgets before withDefaults, which replaces
	// a disabled budget — and a negative deadline reads as disabled — so
	// a nonsensical configuration fails loudly instead of silently
	// becoming the default.
	if err := opts.DefaultBudget.Validate(); err != nil {
		return nil, fmt.Errorf("serve: default budget: %w", err)
	}
	if err := opts.MaxBudget.Validate(); err != nil {
		return nil, fmt.Errorf("serve: max budget: %w", err)
	}
	opts = opts.withDefaults()
	if len(opts.Configs) == 0 {
		return nil, fmt.Errorf("serve: no configurations to serve")
	}
	for name, cfg := range opts.Configs {
		if _, err := core.NewAnalyzer(cfg, opts.AnalyzerOptions...); err != nil {
			return nil, fmt.Errorf("serve: config %q: %w", name, err)
		}
	}

	s := &Server{
		opts: opts,
		reg:  opts.Metrics,
		q:    newQueue(opts.QueueDepth, opts.Metrics),
		quit: make(chan struct{}),
	}
	// One service-wide cache: every worker clones ready solver snapshots
	// from it, so concurrent identical requests encode (and preprocess)
	// each structure exactly once — singleflight — instead of per
	// request. Delta-aware and bounded: mutations evolve snapshots in
	// place (DESIGN.md §16) instead of cold re-encoding, and the LRU cap
	// keeps a mutation-heavy service's memory fixed.
	s.cache = core.NewEncodingCache(
		core.CacheWithDelta(),
		core.CacheWithLimit(opts.CacheEntries),
		core.CacheWithMetrics(opts.Metrics),
	)
	s.configs = make(map[string]*servedConfig, len(opts.Configs))
	for name, cfg := range opts.Configs {
		sc := &servedConfig{name: name, hub: newMutationHub(name, opts.MaxSubscribers, opts.Metrics)}
		sc.cur.Store(&configVersion{cfg: cfg, version: 1})
		s.configs[name] = sc
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.brk = newBreaker(breakerOptions{
		Window:     opts.BreakerWindow,
		Threshold:  opts.BreakerThreshold,
		MinSamples: opts.BreakerMinSamples,
		Cooldown:   opts.BreakerCooldown,
		now:        opts.breakerNow,
	}, func(open bool) {
		v := 0.0
		if open {
			v = 1.0
		}
		s.reg.SetGauge("scadaver_breaker_open", nil, v)
	})
	s.reg.SetGauge("scadaver_breaker_open", nil, 0)
	s.reg.SetGauge("scadaver_queue_depth", nil, 0)
	s.reg.SetGauge("scadaver_inflight", nil, 0)
	obs.RecordBuildInfo(s.reg)

	s.queries = obs.NewQueryRegistry(opts.QueryHistory, 0)
	if t := opts.SLOThreshold; t > 0 {
		s.reg.SetGauge("scadaver_slo_threshold_seconds", nil, t.Seconds())
		s.queries.SetSlowQueryLog(t, func(snap obs.QuerySnapshot) {
			s.opts.ErrorLog.Printf(
				"serve: slow query id=%d property=%s budget=%s status=%s dur=%s attempts=%d conflicts=%d flight=[%s]",
				snap.ID, snap.Property, snap.Budget, snap.Status,
				time.Duration(snap.ElapsedNanos), snap.Attempt, snap.Conflicts,
				flightLine(snap.Events, snap.EventsDropped))
		})
	}

	s.mux = http.NewServeMux()
	s.routes()

	s.workersWG.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP handler: the /v1 verification
// API, health and readiness probes, metrics, and pprof.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/enumerate", s.handleEnumerate)
	s.mux.HandleFunc("PATCH /v1/configs/{name}", s.handlePatchConfig)
	// Subscribe bypasses admission like the introspection routes: a
	// watcher must be able to observe re-verification verdicts exactly
	// when the service is busy. It is bounded by MaxSubscribers instead.
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	// Introspection routes bypass admission: an operator must be able
	// to see what the service is doing precisely when it is overloaded.
	s.mux.HandleFunc("GET /v1/queries", s.handleQueries)
	s.mux.HandleFunc("GET /v1/queries/{id}/watch", s.handleQueryWatch)
	// Checkpoint transfer also bypasses admission: it is cheap journal
	// I/O, and a cluster handoff must be able to land a checkpoint on a
	// node precisely while the fleet is degraded.
	s.mux.HandleFunc("GET /v1/checkpoints/{id}", s.handleCheckpointExport)
	s.mux.HandleFunc("PUT /v1/checkpoints/{id}", s.handleCheckpointImport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.Handle("GET /metrics.json", s.reg.JSONHandler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Ready reports whether the service should receive traffic: not
// draining and the breaker not open.
func (s *Server) Ready() bool {
	return !s.draining.Load() && !s.brk.Open()
}

// Inflight reports how many requests are executing right now.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// QueueDepth reports the current admission-queue occupancy.
func (s *Server) QueueDepth() int { return s.q.depth() }

// Queries exposes the live query registry (never nil after New).
func (s *Server) Queries() *obs.QueryRegistry { return s.queries }

// analyzerOptions assembles the per-request analyzer options: the
// service-wide extras, metrics, the fault plan, and the derived budget.
func (s *Server) analyzerOptions(b core.QueryBudget) []core.Option {
	opts := append([]core.Option(nil), s.opts.AnalyzerOptions...)
	opts = append(opts, core.WithMetrics(s.reg), core.WithBudget(b),
		core.WithQueryRegistry(s.queries), core.WithEncodingCache(s.cache))
	if s.opts.Presimplify {
		opts = append(opts, core.WithPresimplify(true))
	}
	if s.opts.Certify {
		opts = append(opts, core.WithCertification(true))
	}
	if s.opts.Faults != nil {
		opts = append(opts, core.WithFaults(s.opts.Faults))
	}
	return opts
}

// deriveBudget maps a request's budget spec onto the server's bounds:
// an absent budget takes the default, and every budget — client or
// default — is clamped by the server ceiling.
func (s *Server) deriveBudget(b core.QueryBudget) (core.QueryBudget, error) {
	if err := b.Validate(); err != nil {
		return core.QueryBudget{}, err
	}
	if !b.Enabled() {
		b = s.opts.DefaultBudget
	}
	return b.Clamp(s.opts.MaxBudget), nil
}

// requestDeadline derives the whole-request deadline (queue wait
// included) from the effective budget: the sum of the escalating
// per-attempt deadlines plus a grace for non-solve work, falling back
// to RequestTimeout for unbounded budgets. perSolve > 1 scales the
// bound for multi-solve requests (sweeps, enumerations).
func (s *Server) requestDeadline(b core.QueryBudget, perSolve int) time.Duration {
	if b.Deadline <= 0 {
		return s.opts.RequestTimeout
	}
	esc := b.Escalate
	if esc <= 1 {
		esc = core.DefaultEscalation
	}
	total := time.Duration(0)
	d := b.Deadline
	for i := 0; i <= b.Retries; i++ {
		total += d
		d = time.Duration(float64(d) * esc)
	}
	if perSolve > 1 {
		total *= time.Duration(perSolve)
	}
	// Grace for queueing, encoding and the interrupt-poll latency of an
	// expiring solve.
	total += total/4 + 100*time.Millisecond
	if total > s.opts.RequestTimeout {
		total = s.opts.RequestTimeout
	}
	return total
}

// admit runs the admission pipeline for one request: drain gate, then
// breaker, then the bounded queue. On success the returned job is
// enqueued and its done channel will be closed by a worker; on shed the
// response (503 or 429 with Retry-After) has already been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, route string, deadline time.Duration, run func(ctx context.Context) error) (*job, context.CancelFunc, bool) {
	if s.draining.Load() {
		s.shed(w, route, http.StatusServiceUnavailable, "draining")
		return nil, nil, false
	}
	if !s.brk.Allow() {
		s.shed(w, route, http.StatusServiceUnavailable, "breaker")
		return nil, nil, false
	}

	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	stop := context.AfterFunc(s.baseCtx, cancel)
	release := func() { stop(); cancel() }

	j := &job{
		id:       s.seq.Add(1),
		route:    route,
		ctx:      ctx,
		run:      run,
		done:     make(chan struct{}),
		enqueued: time.Now(),
	}

	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		release()
		s.brk.Cancel()
		s.shed(w, route, http.StatusServiceUnavailable, "draining")
		return nil, nil, false
	}
	s.jobsWG.Add(1)
	s.admitMu.Unlock()

	if !s.q.tryEnqueue(j) {
		s.jobsWG.Done()
		release()
		s.brk.Cancel()
		s.shed(w, route, http.StatusTooManyRequests, "queue")
		return nil, nil, false
	}
	return j, release, true
}

// retryAfterSeconds derives one shed response's Retry-After value: the
// configured hint rounded up to seconds, plus up to 50% jitter. Without
// the jitter, every client shed by the same burst would retry on the
// same second and re-create the burst it was shed from.
func (s *Server) retryAfterSeconds() int {
	base := int((s.opts.RetryAfter + time.Second - 1) / time.Second)
	jitter := (base + 1) / 2
	return base + rand.IntN(jitter+1)
}

// shed rejects a request at admission with a jittered Retry-After hint
// and accounts for it; shed requests never reach the worker pool and
// never feed the breaker window.
func (s *Server) shed(w http.ResponseWriter, route string, code int, reason string) {
	s.reg.Inc("scadaver_shed_total", map[string]string{"reason": reason})
	s.reg.Inc("scadaver_http_requests_total", map[string]string{
		"route": route, "code": strconv.Itoa(code),
	})
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeJSONError(w, code, "overloaded: "+reason)
}

// worker is one pool goroutine: it executes admitted jobs until Drain
// closes quit (which only happens after every admitted job finished).
func (s *Server) worker() {
	defer s.workersWG.Done()
	for {
		j := s.q.dequeue(s.quit)
		if j == nil {
			return
		}
		s.execute(j)
	}
}

// execute runs one job with panic isolation and closes its done
// channel. A job whose context died while queued (client disconnect,
// deadline, drain) is skipped, not solved.
func (s *Server) execute(j *job) {
	defer s.jobsWG.Done()
	defer close(j.done)
	s.reg.ObserveDuration("scadaver_queue_wait_seconds",
		map[string]string{"route": j.route}, time.Since(j.enqueued))
	if err := j.ctx.Err(); err != nil {
		j.err = err
		return
	}
	s.reg.SetGauge("scadaver_inflight", nil, float64(s.inflight.Add(1)))
	defer func() {
		s.reg.SetGauge("scadaver_inflight", nil, float64(s.inflight.Add(-1)))
	}()
	j.err = s.isolated(j)
}

// isolated reuses the campaign panic-isolation contract: a panic in
// verification code becomes a *core.PanicError naming the request, the
// request gets a 500, and the service keeps serving.
func (s *Server) isolated(j *job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &core.PanicError{Index: int(j.id), Value: v, Stack: debug.Stack()}
			s.reg.Inc("scadaver_worker_panics_total", nil)
			s.opts.ErrorLog.Printf("serve: request %d (%s) panicked: %v", j.id, j.route, v)
		}
	}()
	return j.run(j.ctx)
}

// Drain gracefully shuts the service down: stop admitting (readyz
// unready, new requests shed with 503), let in-flight and queued jobs
// finish, and — if ctx expires first — deadline-cancel the remaining
// solves through the solver interrupt hook and wait for them to
// unwind. Safe to call once; returns ctx's error when the drain had to
// force-cancel. The HTTP listener itself is the caller's to close
// (http.Server.Shutdown), ideally after Drain marked the service
// unready.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	already := s.draining.Swap(true)
	s.admitMu.Unlock()
	if already {
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.opts.ErrorLog.Printf("serve: drain deadline reached; cancelling in-flight solves")
		s.cancelBase()
		<-done
	}
	s.cancelBase()
	close(s.quit)
	s.workersWG.Wait()
	return err
}
