package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/faultinject"
	"scadaver/internal/obs"
	"scadaver/internal/powergrid"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// queryDeadline bounds every verification: a query that hits it comes
// back Unsolved and counts as failed instead of hanging the run.
const queryDeadline = 60 * time.Second

// A run repeats its set-up at least setupReps times and until the
// repetitions add up to the scale's setupMin; setup_s is their median, so
// a set-up of a few milliseconds gets hundreds of samples. The serve
// workload's set-up includes a warm-up over HTTP of about a second, so it
// repeats serveSetupReps times.
const (
	setupReps      = 9
	serveSetupReps = 5
)

// pool is a fixed list of synthetic SCADA configurations over one bus
// system. Workloads draw their inputs from pools rather than from fresh
// synthetic seeds: every pool member has a recorded verdict in
// testdata/expected.json (IEEE-57 and IEEE-118 verdicts at k >= 2 are
// beyond exhaustive checking), and a run covers the whole pool, so runs
// with different seeds measure the same work in a different order.
type pool struct {
	bus       string
	hierarchy int
	secure    float64
	seeds     []int64
}

func seedRange(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}

// scale sizes every workload: fullScale is the benchmark, toyScale the
// smoke test's few-second version of it.
type scale struct {
	campaign pool
	maxK     int // campaign and certify sweep k = 0..maxK
	boundary pool
	certify  pool
	serve    pool // one configuration

	rate       float64       // serve: open-loop /v1/verify arrivals per second
	patchEvery time.Duration // serve: one PATCH this often
	setupMin   time.Duration // least total time of a run's set-up repetitions
}

// serveSaturationRPS is the /v1/verify rate at which serve-mutate's
// service saturated on a 2-vCPU host (p99 about 650 ms; 60 req/s still
// held p99 under 400 ms). The workload offers a quarter of it, a load at
// which requests rarely queue behind each other, so latency reflects the
// cost of a request rather than the depth of a backlog. The rate, the
// PATCH cadence and the query mix are assumptions, not taken from a
// recorded SCADA workload.
const serveSaturationRPS = 80

// fullScale reproduces the inputs of the recorded BENCH rows: the IEEE-57
// k-sweep configuration (synth seed 57007, hierarchy 2, 90% secured
// uplinks) and its 15 successors, and the Fig. 5 IEEE-118 boundary inputs
// (seed 118000 and up, fully secured).
func fullScale() scale {
	return scale{
		campaign:   pool{bus: "ieee57", hierarchy: 2, secure: 0.9, seeds: seedRange(57007, 16)},
		maxK:       4,
		boundary:   pool{bus: "ieee118", hierarchy: 2, secure: 1, seeds: seedRange(118000, 4)},
		certify:    pool{bus: "ieee57", hierarchy: 2, secure: 0.9, seeds: []int64{57007}},
		serve:      pool{bus: "ieee57", hierarchy: 2, secure: 0.9, seeds: []int64{57007}},
		rate:       serveSaturationRPS / 4,
		patchEvery: 750 * time.Millisecond,
		setupMin:   time.Second,
	}
}

func toyScale() scale {
	return scale{
		campaign:   pool{bus: "ieee14", hierarchy: 2, secure: 0.9, seeds: seedRange(14007, 2)},
		maxK:       1,
		boundary:   pool{bus: "ieee14", hierarchy: 1, secure: 1, seeds: []int64{14000}},
		certify:    pool{bus: "ieee14", hierarchy: 2, secure: 0.9, seeds: []int64{14007}},
		serve:      pool{bus: "ieee14", hierarchy: 2, secure: 0.9, seeds: []int64{14007}},
		rate:       5,
		patchEvery: 500 * time.Millisecond,
	}
}

// input is one configuration as the program receives it: parsed from the
// text a user would load. fp is the SHA-256 of its canonical text, the
// key of its recorded verdicts.
type input struct {
	name string
	cfg  *scadanet.Config
	fp   string
}

func fingerprint(cfg *scadanet.Config) (string, error) {
	var buf bytes.Buffer
	if err := scadanet.WriteConfig(&buf, cfg); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func newInput(name string, cfg *scadanet.Config) (*input, error) {
	fp, err := fingerprint(cfg)
	if err != nil {
		return nil, fmt.Errorf("fingerprint %s: %w", name, err)
	}
	return &input{name: name, cfg: cfg, fp: fp}, nil
}

// loadPool is the program-side set-up of a pool: generate each
// configuration, serialize it, and parse and validate it as the CLIs load
// a configuration file. It returns the parsed configurations and the time
// spent generating them.
func loadPool(p pool) ([]*scadanet.Config, time.Duration, error) {
	sys, err := powergrid.ByName(p.bus)
	if err != nil {
		return nil, 0, err
	}
	var gen time.Duration
	cfgs := make([]*scadanet.Config, 0, len(p.seeds))
	for _, s := range p.seeds {
		t0 := time.Now()
		cfg, err := synth.Generate(synth.Params{Bus: sys, Seed: s, Hierarchy: p.hierarchy, SecureFraction: p.secure})
		if err != nil {
			return nil, 0, fmt.Errorf("synth %s/%d: %w", p.bus, s, err)
		}
		gen += time.Since(t0)
		var text bytes.Buffer
		if err := scadanet.WriteConfig(&text, cfg); err != nil {
			return nil, 0, err
		}
		parsed, err := scadanet.ParseConfig(&text)
		if err != nil {
			return nil, 0, fmt.Errorf("parse %s/%d: %w", p.bus, s, err)
		}
		if _, err := core.NewAnalyzer(parsed); err != nil {
			return nil, 0, fmt.Errorf("load %s/%d: %w", p.bus, s, err)
		}
		cfgs = append(cfgs, parsed)
	}
	return cfgs, gen, nil
}

// inputs wraps a loaded pool's configurations with their names and
// fingerprints (bench-side bookkeeping, outside the timed set-up).
func inputs(p pool, cfgs []*scadanet.Config) ([]*input, error) {
	out := make([]*input, len(cfgs))
	for i, cfg := range cfgs {
		in, err := newInput(fmt.Sprintf("%s/%d", p.bus, p.seeds[i]), cfg)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// setupPool repeats loadPool (see setupReps), recording each repetition
// in m, and returns the last repetition's inputs.
func (e *env) setupPool(m *measurement, p pool) ([]*input, error) {
	var cfgs []*scadanet.Config
	for len(m.setup) < setupReps || sumDurations(m.setup) < e.scale.setupMin {
		runtime.GC()
		t0 := time.Now()
		var err error
		var gen time.Duration
		if cfgs, gen, err = loadPool(p); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0))
		m.generate = append(m.generate, gen)
	}
	return inputs(p, cfgs)
}

// runOptions selects and sizes one run.
type runOptions struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	scale    scale
	// faults is threaded into every analyzer and server; only the smoke
	// test sets it, to prove the oracle catches a corrupted verdict.
	faults *faultinject.Faults
}

// env is what every workload of a run shares.
type env struct {
	scale   scale
	seed    int64
	workers int
	faults  *faultinject.Faults
	oracle  *oracle
	log     io.Writer
}

// rng returns the workload's seeded random source: the same seed gives
// the same order of inputs, queries, arrivals and patches.
func (e *env) rng(workload string) *rand.Rand {
	h := sha256.Sum256([]byte(workload))
	var stream uint64
	for _, b := range h[:8] {
		stream = stream<<8 | uint64(b)
	}
	return rand.New(rand.NewPCG(uint64(e.seed), stream))
}

// coreOptions are the pinned analyzer settings of the in-process
// workloads: preprocessing on, a fresh plain encoding cache, portfolio
// off, metrics into reg, and the per-query deadline. span (nil = off)
// parents the analyzer's query spans.
func (e *env) coreOptions(reg *obs.Registry, span *obs.Span) []core.Option {
	return []core.Option{
		core.WithEncodingCache(core.NewEncodingCache()),
		core.WithPresimplify(true),
		core.WithMetrics(reg),
		core.WithBudget(core.QueryBudget{Deadline: queryDeadline}),
		core.WithTrace(span),
		core.WithFaults(e.faults),
	}
}

// workload runs one measured half: set-up, then whole passes over its
// inputs for about budget, then the oracle over every verdict it saw.
type workload struct {
	name string
	run  func(e *env, budget time.Duration, span *obs.Span) (*measurement, error)
}

var workloads = []workload{
	{"campaign-cold-ieee57", runCampaign},
	{"boundary-ieee118", runBoundary},
	{"certify-ieee57", runCertify},
	{"serve-mutate-ieee57", runServe},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload runs the selected workload and returns its result line and,
// for a traced run, the traced half's spans as JSONL.
func runWorkload(opts runOptions, log io.Writer) (result, []byte, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == opts.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return result{}, nil, fmt.Errorf("unknown workload %q (want one of %v)", opts.workload, workloadNames())
	}
	table, err := loadExpected()
	if err != nil {
		return result{}, nil, err
	}
	e := &env{
		scale:   opts.scale,
		seed:    opts.seed,
		workers: runtime.NumCPU(),
		faults:  opts.faults,
		oracle:  newOracle(table),
		log:     log,
	}
	h := currentHost()
	fmt.Fprintf(log, "# %s seed=%d budget=%v trace=%v nproc=%d gomaxprocs=%d %s\n",
		w.name, opts.seed, opts.budget, opts.traced, h.NProc, h.GOMAXPROCS, h.Go)

	if !opts.traced {
		m, err := w.run(e, opts.budget, nil)
		if err != nil {
			return result{}, nil, err
		}
		ms := endToEnd(m)
		printReport(log, "end-to-end", ms)
		m.report(log)
		fmt.Fprintln(log, " ", e.oracle.summary())
		return m.result(ms, e.oracle), nil, nil
	}

	untraced, err := w.run(e, opts.budget/2, nil)
	if err != nil {
		return result{}, nil, err
	}
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	root := tracer.Start("bench", obs.A("workload", w.name), obs.A("seed", opts.seed))
	traced, err := w.run(e, opts.budget/2, root)
	root.End()
	if err != nil {
		return result{}, nil, err
	}
	if err := tracer.Err(); err != nil {
		return result{}, nil, err
	}
	ms, err := perLayer(untraced, traced, buf.Bytes(), e.oracle)
	if err != nil {
		return result{}, nil, err
	}
	printReport(log, "per-layer", ms)
	untraced.report(log)
	traced.report(log)
	fmt.Fprintln(log, " ", e.oracle.summary())
	res := untraced.result(ms, e.oracle)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Correct && res.Failed == 0
	return res, buf.Bytes(), nil
}

// loopPasses runs whole passes until the next one would end more than
// half a pass past budget; at least one pass always runs. Whole passes
// keep the measured mix identical from run to run.
func loopPasses(m *measurement, budget time.Duration, pass func() error) error {
	start := time.Now()
	for {
		t0 := time.Now()
		if err := pass(); err != nil {
			return err
		}
		m.passes++
		if time.Since(start)+time.Since(t0)/2 >= budget {
			return nil
		}
	}
}

// seen is one verdict kept for the oracle, which runs after the window.
type seen struct {
	in  *input
	q   core.Query
	res *core.Result
}

func shuffled(qs []core.Query, rng *rand.Rand) []core.Query {
	out := append([]core.Query(nil), qs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runSweeps is the closed loop shared by campaign-cold and certify: per
// pass, every pool configuration in seeded order gets a fresh encoding
// cache and a core.Runner with one worker per CPU verifying the k-sweep
// (queries in seeded order).
func runSweeps(e *env, m *measurement, ins []*input, budget time.Duration, span *obs.Span, rng *rand.Rand, extra ...core.Option) error {
	reg := obs.NewRegistry()
	queries := experiments.SweepQueries(e.scale.maxK)
	var kept []seen
	m.begin(reg, nil, span)
	err := loopPasses(m, budget, func() error {
		for _, i := range rng.Perm(len(ins)) {
			in := ins[i]
			qs := shuffled(queries, rng)
			sp := span.Start("bench.verify_all", obs.A("config", in.name))
			r := core.NewRunner(e.workers, append(e.coreOptions(reg, sp), extra...)...)
			results, err := r.VerifyAll(context.Background(), in.cfg, qs)
			sp.End()
			for j, res := range results {
				m.attempted++
				if res == nil {
					m.fail(fmt.Errorf("%s %v: no result (%v)", in.name, qs[j], err))
					continue
				}
				m.verdict(in.name+" "+qs[j].String(), res.Duration, res)
				kept = append(kept, seen{in, qs[j], res})
			}
		}
		return nil
	})
	m.end()
	if err != nil {
		return err
	}
	for _, s := range kept {
		if err := e.oracle.verdict([]*input{s.in}, s.q, s.res); err != nil {
			m.fail(err)
		}
	}
	return nil
}

// runCampaign is campaign-cold-ieee57: every structure is new, so
// snapshot build, Simplify and fresh Tseitin/cardinality encoding carry
// the cost.
func runCampaign(e *env, budget time.Duration, span *obs.Span) (*measurement, error) {
	m := newMeasurement(e.workers)
	ins, err := e.setupPool(m, e.scale.campaign)
	if err != nil {
		return nil, err
	}
	return m, runSweeps(e, m, ins, budget, span, e.rng("campaign-cold-ieee57"))
}

// runCertify is certify-ieee57: the same sweep with every verdict
// proof-checked and audited.
func runCertify(e *env, budget time.Duration, span *obs.Span) (*measurement, error) {
	m := newMeasurement(e.workers)
	ins, err := e.setupPool(m, e.scale.certify)
	if err != nil {
		return nil, err
	}
	if err := runSweeps(e, m, ins, budget, span, e.rng("certify-ieee57"), core.WithCertification(true)); err != nil {
		return nil, err
	}
	for _, res := range m.results {
		if !res.Certified {
			m.fail(fmt.Errorf("%v: not certified: %s", res.Query, res.CertifyError))
		}
	}
	return m, nil
}

// runBoundary is boundary-ieee118, the paper's Fig. 5 measurement,
// serially: per configuration a fresh analyzer and cache,
// MaxResiliencyCombined, then Verify at k* (unsat) and k*+1 (sat). Each
// of the three calls is one timed verdict.
func runBoundary(e *env, budget time.Duration, span *obs.Span) (*measurement, error) {
	m := newMeasurement(1)
	ins, err := e.setupPool(m, e.scale.boundary)
	if err != nil {
		return nil, err
	}
	rng := e.rng("boundary-ieee118")
	reg := obs.NewRegistry()
	type boundary struct {
		in *input
		k  int
	}
	var kept []seen
	var found []boundary
	m.begin(reg, nil, span)
	err = loopPasses(m, budget, func() error {
		for _, i := range rng.Perm(len(ins)) {
			in := ins[i]
			sp := span.Start("bench.boundary", obs.A("config", in.name))
			a, err := core.NewAnalyzer(in.cfg, e.coreOptions(reg, sp)...)
			if err != nil {
				sp.End()
				return err
			}
			m.attempted++
			t0 := time.Now()
			k, err := a.MaxResiliencyCombined(core.Observability, in.cfg.R)
			if err != nil {
				sp.End()
				m.fail(fmt.Errorf("%s: max resiliency: %w", in.name, err))
				continue
			}
			m.verdict(in.name+" max-resiliency", time.Since(t0), nil)
			found = append(found, boundary{in, k})
			for _, kk := range []int{max(k, 0), k + 1} {
				q := core.Query{Property: core.Observability, Combined: true, K: kk, R: in.cfg.R}
				m.attempted++
				t0 := time.Now()
				res, err := a.Verify(q)
				if err != nil {
					m.fail(fmt.Errorf("%s %v: %w", in.name, q, err))
					continue
				}
				m.verdict(in.name+" "+q.String(), time.Since(t0), res)
				kept = append(kept, seen{in, q, res})
			}
			sp.End()
		}
		return nil
	})
	m.end()
	if err != nil {
		return nil, err
	}
	for _, b := range found {
		if err := e.oracle.boundary(b.in, core.Observability, b.k); err != nil {
			m.fail(err)
		}
	}
	for _, s := range kept {
		if err := e.oracle.verdict([]*input{s.in}, s.q, s.res); err != nil {
			m.fail(err)
		}
	}
	return m, nil
}

// medianDuration returns the median of ds (0 for none).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
