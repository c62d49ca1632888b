// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): scalability of the resiliency verification
// with problem size (Fig. 5a/5b), the impact of the hierarchy level on
// execution time (Fig. 6a/6b), maximum resiliency versus measurement
// density (Fig. 7a), and the threat-space size versus hierarchy
// (Fig. 7b), plus the Section IV case-study scenarios and a parallel
// k-sweep campaign used to measure the worker-pool speedup. It is
// shared by cmd/scada-bench and the repository's testing.B benchmarks.
//
// The figure campaigns fan their (point, input) grid out over a
// core.Runner worker pool: every grid cell generates its own synthetic
// configuration and analyzer (the solver ownership rule), writes only
// its own result slot, and the per-point averages are folded serially
// in index order afterwards, so the reported numbers are independent of
// scheduling. Verdicts and counts are bit-identical to a serial run;
// wall-clock timings of individual solves are measured per solve and
// stay meaningful under contention, though noisier.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/obs"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// Options tunes experiment effort. The paper uses at least 3 random
// inputs per point and at least 5 runs per input.
type Options struct {
	Inputs int // random inputs per point (default 3)
	Runs   int // timed runs per input (default 5)

	// Workers sizes the worker pool the campaigns fan out on; <= 0
	// selects runtime.GOMAXPROCS(0). Use 1 to reproduce the paper's
	// serial methodology with minimal timing noise.
	Workers int

	// Systems restricts Fig5 to a subset of the bus systems (default:
	// ieee14, ieee30, ieee57, ieee118).
	Systems []string
	// MaxHierarchy bounds the Fig6/Fig7b sweep (default 4).
	MaxHierarchy int
	// Percents restricts the Fig7a density sweep (default 50..100 by 10).
	Percents []float64

	// Trace, when set, is the parent span under which every campaign
	// verification records its query/phase spans (see internal/obs).
	Trace *obs.Span
	// Metrics, when set, aggregates counters and phase histograms from
	// every analyzer the campaign fans out, across all workers.
	Metrics *obs.Registry
	// Queries, when set, mirrors every campaign verification into the
	// live query registry (core.WithQueryRegistry) — the scada-bench
	// -watch mode renders progress lines from it.
	Queries *obs.QueryRegistry
	// Budget bounds every individual verification (per-attempt deadline,
	// conflict cap, retries with escalation); the zero value imposes no
	// bounds. Exhausted queries degrade to Unsolved results instead of
	// failing the campaign.
	Budget core.QueryBudget

	// Presimplify preprocesses each structural CNF before search
	// (core.WithPresimplify); combined with the encoding cache the cost
	// is paid once per structure.
	Presimplify bool
	// Certify arms verdict certification in every campaign analyzer
	// (core.WithCertification): proof-logged solves checked in-process,
	// audited sat models, quarantine on divergence. The §R3 overhead
	// ablation toggles this knob.
	Certify bool
	// Cache is the campaign's shared encoding cache; withDefaults
	// creates one, and all workers clone from it.
	Cache *core.EncodingCache
}

// CoreOptions translates the observability and robustness knobs into
// analyzer options to thread into every analyzer a campaign creates.
func (o Options) CoreOptions() []core.Option {
	var opts []core.Option
	if o.Trace != nil {
		opts = append(opts, core.WithTrace(o.Trace))
	}
	if o.Metrics != nil {
		opts = append(opts, core.WithMetrics(o.Metrics))
	}
	if o.Queries != nil {
		opts = append(opts, core.WithQueryRegistry(o.Queries))
	}
	if o.Budget.Enabled() {
		opts = append(opts, core.WithBudget(o.Budget))
	}
	if o.Cache != nil {
		opts = append(opts, core.WithEncodingCache(o.Cache))
	}
	if o.Presimplify {
		opts = append(opts, core.WithPresimplify(true))
	}
	if o.Certify {
		opts = append(opts, core.WithCertification(true))
	}
	return opts
}

func (o Options) withDefaults() Options {
	if o.Inputs <= 0 {
		o.Inputs = 3
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if len(o.Systems) == 0 {
		o.Systems = []string{"ieee14", "ieee30", "ieee57", "ieee118"}
	}
	if o.MaxHierarchy <= 0 {
		o.MaxHierarchy = 4
	}
	if len(o.Percents) == 0 {
		o.Percents = []float64{50, 60, 70, 80, 90, 100}
	}
	if o.Cache == nil {
		o.Cache = core.NewEncodingCache()
	}
	return o
}

// runGrid evaluates cell(point, input) for every pair on the options'
// worker pool. Cells are independent: each must write only its own
// pre-allocated slot. Aggregation belongs after runGrid returns, in
// index order, so campaign outputs do not depend on scheduling.
func runGrid(opt Options, points int, cell func(p, i int) error) error {
	r := core.NewRunner(opt.Workers)
	return r.Run(context.Background(), points*opt.Inputs, func(idx int) error {
		return cell(idx/opt.Inputs, idx%opt.Inputs)
	})
}

// ScalePoint is one x-position of a timing figure: average execution
// time and solver effort of the verification for satisfiable and
// unsatisfiable specifications at the resiliency boundary.
type ScalePoint struct {
	Label          string  // e.g. "ieee30" or "h=2"
	Buses          int     // problem size
	Devices        int     // IEDs + RTUs (averaged over inputs)
	BoundaryK      float64 // average maximum-resiliency k
	SatMillis      float64 // avg time of the sat query (k*+1)
	UnsatMillis    float64 // avg time of the unsat query (k*)
	SatConflicts   float64 // avg solver conflicts of the sat query
	UnsatConflicts float64 // avg solver conflicts of the unsat query
}

// timedVerify runs the query `runs` times and returns the average
// duration plus the (stable) status and per-solve solver statistics.
// The search is deterministic for a fixed encoding, so the stats of the
// last run stand for all of them.
func timedVerify(a *core.Analyzer, q core.Query, runs int) (time.Duration, sat.Status, sat.Stats, error) {
	var total time.Duration
	var status sat.Status
	var stats sat.Stats
	for i := 0; i < runs; i++ {
		res, err := a.Verify(q)
		if err != nil {
			return 0, sat.Unsolved, sat.Stats{}, err
		}
		total += res.Duration
		status = res.Status
		stats = res.Stats
	}
	return total / time.Duration(runs), status, stats, nil
}

// boundary is one instance's timed resiliency boundary: the unsat query
// at k* and the sat query at k*+1, with their per-solve solver stats.
type boundary struct {
	k                  int
	satMs, unsatMs     float64
	satConf, unsatConf uint64
}

// boundaryTimes finds the instance's resiliency boundary k* for the
// property (combined budget) and times the unsat query at k* and the sat
// query at k*+1 — the paper's sat/unsat series at a meaningful spec.
func boundaryTimes(cfg *scadanet.Config, prop core.Property, runs int, opts ...core.Option) (boundary, error) {
	a, err := core.NewAnalyzer(cfg, opts...)
	if err != nil {
		return boundary{}, err
	}
	kStar, err := a.MaxResiliencyCombined(prop, cfg.R)
	if err != nil {
		return boundary{}, err
	}
	unsatK := kStar
	if unsatK < 0 {
		// Even zero failures violate the property (e.g. weak security
		// profiles under secured observability); there is no unsat
		// query — time the k=0 sat query on both series.
		unsatK = 0
	}
	du, _, su, err := timedVerify(a, core.Query{Property: prop, Combined: true, K: unsatK, R: cfg.R}, runs)
	if err != nil {
		return boundary{}, err
	}
	ds, _, ss, err := timedVerify(a, core.Query{Property: prop, Combined: true, K: kStar + 1, R: cfg.R}, runs)
	if err != nil {
		return boundary{}, err
	}
	return boundary{k: kStar, satMs: ms(ds), unsatMs: ms(du), satConf: ss.Conflicts, unsatConf: su.Conflicts}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func deviceCount(cfg *scadanet.Config) int {
	return len(cfg.Net.DevicesOfKind(scadanet.IED)) + len(cfg.Net.DevicesOfKind(scadanet.RTU))
}

// Fig5 measures verification time versus problem size over the IEEE
// 14/30/57/118-bus systems — Fig. 5(a) with Observability, Fig. 5(b)
// with SecuredObservability.
func Fig5(prop core.Property, opt Options) ([]ScalePoint, error) {
	opt = opt.withDefaults()
	systems := make([]*powergrid.BusSystem, len(opt.Systems))
	for i, name := range opt.Systems {
		sys, err := powergrid.ByName(name)
		if err != nil {
			return nil, err
		}
		systems[i] = sys
	}

	type cell struct {
		devices int
		b       boundary
	}
	cells := make([]cell, len(systems)*opt.Inputs)
	err := runGrid(opt, len(systems), func(p, i int) error {
		sys := systems[p]
		cfg, err := synth.Generate(synth.Params{
			Bus:       sys,
			Seed:      int64(1000*sys.NBuses + i),
			Hierarchy: 2,
			// Fully secured uplinks keep the observability and
			// secured-observability boundaries aligned, so Fig. 5(a)
			// vs 5(b) isolates the model-size effect of the security
			// constraints, as in the paper.
			SecureFraction: 1,
		})
		if err != nil {
			return err
		}
		b, err := boundaryTimes(cfg, prop, opt.Runs, opt.CoreOptions()...)
		if err != nil {
			return err
		}
		cells[p*opt.Inputs+i] = cell{devices: deviceCount(cfg), b: b}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []ScalePoint
	for p, sys := range systems {
		pt := ScalePoint{Label: opt.Systems[p], Buses: sys.NBuses}
		for i := 0; i < opt.Inputs; i++ {
			c := cells[p*opt.Inputs+i]
			pt.Devices += c.devices
			pt.BoundaryK += float64(c.b.k)
			pt.SatMillis += c.b.satMs
			pt.UnsatMillis += c.b.unsatMs
			pt.SatConflicts += float64(c.b.satConf)
			pt.UnsatConflicts += float64(c.b.unsatConf)
		}
		n := float64(opt.Inputs)
		pt.Devices /= opt.Inputs
		pt.BoundaryK /= n
		pt.SatMillis /= n
		pt.UnsatMillis /= n
		pt.SatConflicts /= n
		pt.UnsatConflicts /= n
		out = append(out, pt)
	}
	return out, nil
}

// Fig6 measures verification time versus hierarchy level on one bus
// system — Fig. 6(a) uses ieee14, Fig. 6(b) ieee57. Following the
// paper's methodology, each random input is verified against fixed
// specifications (k = 1 and k = 2) and the measured times are bucketed
// by the query's outcome into the satisfiable and unsatisfiable series.
func Fig6(busName string, prop core.Property, opt Options) ([]ScalePoint, error) {
	opt = opt.withDefaults()
	sys, err := powergrid.ByName(busName)
	if err != nil {
		return nil, err
	}
	budgets := []int{0, 1, 2, 4}

	type probe struct {
		status    sat.Status
		millis    float64
		conflicts uint64
	}
	type cell struct {
		devices int
		probes  [4]probe
	}
	cells := make([]cell, opt.MaxHierarchy*opt.Inputs)
	err = runGrid(opt, opt.MaxHierarchy, func(p, i int) error {
		h := p + 1
		cfg, err := synth.Generate(synth.Params{
			Bus:            sys,
			Seed:           int64(100*h + i),
			Hierarchy:      h,
			SecureFraction: 0.9,
		})
		if err != nil {
			return err
		}
		a, err := core.NewAnalyzer(cfg, opt.CoreOptions()...)
		if err != nil {
			return err
		}
		c := cell{devices: deviceCount(cfg)}
		for j, k := range budgets {
			d, status, st, err := timedVerify(a, core.Query{Property: prop, Combined: true, K: k}, opt.Runs)
			if err != nil {
				return err
			}
			c.probes[j] = probe{status: status, millis: ms(d), conflicts: st.Conflicts}
		}
		cells[p*opt.Inputs+i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []ScalePoint
	for p := 0; p < opt.MaxHierarchy; p++ {
		pt := ScalePoint{Label: fmt.Sprintf("h=%d", p+1), Buses: sys.NBuses}
		satN, unsatN := 0, 0
		var kSum float64
		for i := 0; i < opt.Inputs; i++ {
			c := cells[p*opt.Inputs+i]
			pt.Devices += c.devices
			for j, pr := range c.probes {
				kSum += float64(budgets[j])
				switch pr.status {
				case sat.Sat:
					pt.SatMillis += pr.millis
					pt.SatConflicts += float64(pr.conflicts)
					satN++
				case sat.Unsat:
					pt.UnsatMillis += pr.millis
					pt.UnsatConflicts += float64(pr.conflicts)
					unsatN++
				}
			}
		}
		pt.Devices /= opt.Inputs
		pt.BoundaryK = kSum / float64(len(budgets)*opt.Inputs)
		if satN > 0 {
			pt.SatMillis /= float64(satN)
			pt.SatConflicts /= float64(satN)
		}
		if unsatN > 0 {
			pt.UnsatMillis /= float64(unsatN)
			pt.UnsatConflicts /= float64(unsatN)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ResiliencyPoint is one x-position of Fig. 7(a): maximum tolerable
// IED-only and RTU-only failures at a measurement density.
type ResiliencyPoint struct {
	Percent float64
	MaxIED  float64
	MaxRTU  float64
}

// Fig7a measures maximum resiliency versus measurement density on the
// 14-bus system.
func Fig7a(opt Options) ([]ResiliencyPoint, error) {
	opt = opt.withDefaults()
	sys := powergrid.IEEE14()

	type cell struct{ mi, mr int }
	cells := make([]cell, len(opt.Percents)*opt.Inputs)
	err := runGrid(opt, len(opt.Percents), func(p, i int) error {
		pct := opt.Percents[p]
		cfg, err := synth.Generate(synth.Params{
			Bus:                sys,
			Seed:               int64(10*pct) + int64(i),
			Hierarchy:          1,
			MeasurementPercent: pct,
			SecureFraction:     1,
		})
		if err != nil {
			return err
		}
		a, err := core.NewAnalyzer(cfg, opt.CoreOptions()...)
		if err != nil {
			return err
		}
		mi, err := a.MaxResiliency(core.Observability, 0, true, false)
		if err != nil {
			return err
		}
		mr, err := a.MaxResiliency(core.Observability, 0, false, true)
		if err != nil {
			return err
		}
		cells[p*opt.Inputs+i] = cell{mi: mi, mr: mr}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []ResiliencyPoint
	for p, pct := range opt.Percents {
		pt := ResiliencyPoint{Percent: pct}
		for i := 0; i < opt.Inputs; i++ {
			c := cells[p*opt.Inputs+i]
			pt.MaxIED += float64(c.mi)
			pt.MaxRTU += float64(c.mr)
		}
		pt.MaxIED /= float64(opt.Inputs)
		pt.MaxRTU /= float64(opt.Inputs)
		out = append(out, pt)
	}
	return out, nil
}

// ThreatSpacePoint is one x-position of Fig. 7(b): the number of
// distinct minimal threat vectors per hierarchy level, for several
// resiliency specifications.
type ThreatSpacePoint struct {
	Hierarchy int
	// Vectors maps a spec label like "(1,1)" to the averaged count.
	Vectors map[string]float64
}

// ThreatEnumerationCap bounds threat-space counting.
const ThreatEnumerationCap = 500

// Fig7b measures the threat-space size versus hierarchy on the 14-bus
// system for the specs (1,1), (2,1) and (2,2).
func Fig7b(opt Options) ([]ThreatSpacePoint, error) {
	opt = opt.withDefaults()
	sys := powergrid.IEEE14()
	specs := []struct {
		label  string
		k1, k2 int
	}{
		{"(1,1)", 1, 1},
		{"(2,1)", 2, 1},
		{"(2,2)", 2, 2},
	}

	cells := make([][3]int, opt.MaxHierarchy*opt.Inputs)
	err := runGrid(opt, opt.MaxHierarchy, func(p, i int) error {
		h := p + 1
		cfg, err := synth.Generate(synth.Params{
			Bus:            sys,
			Seed:           int64(7000 + 10*h + i),
			Hierarchy:      h,
			SecureFraction: 1,
		})
		if err != nil {
			return err
		}
		a, err := core.NewAnalyzer(cfg, opt.CoreOptions()...)
		if err != nil {
			return err
		}
		for j, s := range specs {
			n, err := a.CountThreats(core.Query{Property: core.Observability, K1: s.k1, K2: s.k2}, ThreatEnumerationCap)
			if err != nil {
				return err
			}
			cells[p*opt.Inputs+i][j] = n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []ThreatSpacePoint
	for p := 0; p < opt.MaxHierarchy; p++ {
		pt := ThreatSpacePoint{Hierarchy: p + 1, Vectors: map[string]float64{}}
		for i := 0; i < opt.Inputs; i++ {
			for j, s := range specs {
				pt.Vectors[s.label] += float64(cells[p*opt.Inputs+i][j])
			}
		}
		for k := range pt.Vectors {
			pt.Vectors[k] /= float64(opt.Inputs)
		}
		out = append(out, pt)
	}
	return out, nil
}

// SweepResult is the outcome of the parallel k-sweep campaign: one
// result, with per-solve solver statistics, for every query of a budget
// sweep over one synthetic topology, plus the campaign wall time. The
// campaign is the repository's reference workload for measuring the
// worker-pool speedup (EXPERIMENTS.md).
type SweepResult struct {
	System  string
	Workers int
	Queries []core.Query
	Results []*core.Result
	// Errors holds, per query index, the isolated failure (worker
	// panic, verification error) that prevented a result in a
	// keep-going campaign; nil entries mean the query finished.
	Errors  []error
	Elapsed time.Duration
}

// Failed counts the queries that produced an isolated error instead of
// a result.
func (sr *SweepResult) Failed() int {
	n := 0
	for _, err := range sr.Errors {
		if err != nil {
			n++
		}
	}
	return n
}

// SweepQueries builds the k-sweep campaign: every property of the
// paper under a combined failure budget k = 0..maxK (bad-data
// detectability with r = 1), plus a split-budget observability series.
func SweepQueries(maxK int) []core.Query {
	var qs []core.Query
	for k := 0; k <= maxK; k++ {
		qs = append(qs,
			core.Query{Property: core.Observability, Combined: true, K: k},
			core.Query{Property: core.SecuredObservability, Combined: true, K: k},
			core.Query{Property: core.BadDataDetectability, Combined: true, K: k, R: 1},
			core.Query{Property: core.Observability, K1: k, K2: 1},
		)
	}
	return qs
}

// KSweepCampaign runs the k-sweep campaign (k = 0..maxK) over a
// synthetic SCADA configuration of the named bus system on a pool of
// `workers` verification goroutines (<= 0 selects GOMAXPROCS). Verdicts
// and vectors are identical for every pool size; only Elapsed changes.
// Extra analyzer options (core.WithTrace, core.WithMetrics, ...) are
// threaded into every worker. With keepGoing, per-query failures (worker
// panics included) are isolated into SweepResult.Errors instead of
// aborting the sweep. With a non-empty checkpointPath, finished results
// stream to a resumable checkpoint bound to the campaign's fingerprint
// (configuration + query list): re-running with the same arguments
// skips completed queries, and a checkpoint from a different campaign
// is rejected with core.ErrCheckpointMismatch. A checkpoint implies
// keep-going: a campaign worth checkpointing is worth finishing.
func KSweepCampaign(busName string, maxK, workers int, checkpointPath string, keepGoing bool, opts ...core.Option) (*SweepResult, error) {
	sys, err := powergrid.ByName(busName)
	if err != nil {
		return nil, err
	}
	cfg, err := synth.Generate(synth.Params{
		Bus:            sys,
		Seed:           int64(1000*sys.NBuses + 7),
		Hierarchy:      2,
		SecureFraction: 0.9,
	})
	if err != nil {
		return nil, err
	}
	// The workers share one encoding cache, so each snapshot is built
	// once; a core.WithEncodingCache among opts replaces it.
	opts = append([]core.Option{core.WithEncodingCache(core.NewEncodingCache())}, opts...)
	r := core.NewRunner(workers, opts...)
	queries := SweepQueries(maxK)

	var ck *core.Checkpoint
	if checkpointPath != "" {
		fp, err := core.CampaignFingerprint(cfg, core.CheckpointKindCampaign, queries)
		if err != nil {
			return nil, err
		}
		if ck, err = core.OpenCheckpoint(checkpointPath, core.CheckpointKindCampaign, fp); err != nil {
			return nil, err
		}
		keepGoing = true
	}

	start := time.Now()
	sr := &SweepResult{
		System:  busName,
		Workers: r.Workers(),
		Queries: queries,
	}
	if keepGoing {
		outcomes, err := r.VerifyAllResumable(context.Background(), cfg, queries, ck)
		if err != nil {
			return nil, err
		}
		sr.Results = make([]*core.Result, len(queries))
		sr.Errors = make([]error, len(queries))
		for i, o := range outcomes {
			sr.Results[i], sr.Errors[i] = o.Result, o.Err
		}
	} else {
		if sr.Results, err = r.VerifyAll(context.Background(), cfg, queries); err != nil {
			return nil, err
		}
	}
	sr.Elapsed = time.Since(start)
	return sr, nil
}

// PrintSweep renders the per-query instrumentation rows of a k-sweep
// campaign and its total wall time.
func PrintSweep(w io.Writer, sr *SweepResult) {
	fmt.Fprintf(w, "# k-sweep campaign: %s, %d queries, %d workers\n",
		sr.System, len(sr.Queries), sr.Workers)
	fmt.Fprintf(w, "%-42s %-6s %10s %10s %10s %12s %10s\n",
		"query", "status", "time(ms)", "decisions", "conflicts", "propagations", "learned")
	for i, res := range sr.Results {
		if res == nil {
			if len(sr.Errors) > i && sr.Errors[i] != nil {
				fmt.Fprintf(w, "%-42s %-6s %v\n", sr.Queries[i], "ERROR", sr.Errors[i])
			} else {
				fmt.Fprintf(w, "%-42s %-6s\n", sr.Queries[i], "-")
			}
			continue
		}
		fmt.Fprintf(w, "%-42s %-6v %10.2f %10d %10d %12d %10d\n",
			res.Query, res.Status, ms(res.Duration),
			res.Stats.Decisions, res.Stats.Conflicts,
			res.Stats.Propagations, res.Stats.Learned)
	}
	fmt.Fprintf(w, "campaign wall time: %.2f ms\n", ms(sr.Elapsed))
}

// PrintScale renders a Fig. 5/6 series as the paper's table rows.
func PrintScale(w io.Writer, title string, pts []ScalePoint) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-10s %6s %8s %10s %12s %12s %10s %10s\n",
		"point", "buses", "devices", "boundary-k", "sat(ms)", "unsat(ms)", "sat-conf", "unsat-conf")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %6d %8d %10.1f %12.2f %12.2f %10.1f %10.1f\n",
			p.Label, p.Buses, p.Devices, p.BoundaryK, p.SatMillis, p.UnsatMillis,
			p.SatConflicts, p.UnsatConflicts)
	}
}

// PrintResiliency renders Fig. 7(a) rows.
func PrintResiliency(w io.Writer, pts []ResiliencyPoint) {
	fmt.Fprintln(w, "# Fig 7(a): maximum resiliency vs measurement density (ieee14)")
	fmt.Fprintf(w, "%-10s %10s %10s\n", "percent", "max-IED", "max-RTU")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10.0f %10.1f %10.1f\n", p.Percent, p.MaxIED, p.MaxRTU)
	}
}

// PrintThreatSpace renders Fig. 7(b) rows.
func PrintThreatSpace(w io.Writer, pts []ThreatSpacePoint) {
	fmt.Fprintln(w, "# Fig 7(b): threat-space size vs hierarchy level (ieee14)")
	fmt.Fprintf(w, "%-10s %10s %10s %10s\n", "hierarchy", "(1,1)", "(2,1)", "(2,2)")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10d %10.1f %10.1f %10.1f\n",
			p.Hierarchy, p.Vectors["(1,1)"], p.Vectors["(2,1)"], p.Vectors["(2,2)"])
	}
}

// CaseStudy runs the Section IV scenarios end to end and prints the
// paper-comparable outcomes. It is deliberately serial: the scenarios
// are few, cheap, and their narrative output order matters.
func CaseStudy(w io.Writer) error {
	for _, fig4 := range []bool{false, true} {
		topo := "Fig. 3"
		if fig4 {
			topo = "Fig. 4"
		}
		cfg, err := scadanet.CaseStudyConfig(fig4)
		if err != nil {
			return err
		}
		a, err := core.NewAnalyzer(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Case study, topology %s\n", topo)
		queries := []core.Query{
			{Property: core.Observability, K1: 1, K2: 1},
			{Property: core.Observability, K1: 2, K2: 1},
			{Property: core.SecuredObservability, K1: 1, K2: 1},
			{Property: core.SecuredObservability, K1: 1, K2: 0},
			{Property: core.SecuredObservability, K1: 0, K2: 1},
		}
		for _, q := range queries {
			res, err := a.Verify(q)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %v\n", res)
			if res.Status == sat.Sat {
				vs, err := a.EnumerateThreats(q, 20)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "    threat space: %d vectors: %v\n", len(vs), vs)
			}
		}
		mi, err := a.MaxResiliency(core.Observability, 0, true, false)
		if err != nil {
			return err
		}
		mr, err := a.MaxResiliency(core.Observability, 0, false, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  maximum observability resiliency: (%d IED-only, %d RTU-only)\n", mi, mr)
	}
	return nil
}
