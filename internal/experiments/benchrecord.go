package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/obs"
)

// BenchSchema versions the BENCH_pr2.json layout.
const BenchSchema = "scadaver-bench/2"

// BenchFigure is one benchmark campaign of a recorded run: its wall
// time, the time spent inside the SAT solve phase (from the campaign's
// metrics registry), the solver conflicts, and the number of queries
// answered. Solve time well below wall time means the run is dominated
// by encoding or orchestration, not search.
type BenchFigure struct {
	Figure    string  `json:"figure"` // e.g. "ksweep" or "boundary"
	System    string  `json:"system"` // bus system, e.g. "ieee57"
	Queries   float64 `json:"queries"`
	WallMs    float64 `json:"wallMs"`
	SolveMs   float64 `json:"solveMs"`
	Conflicts float64 `json:"conflicts"`
}

// BenchRun is the machine-readable record of one benchmark run,
// written by `make bench-record` to BENCH_pr2.json so successive
// commits can be compared number-by-number.
type BenchRun struct {
	Schema      string        `json:"schema"`
	Workers     int           `json:"workers"`
	Figures     []BenchFigure `json:"figures"`
	TotalWallMs float64       `json:"totalWallMs"`
}

// registryTotals folds a campaign's metrics registry into the record's
// summary numbers: total queries, solver conflicts, and seconds spent
// in the solve phase, summed over every label set.
func registryTotals(reg *obs.Registry) (queries, conflicts, solveSec float64) {
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		switch c.Name {
		case "scadaver_queries_total":
			queries += c.Value
		case "scadaver_solver_conflicts_total":
			conflicts += c.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "scadaver_phase_seconds" && h.Labels["phase"] == "solve" {
			solveSec += h.Sum
		}
	}
	return queries, conflicts, solveSec
}

// BenchRecord runs the recorded benchmark campaign: for every system
// (default IEEE 14/30/57), a resiliency-boundary campaign (the Fig. 5
// workload on one input) and the parallel k-sweep campaign, each
// instrumented through its own metrics registry; then a boundary-only
// row for each system in BoundaryOnly (default IEEE 118 — its boundary
// search is affordable, its full k-sweep is not).
// opt.Trace is threaded through so a recorded run can also produce a
// full phase trace. With opt.Certify, each system additionally gets a
// "ksweep-certify" row — the same k-sweep with verdict certification
// armed — while the base rows stay uncertified, so the certification
// overhead (EXPERIMENTS.md §R3) reads directly as
// ksweep-certify/ksweep and the base rows remain comparable to
// earlier uncertified records.
func BenchRecord(opt Options) (*BenchRun, error) {
	boundaryOnly := opt.BoundaryOnly
	if len(opt.Systems) == 0 {
		opt.Systems = []string{"ieee14", "ieee30", "ieee57"}
		if boundaryOnly == nil {
			boundaryOnly = []string{"ieee118"}
		}
	}
	certify := opt.Certify
	opt.Certify = false
	opt = opt.withDefaults()

	run := &BenchRun{Schema: BenchSchema, Workers: core.NewRunner(opt.Workers).Workers()}
	start := time.Now()
	boundary := func(sys string) error {
		// Boundary campaign: Fig. 5 timing methodology on one input.
		bOpt := opt
		bOpt.Systems = []string{sys}
		bOpt.Inputs = 1
		bOpt.Metrics = obs.NewRegistry()
		t0 := time.Now()
		if _, err := Fig5(core.Observability, bOpt); err != nil {
			return fmt.Errorf("boundary campaign %s: %w", sys, err)
		}
		run.Figures = append(run.Figures, benchFigure("boundary", sys, time.Since(t0), bOpt.Metrics))
		return nil
	}
	for _, sys := range opt.Systems {
		if err := boundary(sys); err != nil {
			return nil, err
		}

		// K-sweep campaign: the worker-pool reference workload.
		reg := obs.NewRegistry()
		kOpts := append(opt.CoreOptions(), core.WithMetrics(reg))
		sr, err := KSweep(sys, opt.MaxK, opt.Workers, kOpts...)
		if err != nil {
			return nil, fmt.Errorf("ksweep campaign %s: %w", sys, err)
		}
		fig := benchFigure("ksweep", sys, sr.Elapsed, reg)
		run.Figures = append(run.Figures, fig)
		if int(fig.Queries) != len(sr.Queries) {
			return nil, fmt.Errorf("ksweep %s: metrics recorded %v queries, campaign ran %d",
				sys, fig.Queries, len(sr.Queries))
		}

		if certify {
			// The certified twin of the k-sweep just recorded: identical
			// queries, every verdict proof-checked and audited.
			creg := obs.NewRegistry()
			cOpt := opt
			cOpt.Certify = true
			csr, err := KSweep(sys, opt.MaxK, opt.Workers, append(cOpt.CoreOptions(), core.WithMetrics(creg))...)
			if err != nil {
				return nil, fmt.Errorf("certified ksweep campaign %s: %w", sys, err)
			}
			for k, res := range csr.Results {
				if res == nil || sr.Results[k] == nil {
					continue
				}
				if res.Status != sr.Results[k].Status {
					return nil, fmt.Errorf("certified ksweep %s: query %d verdict %v diverges from uncertified %v",
						sys, k, res.Status, sr.Results[k].Status)
				}
				if !res.Certified {
					return nil, fmt.Errorf("certified ksweep %s: query %d uncertified: %s",
						sys, k, res.CertifyError)
				}
			}
			run.Figures = append(run.Figures, benchFigure("ksweep-certify", sys, csr.Elapsed, creg))
		}
	}
	for _, sys := range boundaryOnly {
		if err := boundary(sys); err != nil {
			return nil, err
		}
	}

	// Mutation-storm rows: the delta-aware re-verification headline.
	// Random single-link deltas on IEEE-57, re-verified incrementally
	// (mutate-incremental: the delta cache evolves warm snapshots) and
	// cold (mutate-cold: full re-encode per step); both legs' verdicts
	// are checked identical inside the campaign, and the wall-time ratio
	// is the optimization's recorded speedup.
	for _, sys := range opt.Systems {
		if sys != "ieee57" {
			continue
		}
		storm, err := MutationStorm(sys, 10, opt)
		if err != nil {
			return nil, fmt.Errorf("mutation storm %s: %w", sys, err)
		}
		run.Figures = append(run.Figures,
			benchFigure("mutate-incremental", sys, storm.Incremental, storm.IncReg),
			benchFigure("mutate-cold", sys, storm.Cold, storm.ColdReg))
	}
	run.TotalWallMs = ms(time.Since(start))
	return run, nil
}

func benchFigure(figure, system string, wall time.Duration, reg *obs.Registry) BenchFigure {
	queries, conflicts, solveSec := registryTotals(reg)
	return BenchFigure{
		Figure:    figure,
		System:    system,
		Queries:   queries,
		WallMs:    ms(wall),
		SolveMs:   solveSec * 1e3,
		Conflicts: conflicts,
	}
}

// WriteBenchRun renders the record as indented JSON.
func WriteBenchRun(w io.Writer, run *BenchRun) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(run)
}
