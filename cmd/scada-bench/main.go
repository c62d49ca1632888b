// Command scada-bench regenerates the paper's evaluation artifacts: one
// subcommand per figure of Section V plus the Section IV case study,
// and a parallel k-sweep campaign (-fig sweep) for measuring the
// worker-pool speedup.
//
// Usage:
//
//	scada-bench -fig 5a [-inputs 3] [-runs 5] [-workers N]
//	scada-bench -fig all
//	scada-bench -fig sweep [-bus ieee57] [-maxk 8] [-workers N]
//	scada-bench -fig mutate [-bus ieee57] [-steps 10]
//	scada-bench -record BENCH_pr2.json [-maxk 4]
//
// -record FILE runs the recorded benchmark campaign (boundary + k-sweep
// over IEEE 14/30/57) and writes the machine-readable per-figure wall
// time, solve time and solver conflicts to FILE, atomically (the file
// is replaced only once the campaign finished writing it). -trace,
// -metrics and -pprof mirror scada-analyzer's observability flags.
//
// Fault tolerance (see DESIGN.md §9): -deadline and -retries bound each
// individual verification, degrading exhausted queries to UNSOLVED rows
// instead of failing the campaign; -keep-going (default) isolates
// per-query errors in the sweep campaign; -checkpoint FILE makes -fig
// sweep resumable across interruptions.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scadaver/internal/atomicio"
	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/obs"
	"scadaver/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scada-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (retErr error) {
	fs := flag.NewFlagSet("scada-bench", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "all", "figure: 5a | 5b | 6a | 6b | 7a | 7b | case | all | sweep | mutate")
		inputs     = fs.Int("inputs", 3, "random inputs per point")
		runs       = fs.Int("runs", 5, "timed runs per input")
		workers    = fs.Int("workers", 0, "verification worker-pool size (0 = GOMAXPROCS)")
		bus        = fs.String("bus", "ieee57", "bus system for -fig sweep and -fig mutate")
		steps      = fs.Int("steps", 10, "random single-link deltas for -fig mutate")
		maxK       = fs.Int("maxk", 8, "largest failure budget for -fig sweep and -record")
		record     = fs.String("record", "", "run the recorded benchmark campaign and write BENCH JSON to this file")
		systems    = fs.String("systems", "", "for -record: comma-separated bus systems (empty = ieee14,ieee30,ieee57 plus an ieee118 boundary-only row)")
		traceFile  = fs.String("trace", "", "write a JSONL phase trace of every verification to this file")
		metricsOut = fs.String("metrics", "", "write campaign metrics to this file (.json extension = JSON, otherwise Prometheus text)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address while running")
		deadline   = fs.Duration("deadline", 0, "per-query wall-clock deadline; exhausted queries degrade to UNSOLVED (0 = none)")
		retries    = fs.Int("retries", 0, "extra attempts per query after a budget-exhausted solve, with escalating budgets")
		checkpoint = fs.String("checkpoint", "", "for -fig sweep: stream finished queries to this resumable checkpoint file")
		keepGoing  = fs.Bool("keep-going", true, "for -fig sweep: isolate per-query failures instead of aborting the campaign")
		presimp    = fs.Bool("presimplify", false, "preprocess each structural CNF before search (amortized via the encoding cache)")
		certify    = fs.Bool("certify", false, "certify every verdict (proof-logged solves, in-process DRAT checking, sat-model audits); the §R3 overhead ablation")
		watch      = fs.Duration("watch", 0, "print a live progress line per in-flight query to stderr every interval (0 = off)")
		showVer    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Fprintln(w, version.String())
		return nil
	}

	root, reg, closeObs, err := obs.Setup("scada-bench", *traceFile, *metricsOut, *pprofAddr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	opt := experiments.Options{
		Inputs: *inputs, Runs: *runs, Workers: *workers,
		Trace: root, Metrics: reg,
		Budget:      core.QueryBudget{Deadline: *deadline, Retries: *retries},
		Presimplify: *presimp, Certify: *certify,
	}
	if *watch > 0 {
		opt.Queries = obs.NewQueryRegistry(0, 0)
		stopWatch := obs.WatchProgress(os.Stderr, opt.Queries, *watch)
		defer stopWatch()
	}

	if *record != "" {
		opt.MaxK = *maxK
		if *systems != "" {
			opt.Systems = strings.Split(*systems, ",")
		}
		run, err := experiments.BenchRecord(opt)
		if err != nil {
			return err
		}
		if err := atomicio.WriteFile(*record, func(bw *bufio.Writer) error {
			return experiments.WriteBenchRun(bw, run)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "benchmark record (%d figures, %.2f ms total) written to %s\n",
			len(run.Figures), run.TotalWallMs, *record)
		return nil
	}

	want := func(name string) bool { return *fig == name || *fig == "all" }
	ran := false

	// Like the sweep, the mutation storm is a performance campaign, not
	// a paper figure, so "all" does not include it.
	if *fig == "mutate" {
		mr, err := experiments.MutationStorm(*bus, *steps, opt)
		if err != nil {
			return err
		}
		experiments.PrintMutationStorm(w, mr)
		return nil
	}

	// The sweep is a performance campaign, not a paper figure, so "all"
	// does not include it.
	if *fig == "sweep" {
		sr, err := experiments.KSweepCampaign(*bus, *maxK, *workers, *checkpoint, *keepGoing, opt.CoreOptions()...)
		if err != nil {
			return err
		}
		experiments.PrintSweep(w, sr)
		if n := sr.Failed(); n > 0 {
			return fmt.Errorf("%d of %d queries failed (results above are partial)", n, len(sr.Queries))
		}
		return nil
	}

	if want("case") {
		ran = true
		if err := experiments.CaseStudy(w); err != nil {
			return err
		}
	}
	if want("5a") {
		ran = true
		pts, err := experiments.Fig5(core.Observability, opt)
		if err != nil {
			return err
		}
		experiments.PrintScale(w, "Fig 5(a): k-resilient observability time vs bus size", pts)
	}
	if want("5b") {
		ran = true
		pts, err := experiments.Fig5(core.SecuredObservability, opt)
		if err != nil {
			return err
		}
		experiments.PrintScale(w, "Fig 5(b): k-resilient secured observability time vs bus size", pts)
	}
	if want("6a") {
		ran = true
		pts, err := experiments.Fig6("ieee14", core.Observability, opt)
		if err != nil {
			return err
		}
		experiments.PrintScale(w, "Fig 6(a): time vs hierarchy level (ieee14)", pts)
	}
	if want("6b") {
		ran = true
		pts, err := experiments.Fig6("ieee57", core.Observability, opt)
		if err != nil {
			return err
		}
		experiments.PrintScale(w, "Fig 6(b): time vs hierarchy level (ieee57)", pts)
	}
	if want("7a") {
		ran = true
		pts, err := experiments.Fig7a(opt)
		if err != nil {
			return err
		}
		experiments.PrintResiliency(w, pts)
	}
	if want("7b") {
		ran = true
		pts, err := experiments.Fig7b(opt)
		if err != nil {
			return err
		}
		experiments.PrintThreatSpace(w, pts)
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return nil
}
