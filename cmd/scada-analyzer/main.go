// Command scada-analyzer is the paper's SCADA Analyzer tool: it loads a
// SCADA configuration, verifies a resiliency specification, and reports
// either the certified resiliency (unsat) or the threat vectors that
// violate it (sat).
//
// Usage:
//
//	scada-analyzer -config system.scada [-property observability] \
//	    [-k1 1 -k2 1] [-k 2] [-r 1] [-enumerate 10] [-max-resiliency]
//	scada-analyzer -config system.scada -sweep 6 [-workers 4] [-stats]
//
// -sweep K verifies the property for every combined budget k = 0..K;
// with -workers 1 (the default) a single solver is reused across the
// sweep, rebuilding only the cardinality constraint per budget, while
// -workers N > 1 fans the budgets out over a pool of independent
// solvers. -stats prints per-solve SAT statistics (decisions,
// conflicts, propagations, learned clauses, solve time) and the
// per-phase time breakdown (build/encode/solve/decode).
//
// Observability (see internal/obs and the README's Observability
// section): -trace FILE writes a JSONL span trace of every
// verification, -metrics FILE exports counters and phase histograms
// (Prometheus text, or JSON for .json files), -pprof ADDR serves
// net/http/pprof while the run lasts, and -progress N adds solver
// progress events to the trace every N conflicts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"scadaver/internal/core"
	"scadaver/internal/hardening"
	"scadaver/internal/lint"
	"scadaver/internal/obs"
	"scadaver/internal/scadanet"
	"scadaver/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scada-analyzer:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("scada-analyzer", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "path to a .scada configuration (required; '-' for stdin)")
		property   = fs.String("property", "observability", "property: observability | secured | baddata")
		k1         = fs.Int("k1", -1, "IED failure budget (default: from config)")
		k2         = fs.Int("k2", -1, "RTU failure budget (default: from config)")
		k          = fs.Int("k", -1, "combined failure budget (overrides k1/k2)")
		r          = fs.Int("r", -1, "corrupted-measurement budget for baddata (default: from config)")
		enumerate  = fs.Int("enumerate", 10, "max threat vectors to enumerate when violated (0 = none)")
		maxRes     = fs.Bool("max-resiliency", false, "also report maximum IED-only and RTU-only resiliency")
		sweepK     = fs.Int("sweep", -1, "verify every combined budget k = 0..K (overrides -k/-k1/-k2)")
		workers    = fs.Int("workers", 1, "sweep pool size: 1 = serial, N > 1 = parallel pool, 0 = GOMAXPROCS")
		stats      = fs.Bool("stats", false, "print per-solve solver statistics")
		harden     = fs.Bool("harden", false, "when violated, synthesize a remediation plan")
		hardenOut  = fs.String("harden-out", "", "write the hardened configuration to this file")
		lintOnly   = fs.Bool("lint", false, "run the misconfiguration linter and exit")
		jsonOut    = fs.Bool("json", false, "emit the verification result as JSON")
		traceFile  = fs.String("trace", "", "write a JSONL phase trace of every verification to this file")
		metricsOut = fs.String("metrics", "", "write verification metrics to this file (.json extension = JSON, otherwise Prometheus text)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
		progress   = fs.Uint64("progress", 0, "solver progress cadence in conflicts: trace events with -trace, live counter updates with -watch (0 = default)")
		watch      = fs.Duration("watch", 0, "print a live progress line per in-flight query to stderr every interval (0 = off)")
		deadline   = fs.Duration("deadline", 0, "per-query wall-clock deadline; exhausted queries degrade to UNSOLVED (0 = none)")
		retries    = fs.Int("retries", 0, "extra attempts per query after a budget-exhausted solve, with escalating budgets")
		checkpoint = fs.String("checkpoint", "", "resumable checkpoint file for -sweep campaigns and threat enumeration")
		keepGoing  = fs.Bool("keep-going", true, "for parallel -sweep: isolate per-query failures instead of aborting the campaign")
		presimp    = fs.Bool("presimplify", false, "preprocess the CNF before search (unit propagation, subsumption, variable elimination)")
		certify    = fs.Bool("certify", false, "certify every verdict: proof-log the solve and check it in-process (DRAT), check sat models against the query formula, and quarantine+re-solve on divergence")
		mutateStr  = fs.String("mutate", "", "apply a mutation delta before verification (\"link-remove 7; device-down 3; key-rotate 4 256\"): the pre-mutation structure is verified first to warm the delta-aware encoding cache, then only the delta's dirty cone is re-encoded (see the delta/carried counters under -stats)")
		showVer    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Fprintln(out, version.String())
		return nil
	}
	if *configPath == "" {
		fs.Usage()
		return fmt.Errorf("-config is required")
	}

	in := os.Stdin
	if *configPath != "-" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	cfg, err := scadanet.ParseConfig(in)
	if err != nil {
		return err
	}

	if *lintOnly {
		rep := lint.Check(cfg, nil)
		fmt.Fprint(out, rep)
		if rep.HasErrors() {
			return fmt.Errorf("lint found configuration errors")
		}
		return nil
	}

	var prop core.Property
	switch *property {
	case "observability", "obs":
		prop = core.Observability
	case "secured", "secured-observability":
		prop = core.SecuredObservability
	case "baddata", "bad-data-detectability":
		prop = core.BadDataDetectability
	default:
		return fmt.Errorf("unknown property %q", *property)
	}

	q := core.Query{Property: prop, K1: cfg.K1, K2: cfg.K2, R: cfg.R}
	if *k1 >= 0 {
		q.K1 = *k1
	}
	if *k2 >= 0 {
		q.K2 = *k2
	}
	if *r >= 0 {
		q.R = *r
	}
	if *k >= 0 {
		q.Combined = true
		q.K = *k
	}

	root, reg, closeObs, err := obs.Setup("scada-analyzer", *traceFile, *metricsOut, *pprofAddr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	var opts []core.Option
	if root != nil {
		opts = append(opts, core.WithTrace(root))
	}
	if reg != nil {
		opts = append(opts, core.WithMetrics(reg))
	}
	if *progress > 0 {
		opts = append(opts, core.WithProgressEvery(*progress))
	}
	if *watch > 0 {
		qreg := obs.NewQueryRegistry(0, 0)
		opts = append(opts, core.WithQueryRegistry(qreg))
		stopWatch := obs.WatchProgress(os.Stderr, qreg, *watch)
		defer stopWatch()
	}
	budget := core.QueryBudget{Deadline: *deadline, Retries: *retries}
	if budget.Enabled() {
		opts = append(opts, core.WithBudget(budget))
	}
	// One encoding cache serves every query of the run, the pool's
	// workers included. -mutate makes it delta-aware, so the mutation
	// evolves warm snapshots in place instead of cold re-encoding the
	// mutated structure.
	dcache := core.NewEncodingCache()
	if *mutateStr != "" {
		dcache = core.NewEncodingCache(core.CacheWithDelta())
	}
	opts = append(opts, core.WithEncodingCache(dcache))
	if *presimp {
		opts = append(opts, core.WithPresimplify(true))
	}
	if *certify {
		opts = append(opts, core.WithCertification(true))
	}
	analyzer, err := core.NewAnalyzer(cfg, opts...)
	if err != nil {
		return err
	}

	if *mutateStr != "" {
		delta, err := scadanet.ParseDelta(*mutateStr)
		if err != nil {
			return err
		}
		next, dirty, err := cfg.Apply(delta)
		if err != nil {
			return err
		}
		// Warm the delta-aware cache on the pre-mutation structure, then
		// evolve it: the mutated verification below re-encodes only the
		// dirty cone and carries root learnts over.
		pre, err := analyzer.Verify(q)
		if err != nil {
			return err
		}
		ms, err := dcache.Mutate(cfg, next, opts...)
		if err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(out, "pre-mutation: %v\n", pre)
			fmt.Fprintf(out, "mutation: %d groups reused, %d re-encoded, %d learnts carried\n",
				ms.DeltaReuse, ms.DeltaReencoded, ms.CarriedLearnts)
			fmt.Fprintf(out, "delta: %s\n", delta)
			fmt.Fprintf(out, "dirty cone: devices=%v links=%v topology=%v\n",
				dirty.Devices, dirty.Links, dirty.Topology)
		}
		cfg = next
		if analyzer, err = core.NewAnalyzer(cfg, opts...); err != nil {
			return err
		}
	}

	if !*jsonOut {
		fmt.Fprintf(out, "system: %d states, %d measurements, %d IEDs, %d RTUs, %d links\n",
			cfg.Msrs.NStates, cfg.Msrs.Len(),
			len(cfg.Net.DevicesOfKind(scadanet.IED)),
			len(cfg.Net.DevicesOfKind(scadanet.RTU)),
			len(cfg.Net.Links()))
	}

	if *sweepK >= 0 {
		return runSweep(out, cfg, analyzer, prop, q.R, *sweepK, *workers, *stats, *jsonOut, *checkpoint, *keepGoing, opts)
	}

	res, err := analyzer.Verify(q)
	if err != nil {
		return err
	}
	var vectors []core.ThreatVector
	if !res.Resilient() && *enumerate > 0 {
		ck, err := openEnumerateCheckpoint(*checkpoint, cfg, q)
		if err != nil {
			return err
		}
		if vectors, err = analyzer.EnumerateThreatsResumable(q, *enumerate, ck); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Resilient bool                `json:"resilient"`
			Result    *core.Result        `json:"result"`
			Threats   []core.ThreatVector `json:"threats,omitempty"`
		}{res.Resilient(), res, vectors})
	}

	fmt.Fprintln(out, res)
	if *stats {
		fmt.Fprintln(out, "solver:", res.Stats)
		fmt.Fprintln(out, "phases:", phasesLine(res))
	}
	if vectors != nil {
		fmt.Fprintf(out, "threat vectors (%d):\n", len(vectors))
		for _, v := range vectors {
			fmt.Fprintf(out, "  %v\n", v)
		}
	}

	if !res.Resilient() && *harden {
		plan, err := hardening.Synthesize(cfg, q, hardening.Options{})
		if err != nil && !errors.Is(err, hardening.ErrNoProgress) {
			return err
		}
		fmt.Fprint(out, plan)
		if plan.Achieved && *hardenOut != "" {
			f, err := os.Create(*hardenOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := scadanet.WriteConfig(f, plan.Config); err != nil {
				return err
			}
			fmt.Fprintf(out, "hardened configuration written to %s\n", *hardenOut)
		}
	}

	if *maxRes {
		mi, err := analyzer.MaxResiliency(prop, q.R, true, false)
		if err != nil {
			return err
		}
		mr, err := analyzer.MaxResiliency(prop, q.R, false, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "maximum resiliency: %d IED-only failures, %d RTU-only failures\n", mi, mr)
	}
	return nil
}

// phasesLine renders a result's -stats phase breakdown. A certified
// result adds the certification audit time, the size of the logged
// derivation and the number of proof steps replayed into the checker to
// certify it (Result.Audit, Result.ProofClauses, Result.ProofReplayed),
// which lie outside the phases.
func phasesLine(res *core.Result) string {
	s := res.Phases.String()
	if res.Certified {
		s += fmt.Sprintf(" audit=%.2fms proof=%d replayed=%d",
			float64(res.Audit.Microseconds())/1000, res.ProofClauses, res.ProofReplayed)
	}
	return s
}

// openEnumerateCheckpoint opens (or disables, for an empty path) the
// threat-enumeration checkpoint, fingerprinted over the configuration
// and the query so a checkpoint from a different campaign is rejected.
func openEnumerateCheckpoint(path string, cfg *scadanet.Config, q core.Query) (*core.Checkpoint, error) {
	if path == "" {
		return nil, nil
	}
	fp, err := core.CampaignFingerprint(cfg, core.CheckpointKindEnumerate, q)
	if err != nil {
		return nil, err
	}
	return core.OpenCheckpoint(path, core.CheckpointKindEnumerate, fp)
}

// runSweep verifies the property under every combined budget k = 0..maxK.
// With one worker the budgets run serially (core.Sweep); with more, they
// fan out over a core.Runner pool. Every budget solves on its own clone
// of the same cached snapshot either way, so both report identical
// verdicts and witness vectors, share the same checkpoint format
// (entries keyed by k), and a checkpoint written under one worker count
// resumes under any other. In parallel keep-going mode (the default)
// per-query failures are isolated and reported at the end instead of
// aborting the campaign.
func runSweep(out io.Writer, cfg *scadanet.Config, analyzer *core.Analyzer, prop core.Property, r, maxK, workers int, stats, jsonOut bool, checkpointPath string, keepGoing bool, opts []core.Option) error {
	queries := make([]core.Query, 0, maxK+1)
	for k := 0; k <= maxK; k++ {
		queries = append(queries, core.Query{Property: prop, Combined: true, K: k, R: r})
	}

	var ck *core.Checkpoint
	if checkpointPath != "" {
		fp, err := core.CampaignFingerprint(cfg, core.CheckpointKindCampaign, queries)
		if err != nil {
			return err
		}
		if ck, err = core.OpenCheckpoint(checkpointPath, core.CheckpointKindCampaign, fp); err != nil {
			return err
		}
	}

	var results []*core.Result
	var errs []error
	if workers == 1 {
		sw, err := analyzer.NewSweep(prop, r, 0)
		if err != nil {
			return err
		}
		if results, err = sw.VerifyRange(maxK, ck); err != nil {
			return err
		}
	} else if keepGoing || ck != nil {
		outcomes, err := core.NewRunner(workers, opts...).VerifyAllResumable(context.Background(), cfg, queries, ck)
		if err != nil {
			return err
		}
		results = make([]*core.Result, len(outcomes))
		errs = make([]error, len(outcomes))
		for i, o := range outcomes {
			results[i], errs[i] = o.Result, o.Err
		}
	} else {
		var err error
		results, err = core.NewRunner(workers, opts...).VerifyAll(context.Background(), cfg, queries)
		if err != nil {
			return err
		}
	}

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	failed := 0
	for i, res := range results {
		if res == nil {
			failed++
			if len(errs) > i && errs[i] != nil {
				fmt.Fprintf(out, "%v: ERROR — %v\n", queries[i], errs[i])
			} else {
				fmt.Fprintf(out, "%v: no result\n", queries[i])
			}
			continue
		}
		fmt.Fprintln(out, res)
		if stats {
			fmt.Fprintln(out, "  solver:", res.Stats)
			fmt.Fprintln(out, "  phases:", phasesLine(res))
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sweep queries failed (results above are partial)", failed, len(queries))
	}
	return nil
}
