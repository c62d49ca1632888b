// Command scadaver-bench is the repository's benchmark: it drives four
// workloads through scadaver's public entry points, checks every verdict
// against an oracle that does not use the SAT path, and prints each
// end-to-end metric (or, with --trace 1, each per-layer metric) by name
// and unit. See README.md for the workloads, the metrics and how to
// compare two sets of runs.
//
//	scadaver-bench --workload NAME --seed N --seconds S --trace 0|1 [-out FILE] [-trace-out FILE]
//	scadaver-bench -compare BASE.jsonl OTHER.jsonl [MORE.jsonl ...]
//	scadaver-bench -record bench/testdata/expected.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the human-readable report goes
// to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scadaver-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "seed deriving the workload's inputs")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from an untraced and a traced half-run")
	out := fs.String("out", "", "append the run's record as one JSON line to `FILE`")
	traceOut := fs.String("trace-out", "", "write the traced half-run's spans as JSONL to `FILE` (with --trace 1)")
	compare := fs.Bool("compare", false, "compare record files (first is the base) against BENCHMARK.json's bounds instead of running")
	record := fs.String("record", "", "recompute the oracle's expected verdicts into `FILE` instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *compare:
		if err := compareRecords(stdout, "BENCHMARK.json", fs.Args()); err != nil {
			fmt.Fprintln(stderr, "scadaver-bench:", err)
			return 1
		}
		return 0
	case *record != "":
		if err := recordExpected(*record, fullScale(), stderr); err != nil {
			fmt.Fprintln(stderr, "scadaver-bench:", err)
			return 1
		}
		return 0
	}

	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "scadaver-bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "scadaver-bench: --seconds must be positive")
		return 2
	}
	opts := runOptions{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		scale:    fullScale(),
	}
	res, spans, err := runWorkload(opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "scadaver-bench:", err)
		return 1
	}
	if res.Attempted == 0 {
		fmt.Fprintln(stderr, "scadaver-bench: the run attempted no operation")
		return 1
	}
	if *traceOut != "" && spans != nil {
		if err := os.WriteFile(*traceOut, spans, 0o644); err != nil {
			fmt.Fprintln(stderr, "scadaver-bench: write trace:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecord(*out, runRecord{
			Workload: opts.workload, Seed: opts.seed, Seconds: *seconds, Trace: *trace,
			Host: currentHost(), Result: res,
		}); err != nil {
			fmt.Fprintln(stderr, "scadaver-bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "scadaver-bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the one-line JSON summary of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// host describes the machine a run measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentHost() host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// runRecord is one line of a -out file: a run's result with what it ran.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Host     host    `json:"host"`
	Result   result  `json:"result"`
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open record file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write record: %w", err)
	}
	return f.Close()
}

// printReport writes the metrics as an aligned table to w.
func printReport(w io.Writer, title string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
