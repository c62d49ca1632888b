package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scadaver/internal/powergrid"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

const configPath = "../../testdata/case5bus.scada"

func TestRunObservability(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-config", configPath, "-property", "observability"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "(1,1)-resilient observability: HOLDS") {
		t.Fatalf("output: %s", out)
	}
}

func TestRunSecuredWithThreats(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-config", configPath, "-property", "secured", "-enumerate", "10", "-stats"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "threat vectors") {
		t.Fatalf("output: %s", out)
	}
	if !strings.Contains(out, "solver:") {
		t.Fatalf("missing stats: %s", out)
	}
}

func TestRunOverrides(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-config", configPath, "-property", "obs", "-k1", "2", "-k2", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(2,1)-resilient observability: VIOLATED") {
		t.Fatalf("output: %s", sb.String())
	}

	sb.Reset()
	err = run([]string{"-config", configPath, "-property", "obs", "-k", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1-resilient observability") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunBadData(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-config", configPath, "-property", "baddata", "-r", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bad-data-detectability") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunMaxResiliency(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-config", configPath, "-max-resiliency"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "maximum resiliency: 3 IED-only failures, 1 RTU-only failures") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunLint(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-config", configPath, "-lint"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "no-integrity") || !strings.Contains(out, "single-point-rtu") {
		t.Fatalf("lint output: %s", out)
	}
}

func TestRunHarden(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-config", configPath, "-property", "secured", "-enumerate", "0", "-harden"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hardening plan: achieved") {
		t.Fatalf("harden output: %s", sb.String())
	}
}

// sweepVerdicts runs a -sweep campaign and returns its verdict lines
// with the trailing wall-time annotation stripped: only the verdict and
// vector must agree across pool sizes.
func sweepVerdicts(t *testing.T, args ...string) (string, []string) {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	var vs []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "-resilient") {
			if i := strings.LastIndex(line, " ("); i >= 0 {
				line = line[:i]
			}
			vs = append(vs, line)
		}
	}
	return sb.String(), vs
}

// TestRunSweep: the serial sweep and the parallel pool must print the
// same verdict lines, witness vectors included, on case5 and on a
// synthesized IEEE-57 configuration whose Sat budgets admit many
// minimal witnesses.
func TestRunSweep(t *testing.T) {
	serial, s := sweepVerdicts(t, "-config", configPath, "-property", "obs", "-sweep", "4", "-stats")
	parallel, p := sweepVerdicts(t, "-config", configPath, "-property", "obs", "-sweep", "4", "-workers", "4", "-stats")
	for _, out := range []string{serial, parallel} {
		if !strings.Contains(out, "0-resilient observability: HOLDS") ||
			!strings.Contains(out, "4-resilient observability: VIOLATED") {
			t.Fatalf("sweep output: %s", out)
		}
		if !strings.Contains(out, "solves=1") {
			t.Fatalf("missing per-solve stats: %s", out)
		}
	}
	if len(s) != 5 || strings.Join(s, "|") != strings.Join(p, "|") {
		t.Fatalf("case5 verdicts differ:\nserial:   %v\nparallel: %v", s, p)
	}

	// scada-synth -bus ieee57 -hierarchy 2 -seed 57007 (the CLI's
	// defaults for everything else).
	cfg, err := synth.Generate(synth.Params{
		Bus: powergrid.IEEE57(), Hierarchy: 2, MeasurementPercent: 100,
		SecureFraction: 0.8, Seed: 57007, K1: 1, K2: 1, R: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ieee57.scada")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := scadanet.WriteConfig(f, cfg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, s = sweepVerdicts(t, "-config", path, "-property", "obs", "-sweep", "5", "-workers", "1")
	_, p = sweepVerdicts(t, "-config", path, "-property", "obs", "-sweep", "5", "-workers", "2")
	if len(s) != 6 || strings.Join(s, "|") != strings.Join(p, "|") {
		t.Fatalf("ieee57 verdicts differ:\nserial:   %v\nparallel: %v", s, p)
	}
}

func TestRunSweepJSON(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-config", configPath, "-property", "obs", "-sweep", "2", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var results []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &results); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Fatal("missing -config must error")
	}
	if err := run([]string{"-config", "/nonexistent.scada"}, &sb); err == nil {
		t.Fatal("missing file must error")
	}
	if err := run([]string{"-config", configPath, "-property", "bogus"}, &sb); err == nil {
		t.Fatal("unknown property must error")
	}
}

// TestRunObservabilityOutputs drives the -trace/-metrics/-progress
// flags end to end: the trace file is valid JSONL with balanced spans,
// and the metrics file contains the query counter.
func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.prom")
	var sb strings.Builder
	err := run([]string{
		"-config", configPath, "-property", "secured",
		"-trace", tracePath, "-metrics", metricsPath,
		"-progress", "1", "-stats",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "phases:") {
		t.Fatalf("-stats output missing phase breakdown: %s", sb.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	begins, ends := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch rec["ev"] {
		case "begin":
			begins++
		case "end":
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("trace spans unbalanced: %d begins, %d ends", begins, ends)
	}

	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scadaver_queries_total", "scadaver_phase_seconds_bucket"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("metrics file missing %q:\n%s", want, prom)
		}
	}
}

// TestRunCertifyStatsPhases: on certified results the -stats phases line
// also reports the audit time, the logged proof size and the proof steps
// replayed to certify the verdict, for a single verification and for
// every line of a sweep. A violated (Sat) verdict rests on no proof and
// must replay none.
func TestRunCertifyStatsPhases(t *testing.T) {
	for _, args := range [][]string{
		{"-config", configPath, "-certify", "-stats"},
		{"-config", configPath, "-certify", "-stats", "-sweep", "2"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		phases := 0
		verdict := ""
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.Contains(line, "-resilient ") {
				verdict = line
			}
			if !strings.Contains(line, "phases:") {
				continue
			}
			phases++
			if !strings.Contains(line, " audit=") || !strings.Contains(line, "ms proof=") ||
				!strings.Contains(line, " replayed=") {
				t.Fatalf("%v: phases line lacks audit/proof/replayed: %q", args, line)
			}
			if strings.Contains(verdict, "VIOLATED") && !strings.HasSuffix(line, " replayed=0") {
				t.Fatalf("%v: violated verdict %q replayed proof steps: %q", args, verdict, line)
			}
		}
		if phases == 0 {
			t.Fatalf("%v: no phases line:\n%s", args, sb.String())
		}
	}
	var sb strings.Builder
	if err := run([]string{"-config", configPath, "-stats"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "audit=") {
		t.Fatalf("uncertified phases line reports an audit:\n%s", sb.String())
	}
}

// TestRunMetricsJSONAndSweepPhases covers the .json metrics branch and
// the per-phase lines of a -stats sweep.
func TestRunMetricsJSONAndSweepPhases(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	var sb strings.Builder
	err := run([]string{
		"-config", configPath, "-sweep", "2", "-stats", "-metrics", metricsPath,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "phases:"); n != 3 {
		t.Fatalf("want 3 phase lines for -sweep 2, got %d:\n%s", n, sb.String())
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	var queries float64
	for _, c := range snap.Counters {
		if c.Name == "scadaver_queries_total" {
			queries += c.Value
		}
	}
	if queries != 3 {
		t.Fatalf("metrics recorded %v queries, want 3", queries)
	}
}

// TestRunEnumerateCheckpoint drives the -checkpoint flag on threat
// enumeration end to end: the first run writes a resumable JSONL file,
// a second run resumes from it and reports the same vectors, and a
// checkpoint from a different campaign is rejected loudly.
func TestRunEnumerateCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	args := []string{"-config", configPath, "-property", "secured",
		"-enumerate", "10", "-checkpoint", path, "-deadline", "1h", "-retries", "1"}

	var first strings.Builder
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "threat vectors") {
		t.Fatalf("output: %s", first.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], `"kind":"enumerate"`) {
		t.Fatalf("checkpoint file:\n%s", raw)
	}

	var resumed strings.Builder
	if err := run(args, &resumed); err != nil {
		t.Fatal(err)
	}
	// Identical up to the per-run wall-time annotation on the verdict line.
	stripTimes := func(out string) string {
		var lines []string
		for _, line := range strings.Split(out, "\n") {
			if i := strings.LastIndex(line, " ("); i >= 0 && strings.HasSuffix(line, "ms)") {
				line = line[:i]
			}
			lines = append(lines, line)
		}
		return strings.Join(lines, "\n")
	}
	if stripTimes(first.String()) != stripTimes(resumed.String()) {
		t.Fatalf("resumed output differs:\nfirst:\n%s\nresumed:\n%s", first.String(), resumed.String())
	}

	// A header from a different campaign must be rejected before any work.
	bogus := `{"schema":"scadaver-checkpoint/1","kind":"enumerate","fingerprint":"deadbeef"}` + "\n"
	if err := os.WriteFile(path, []byte(bogus), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &resumed); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("foreign checkpoint accepted: err = %v", err)
	}
}

// TestRunSweepCheckpoint checks that a sweep checkpoint written by the
// serial path resumes under a parallel pool with identical verdicts.
func TestRunSweepCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	var serial strings.Builder
	if err := run([]string{"-config", configPath, "-property", "obs",
		"-sweep", "3", "-checkpoint", path}, &serial); err != nil {
		t.Fatal(err)
	}
	var resumed strings.Builder
	if err := run([]string{"-config", configPath, "-property", "obs",
		"-sweep", "3", "-workers", "4", "-checkpoint", path}, &resumed); err != nil {
		t.Fatal(err)
	}
	strip := func(out string) []string {
		var vs []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "-resilient") {
				if i := strings.LastIndex(line, " ("); i >= 0 {
					line = line[:i]
				}
				vs = append(vs, line)
			}
		}
		return vs
	}
	s, r := strip(serial.String()), strip(resumed.String())
	if len(s) != 4 || strings.Join(s, "|") != strings.Join(r, "|") {
		t.Fatalf("verdicts differ across resume:\nserial:  %v\nresumed: %v", s, r)
	}
}
