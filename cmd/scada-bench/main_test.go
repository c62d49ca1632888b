package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCase(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "case"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Case study", "Fig. 3", "Fig. 4", "threat space"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRun7a(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "7a", "-inputs", "1", "-runs", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig 7(a)") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunSweep(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "sweep", "-bus", "ieee14", "-maxk", "2", "-workers", "4"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"k-sweep campaign: ieee14", "4 workers", "campaign wall time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "9z"}, &sb); err == nil {
		t.Fatal("unknown figure must error")
	}
}

// TestRunMutateMetrics checks -metrics on the mutation storm: both legs
// and the delta cache record into the command's registry, so the file
// holds the campaign's query counter, not just the build info.
func TestRunMutateMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.prom")
	var sb strings.Builder
	if err := run([]string{"-fig", "mutate", "-bus", "ieee14", "-steps", "1", "-metrics", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mutation storm") {
		t.Fatalf("output: %s", sb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scadaver_queries_total", "scadaver_delta_reuse_total"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics file lacks %s:\n%s", want, raw)
		}
	}
}

// TestRunSweepTraced checks -trace on the sweep campaign writes a
// non-empty JSONL file whose every line parses.
func TestRunSweepTraced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var sb strings.Builder
	err := run([]string{"-fig", "sweep", "-bus", "ieee14", "-maxk", "1", "-trace", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has %d lines", len(lines))
	}
	queries := 0
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if rec["ev"] == "begin" && rec["name"] == "query" {
			queries++
		}
	}
	if queries == 0 {
		t.Fatal("no query spans in sweep trace")
	}
}

// TestRunSweepCheckpoint drives -fig sweep with a checkpoint file and
// checks the campaign resumes from it without re-verifying.
func TestRunSweepCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	var sb strings.Builder
	args := []string{"-fig", "sweep", "-bus", "ieee14", "-maxk", "1",
		"-checkpoint", path, "-deadline", "1h", "-retries", "1"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], `"kind":"campaign"`) {
		t.Fatalf("checkpoint file:\n%s", raw)
	}

	sb.Reset()
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "k-sweep campaign: ieee14") {
		t.Fatalf("resumed output: %s", sb.String())
	}
}
