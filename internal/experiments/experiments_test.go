package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"scadaver/internal/core"
	"scadaver/internal/obs"
)

var fastOpt = Options{
	Inputs:       1,
	Runs:         1,
	Systems:      []string{"ieee14", "ieee30"},
	MaxHierarchy: 2,
	Percents:     []float64{60, 100},
}

func TestFig5Observability(t *testing.T) {
	pts, err := Fig5(core.Observability, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.SatMillis <= 0 || p.UnsatMillis <= 0 {
			t.Fatalf("%s: non-positive timings %+v", p.Label, p)
		}
		if p.Devices <= 0 {
			t.Fatalf("%s: no devices", p.Label)
		}
	}
	// Problem size must grow with the bus count.
	if pts[1].Devices <= pts[0].Devices {
		t.Fatalf("devices did not grow: %+v", pts)
	}
	var sb strings.Builder
	PrintScale(&sb, "test", pts)
	if !strings.Contains(sb.String(), "ieee30") {
		t.Fatalf("PrintScale output: %q", sb.String())
	}
}

func TestFig5Secured(t *testing.T) {
	pts, err := Fig5(core.SecuredObservability, Options{
		Inputs: 1, Runs: 1, Systems: []string{"ieee14"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].SatMillis <= 0 {
		t.Fatalf("pts = %+v", pts)
	}
}

func TestFig6(t *testing.T) {
	pts, err := Fig6("ieee14", core.Observability, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		// Every point must have timed at least one outcome class.
		if p.SatMillis <= 0 && p.UnsatMillis <= 0 {
			t.Fatalf("%+v", p)
		}
	}
	if _, err := Fig6("nope", core.Observability, fastOpt); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestFig7a(t *testing.T) {
	pts, err := Fig7a(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// The paper's shape: more measurements, at least as much resiliency
	// (allowing sampling noise of one unit).
	if pts[1].MaxIED+1 < pts[0].MaxIED {
		t.Fatalf("max IED resiliency fell sharply with density: %+v", pts)
	}
	// IED tolerance exceeds RTU tolerance (RTUs aggregate many IEDs).
	last := pts[len(pts)-1]
	if last.MaxIED < last.MaxRTU {
		t.Fatalf("expected IED tolerance >= RTU tolerance, got %+v", last)
	}
	var sb strings.Builder
	PrintResiliency(&sb, pts)
	if !strings.Contains(sb.String(), "max-IED") {
		t.Fatal("PrintResiliency output missing header")
	}
}

func TestFig7b(t *testing.T) {
	pts, err := Fig7b(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		// Larger specs can only enlarge the threat space.
		if p.Vectors["(2,1)"] < p.Vectors["(1,1)"] {
			t.Fatalf("threat space shrank with larger spec: %+v", p)
		}
		if p.Vectors["(2,2)"] < p.Vectors["(2,1)"] {
			t.Fatalf("threat space shrank with larger spec: %+v", p)
		}
	}
	var sb strings.Builder
	PrintThreatSpace(&sb, pts)
	if !strings.Contains(sb.String(), "hierarchy") {
		t.Fatal("PrintThreatSpace output missing header")
	}
}

// TestKSweepDeterministicAcrossWorkers pins the campaign contract: the
// verdicts and threat vectors of a k-sweep are identical whatever the
// pool size.
func TestKSweepDeterministicAcrossWorkers(t *testing.T) {
	serial, err := KSweepCampaign("ieee14", 2, 1, "", false)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := KSweepCampaign("ieee14", 2, 8, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != len(parallel.Results) || len(serial.Results) == 0 {
		t.Fatalf("result counts: serial %d, parallel %d", len(serial.Results), len(parallel.Results))
	}
	for i := range serial.Results {
		s, p := serial.Results[i], parallel.Results[i]
		if s == nil || p == nil {
			t.Fatalf("query %d: nil result (serial=%v parallel=%v)", i, s, p)
		}
		if s.Status != p.Status {
			t.Fatalf("query %v: serial %v, parallel %v", serial.Queries[i], s.Status, p.Status)
		}
		if fmt.Sprint(s.Vector) != fmt.Sprint(p.Vector) {
			t.Fatalf("query %v: vectors differ: %v vs %v", serial.Queries[i], s.Vector, p.Vector)
		}
		if p.Stats.Solves == 0 || p.Stats.SolveTime <= 0 {
			t.Fatalf("query %v: per-solve stats missing: %+v", serial.Queries[i], p.Stats)
		}
	}
	var sb strings.Builder
	PrintSweep(&sb, parallel)
	out := sb.String()
	for _, want := range []string{"k-sweep campaign", "conflicts", "campaign wall time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("PrintSweep output missing %q:\n%s", want, out)
		}
	}
}

// TestFigWorkersInvariant checks a parallel figure campaign agrees with
// the serial one on everything but timings.
func TestFigWorkersInvariant(t *testing.T) {
	opt := fastOpt
	opt.Workers = 1
	serial, err := Fig7a(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	parallel, err := Fig7a(opt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(serial) != fmt.Sprint(parallel) {
		t.Fatalf("Fig7a differs across pool sizes:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

func TestCaseStudyOutput(t *testing.T) {
	var sb strings.Builder
	if err := CaseStudy(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Fig. 3",
		"Fig. 4",
		"(1,1)-resilient observability: HOLDS",
		"(2,1)-resilient observability: VIOLATED",
		"maximum observability resiliency: (3 IED-only, 0 RTU-only)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("case study output missing %q:\n%s", want, out)
		}
	}
}

// TestFigTraceAndMetricsThreaded checks Options.Trace / Options.Metrics
// reach the campaign analyzers: a traced Fig5 run produces balanced
// query spans and a non-empty registry.
func TestFigTraceAndMetricsThreaded(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	root := tracer.Start("fig5")
	reg := obs.NewRegistry()
	opt := Options{Inputs: 1, Runs: 1, Systems: []string{"ieee14"}, Trace: root, Metrics: reg}
	if _, err := Fig5(core.Observability, opt); err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"query"`)) {
		t.Fatal("trace has no query spans")
	}
	snap := reg.Snapshot()
	var queries, solveSec float64
	for _, c := range snap.Counters {
		if c.Name == "scadaver_queries_total" {
			queries += c.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "scadaver_phase_seconds" && h.Labels["phase"] == "solve" {
			solveSec += h.Sum
		}
	}
	if queries <= 0 || solveSec <= 0 {
		t.Fatalf("registry empty after traced campaign: queries=%v solve=%vs", queries, solveSec)
	}
}
