package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"scadaver/internal/obs"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// traceRec mirrors the obs JSONL record for assertions.
type traceRec struct {
	Ev     string         `json:"ev"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent"`
	Span   uint64         `json:"span"`
	Name   string         `json:"name"`
	T      int64          `json:"tNanos"`
	Dur    int64          `json:"durNanos"`
	Attrs  map[string]any `json:"attrs"`
}

func parseTrace(t *testing.T, buf *bytes.Buffer) []traceRec {
	t.Helper()
	var recs []traceRec
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var r traceRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// assertSpansBalanced checks that every begun span has exactly one end
// record and that parents exist, and returns begin records by id.
func assertSpansBalanced(t *testing.T, recs []traceRec) map[uint64]traceRec {
	t.Helper()
	begins := map[uint64]traceRec{}
	ends := map[uint64]int{}
	for _, r := range recs {
		switch r.Ev {
		case "begin":
			if _, dup := begins[r.ID]; dup {
				t.Fatalf("duplicate begin for span %d", r.ID)
			}
			begins[r.ID] = r
		case "end":
			ends[r.ID]++
		}
	}
	for id, b := range begins {
		if ends[id] != 1 {
			t.Errorf("span %d (%s) has %d end records, want 1", id, b.Name, ends[id])
		}
		if b.Parent != 0 {
			if _, ok := begins[b.Parent]; !ok {
				t.Errorf("span %d (%s) has unknown parent %d", id, b.Name, b.Parent)
			}
		}
	}
	return begins
}

func TestVerifyPhaseTimes(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify(Query{Property: SecuredObservability, K1: 1, K2: 1})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases
	if ph.Build <= 0 || ph.Encode <= 0 || ph.Solve <= 0 {
		t.Fatalf("phase times not populated: %v", ph)
	}
	if res.Status == sat.Sat && ph.Decode <= 0 {
		t.Fatalf("sat result without decode time: %v", ph)
	}
	if sum := ph.Sum(); sum > res.Duration {
		t.Fatalf("phases sum %v exceeds total %v", sum, res.Duration)
	}
}

// TestVerifyTraceNesting verifies the span tree of a traced
// verification: root → query → phase children, with phase durations
// bounded by (and in aggregate close to) the query span's duration.
func TestVerifyTraceNesting(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	root := tracer.Start("test")

	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(cfg, WithTrace(root))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify(Query{Property: Observability, K1: 2, K2: 1})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}

	recs := parseTrace(t, &buf)
	begins := assertSpansBalanced(t, recs)

	var rootID, queryID uint64
	for id, b := range begins {
		switch b.Name {
		case "test":
			rootID = id
		case "query":
			queryID = id
		}
	}
	if rootID == 0 || queryID == 0 {
		t.Fatalf("missing root/query spans in %v", begins)
	}
	if begins[queryID].Parent != rootID {
		t.Fatalf("query span parent = %d, want root %d", begins[queryID].Parent, rootID)
	}

	wantPhases := map[string]bool{"build": false, "encode": false, "solve": false}
	if res.Status == sat.Sat {
		wantPhases["decode"] = false
	}
	var queryDur, phaseSum int64
	for _, r := range recs {
		if r.Ev != "end" {
			continue
		}
		if r.ID == queryID {
			queryDur = r.Dur
		}
		if _, ok := wantPhases[r.Name]; ok {
			wantPhases[r.Name] = true
			phaseSum += r.Dur
			if begins[r.ID].Parent != queryID {
				t.Errorf("phase %s parent = %d, want query %d", r.Name, begins[r.ID].Parent, queryID)
			}
		}
	}
	for name, seen := range wantPhases {
		if !seen {
			t.Errorf("phase span %q missing from trace", name)
		}
	}
	if queryDur <= 0 {
		t.Fatal("query span has no duration")
	}
	if phaseSum > queryDur {
		t.Fatalf("phase durations (%d ns) exceed query span (%d ns)", phaseSum, queryDur)
	}
}

// TestTraceCancelledSolveClosesSpans interrupts a long solve via the
// cooperative cancellation hook and asserts the verification still
// returns through the normal path — status Unsolved — with every begun
// span closed. This is the trace-integrity guarantee for cancelled
// campaigns.
func TestTraceCancelledSolveClosesSpans(t *testing.T) {
	cfg, err := synth.Generate(synth.Params{
		Bus:            powergrid.IEEE57(),
		Seed:           3,
		Hierarchy:      2,
		SecureFraction: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Property: SecuredObservability, K1: 2}
	// The solver polls the interrupt hook once per 256 search-loop
	// iterations (one per decision or conflict), so the query must search
	// past the first poll or it decides before the hook is ever asked.
	free, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := free.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := uninterrupted.Stats.Decisions + uninterrupted.Stats.Conflicts; n < 256 {
		t.Fatalf("precondition: %v decides in %d search iterations, under the 256-iteration interrupt poll; pick a harder query", q, n)
	}

	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	root := tracer.Start("cancelled-run")
	a, err := NewAnalyzer(cfg,
		WithTrace(root),
		WithInterrupt(func() bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsolved {
		t.Fatalf("interrupted solve = %v, want unsolved", res.Status)
	}
	root.End()
	recs := parseTrace(t, &buf)
	begins := assertSpansBalanced(t, recs)
	found := false
	for _, b := range begins {
		if b.Name == "solve" {
			found = true
		}
	}
	if !found {
		t.Fatal("no solve span in cancelled trace")
	}
}

// TestSweepTraceAndMetrics checks the sweep: its queries produce query
// spans with encode/solve children and per-solve metrics.
func TestSweepTraceAndMetrics(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	root := tracer.Start("sweep-run")
	reg := obs.NewRegistry()
	a, err := NewAnalyzer(cfg, WithTrace(root), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := a.NewSweep(Observability, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const maxK = 3
	for k := 0; k <= maxK; k++ {
		res, err := sw.VerifyK(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Phases.Solve <= 0 {
			t.Fatalf("k=%d: no solve phase time", k)
		}
	}
	root.End()

	begins := assertSpansBalanced(t, parseTrace(t, &buf))
	queries := 0
	for _, b := range begins {
		if b.Name == "query" {
			queries++
		}
	}
	if queries != maxK+1 {
		t.Fatalf("traced %d query spans, want %d", queries, maxK+1)
	}

	var total float64
	for k := 0; k <= maxK; k++ {
		q := Query{Property: Observability, Combined: true, K: k}
		var status string
		if k <= 1 {
			status = "unsat" // case study is (1,1)-resilient
		} else {
			status = "sat"
		}
		total += reg.Counter("scadaver_queries_total", map[string]string{
			"property": "observability",
			"k":        budgetLabel(q),
			"status":   status,
		})
	}
	if total != float64(maxK+1) {
		t.Fatalf("metrics recorded %v sweep queries, want %d", total, maxK+1)
	}
}

// TestRunnerMetricsParallelMatchesSerial hammers one registry from all
// Runner workers and asserts every counter equals the serial run's —
// the aggregation across workers must lose nothing (run with -race).
func TestRunnerMetricsParallelMatchesSerial(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for k := 0; k <= 4; k++ {
		queries = append(queries,
			Query{Property: Observability, Combined: true, K: k},
			Query{Property: SecuredObservability, Combined: true, K: k},
			Query{Property: BadDataDetectability, Combined: true, K: k, R: 1},
		)
	}

	runWith := func(workers int) obs.Snapshot {
		reg := obs.NewRegistry()
		r := NewRunner(workers, WithMetrics(reg))
		if _, err := r.VerifyAll(context.Background(), cfg, queries); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	serial := runWith(1)
	parallel := runWith(8)

	key := func(c obs.CounterSnapshot) string { return fmt.Sprintf("%s%v", c.Name, c.Labels) }
	sc := map[string]float64{}
	for _, c := range serial.Counters {
		sc[key(c)] = c.Value
	}
	if len(parallel.Counters) != len(serial.Counters) {
		t.Fatalf("parallel run has %d counter series, serial %d", len(parallel.Counters), len(serial.Counters))
	}
	for _, c := range parallel.Counters {
		if want, ok := sc[key(c)]; !ok || c.Value != want {
			t.Errorf("counter %s = %v, serial run had %v", key(c), c.Value, want)
		}
	}
	// Histogram observation counts (not sums: timings differ) must match.
	hkey := func(h obs.HistogramSnapshot) string { return fmt.Sprintf("%s%v", h.Name, h.Labels) }
	sh := map[string]uint64{}
	for _, h := range serial.Histograms {
		sh[hkey(h)] = h.Count
	}
	for _, h := range parallel.Histograms {
		if want, ok := sh[hkey(h)]; !ok || h.Count != want {
			t.Errorf("histogram %s count = %d, serial run had %d", hkey(h), h.Count, want)
		}
	}
}

// TestEnumerateTraceSpan asserts enumeration is wrapped in one span
// annotated with the number of vectors found.
func TestEnumerateTraceSpan(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	root := tracer.Start("enum-run")
	a, err := NewAnalyzer(cfg, WithTrace(root))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := a.EnumerateThreats(Query{Property: Observability, K1: 2, K2: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("expected threat vectors")
	}
	root.End()
	recs := parseTrace(t, &buf)
	assertSpansBalanced(t, recs)
	for _, r := range recs {
		if r.Ev == "end" && r.Name == "enumerate" {
			if got, ok := r.Attrs["vectors"].(float64); !ok || int(got) != len(vs) {
				t.Fatalf("enumerate span vectors = %v, want %d", r.Attrs["vectors"], len(vs))
			}
			return
		}
	}
	t.Fatal("no enumerate span end record")
}

// TestSnapshotPreprocessSpan checks where a cached snapshot's one-off
// Simplify shows in a trace: as a "preprocess" child of the build span
// of the query that built the snapshot, and never inside a cache hit's
// build span. Both cache layouts are covered; the delta layout
// simplifies its master.
func TestSnapshotPreprocessSpan(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []bool{false, true} {
		var copts []CacheOption
		if delta {
			copts = append(copts, CacheWithDelta())
		}
		var buf bytes.Buffer
		tracer := obs.NewTracer(&buf)
		root := tracer.Start("test")
		a, err := NewAnalyzer(cfg, WithTrace(root), WithPresimplify(true),
			WithEncodingCache(NewEncodingCache(copts...)))
		if err != nil {
			t.Fatal(err)
		}
		// Queries 0 and 2 build their snapshots; 1 and 3 hit them.
		queries := []Query{
			{Property: Observability, K1: 1, K2: 1},
			{Property: Observability, K1: 2, K2: 1},
			{Property: SecuredObservability, Combined: true, K: 1},
			{Property: SecuredObservability, Combined: true, K: 2},
		}
		for i, q := range queries {
			res, err := a.Verify(q)
			if err != nil {
				t.Fatal(err)
			}
			if !delta && (res.Phases.Preprocess > 0) != (i%2 == 0) {
				t.Fatalf("delta=%t %v: Phases.Preprocess = %v", delta, q, res.Phases.Preprocess)
			}
		}
		root.End()
		if err := tracer.Err(); err != nil {
			t.Fatal(err)
		}
		begins := assertSpansBalanced(t, parseTrace(t, &buf))

		// Span ids are issued in start order, so sorted query span ids
		// follow the query list.
		var queryIDs []uint64
		for id, b := range begins {
			if b.Name == "query" {
				queryIDs = append(queryIDs, id)
			}
		}
		if len(queryIDs) != len(queries) {
			t.Fatalf("delta=%t: %d query spans in trace, want %d", delta, len(queryIDs), len(queries))
		}
		slices.Sort(queryIDs)
		perQuery := map[uint64]int{}
		for _, b := range begins {
			if b.Name != "preprocess" {
				continue
			}
			switch parent := begins[b.Parent]; {
			case parent.Name == "build":
				perQuery[parent.Parent]++
			case parent.Name == "query" && delta:
				// A delta-snapshot query preprocesses its own clone
				// (ReduceRoot + ProbeRoot) in a phase span of its own.
			default:
				t.Fatalf("delta=%t: preprocess span under %q", delta, parent.Name)
			}
		}
		for i, id := range queryIDs {
			want := 0
			if i%2 == 0 {
				want = 1
			}
			if perQuery[id] != want {
				t.Errorf("delta=%t query %d (%v): %d preprocess spans, want %d", delta, i, queries[i], perQuery[id], want)
			}
		}
	}
}
