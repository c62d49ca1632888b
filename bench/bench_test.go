package main

import (
	"io"
	"testing"
	"time"

	"scadaver/internal/faultinject"
)

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that each is correct and emits every metric BENCHMARK.json
// names, with its unit.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, _, err := runWorkload(runOptions{
				workload: w, seed: 1, budget: time.Second, traced: traced, scale: toyScale(),
			}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, want %q", w, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestOracleCatchesFlippedVerdict injects one inverted verdict — through
// the analyzers of a campaign and through the service of serve-mutate —
// and checks the run is reported incorrect.
func TestOracleCatchesFlippedVerdict(t *testing.T) {
	for _, w := range []string{"campaign-cold-ieee57", "serve-mutate-ieee57"} {
		res, _, err := runWorkload(runOptions{
			workload: w, seed: 1, budget: time.Second, scale: toyScale(),
			faults: faultinject.New(1).FlipVerdict(0),
		}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: flipped verdict not caught: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
