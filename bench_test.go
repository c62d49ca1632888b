package scadaver_test

// One benchmark per table/figure of the paper's evaluation, plus
// ablations. Run with:
//
//	go test -bench=. -benchmem
//
// The full parameter sweeps (several inputs × several runs, exactly as
// the paper describes) live in cmd/scada-bench; these testing.B benches
// time the core verification queries each figure is built from.

import (
	"context"
	"fmt"
	"testing"

	"scadaver"
	"scadaver/internal/baseline"
	"scadaver/internal/core"
	"scadaver/internal/delivery"
	"scadaver/internal/experiments"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/stateest"
	"scadaver/internal/synth"
)

func mustAnalyzer(b *testing.B, cfg *scadaver.Config) *scadaver.Analyzer {
	b.Helper()
	a, err := scadaver.NewAnalyzer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func mustSynth(b *testing.B, p synth.Params) *scadaver.Config {
	b.Helper()
	cfg, err := synth.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkCaseStudyScenario1 times the Section IV-B verification
// queries (Table II input, Fig. 3 topology): the unsat (1,1) and sat
// (2,1) observability checks.
func BenchmarkCaseStudyScenario1(b *testing.B) {
	cfg, err := scadaver.CaseStudyConfig(false)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []scadaver.Query{
		{Property: scadaver.Observability, K1: 1, K2: 1},
		{Property: scadaver.Observability, K1: 2, K2: 1},
	} {
		b.Run(q.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := mustAnalyzer(b, cfg)
				if _, err := a.Verify(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCaseStudyScenario2 times the Section IV-C secured
// observability queries on both topologies.
func BenchmarkCaseStudyScenario2(b *testing.B) {
	for _, fig4 := range []bool{false, true} {
		cfg, err := scadaver.CaseStudyConfig(fig4)
		if err != nil {
			b.Fatal(err)
		}
		name := "fig3"
		if fig4 {
			name = "fig4"
		}
		b.Run(name, func(b *testing.B) {
			q := scadaver.Query{Property: scadaver.SecuredObservability, K1: 1, K2: 1}
			for i := 0; i < b.N; i++ {
				a := mustAnalyzer(b, cfg)
				if _, err := a.Verify(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchBoundary times the sat and unsat verification at an instance's
// resiliency boundary — the quantity plotted in Figs. 5 and 6.
func benchBoundary(b *testing.B, cfg *scadaver.Config, prop scadaver.Property) {
	b.Helper()
	setup := mustAnalyzer(b, cfg)
	kStar, err := setup.MaxResiliencyCombined(prop, cfg.R)
	if err != nil {
		b.Fatal(err)
	}
	unsatK := kStar
	if unsatK < 0 {
		unsatK = 0
	}
	b.Run("unsat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := mustAnalyzer(b, cfg)
			res, err := a.Verify(scadaver.Query{Property: prop, Combined: true, K: unsatK, R: cfg.R})
			if err != nil {
				b.Fatal(err)
			}
			if kStar >= 0 && res.Status != sat.Unsat {
				b.Fatalf("expected unsat at k*=%d, got %v", kStar, res.Status)
			}
		}
	})
	b.Run("sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := mustAnalyzer(b, cfg)
			res, err := a.Verify(scadaver.Query{Property: prop, Combined: true, K: kStar + 1, R: cfg.R})
			if err != nil {
				b.Fatal(err)
			}
			if res.Status != sat.Sat {
				b.Fatalf("expected sat at k*+1=%d, got %v", kStar+1, res.Status)
			}
		}
	})
}

// BenchmarkFig5aObservability regenerates Fig. 5(a): k-resilient
// observability verification time versus problem size.
func BenchmarkFig5aObservability(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118"} {
		sys, err := powergrid.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		cfg := mustSynth(b, synth.Params{Bus: sys, Seed: int64(1000 * sys.NBuses), Hierarchy: 2, SecureFraction: 0.9})
		b.Run(name, func(b *testing.B) {
			benchBoundary(b, cfg, scadaver.Observability)
		})
	}
}

// BenchmarkFig5bSecuredObservability regenerates Fig. 5(b): the secured
// variant.
func BenchmarkFig5bSecuredObservability(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118"} {
		sys, err := powergrid.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		cfg := mustSynth(b, synth.Params{Bus: sys, Seed: int64(1000 * sys.NBuses), Hierarchy: 2, SecureFraction: 0.9})
		b.Run(name, func(b *testing.B) {
			benchBoundary(b, cfg, scadaver.SecuredObservability)
		})
	}
}

// BenchmarkFig6aHierarchy14 regenerates Fig. 6(a): verification time
// versus hierarchy level on the 14-bus system.
func BenchmarkFig6aHierarchy14(b *testing.B) {
	for h := 1; h <= 4; h++ {
		cfg := mustSynth(b, synth.Params{Bus: powergrid.IEEE14(), Seed: int64(100 * h), Hierarchy: h, SecureFraction: 0.9})
		b.Run(fmt.Sprintf("h%d", h), func(b *testing.B) {
			benchBoundary(b, cfg, scadaver.Observability)
		})
	}
}

// BenchmarkFig6bHierarchy57 regenerates Fig. 6(b): the 57-bus variant.
func BenchmarkFig6bHierarchy57(b *testing.B) {
	for h := 1; h <= 4; h++ {
		cfg := mustSynth(b, synth.Params{Bus: powergrid.IEEE57(), Seed: int64(100 * h), Hierarchy: h, SecureFraction: 0.9})
		b.Run(fmt.Sprintf("h%d", h), func(b *testing.B) {
			benchBoundary(b, cfg, scadaver.Observability)
		})
	}
}

// BenchmarkFig7aMaxResiliency regenerates Fig. 7(a): the
// maximum-resiliency search versus measurement density on the 14-bus
// system.
func BenchmarkFig7aMaxResiliency(b *testing.B) {
	for _, pct := range []float64{50, 75, 100} {
		cfg := mustSynth(b, synth.Params{
			Bus: powergrid.IEEE14(), Seed: int64(10 * pct), Hierarchy: 1,
			MeasurementPercent: pct, SecureFraction: 1,
		})
		b.Run(fmt.Sprintf("pct%.0f", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := mustAnalyzer(b, cfg)
				if _, err := a.MaxResiliency(core.Observability, 0, true, false); err != nil {
					b.Fatal(err)
				}
				if _, err := a.MaxResiliency(core.Observability, 0, false, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7bThreatSpace regenerates Fig. 7(b): threat-space
// enumeration versus hierarchy level on the 14-bus system.
func BenchmarkFig7bThreatSpace(b *testing.B) {
	for h := 1; h <= 4; h++ {
		cfg := mustSynth(b, synth.Params{Bus: powergrid.IEEE14(), Seed: int64(7000 + 10*h), Hierarchy: h, SecureFraction: 1})
		b.Run(fmt.Sprintf("h%d", h), func(b *testing.B) {
			q := scadaver.Query{Property: scadaver.Observability, K1: 2, K2: 1}
			for i := 0; i < b.N; i++ {
				a := mustAnalyzer(b, cfg)
				if _, err := a.EnumerateThreats(q, experiments.ThreatEnumerationCap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSweep57 measures the worker-pool speedup on the
// repository's reference campaign: the IEEE 57-bus k-sweep
// (cmd/scada-bench -fig sweep), identical queries at every pool size.
// The measured speedups are recorded in EXPERIMENTS.md.
func BenchmarkParallelSweep57(b *testing.B) {
	cfg := mustSynth(b, synth.Params{Bus: powergrid.IEEE57(), Seed: 1000*57 + 7, Hierarchy: 2, SecureFraction: 0.9})
	queries := experiments.SweepQueries(6)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			r := scadaver.NewRunner(w)
			for i := 0; i < b.N; i++ {
				if _, err := r.VerifyAll(context.Background(), cfg, queries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSATvsBruteForce compares the paper's
// constraint-solving approach against exhaustive contingency
// enumeration on the same query — the design choice the paper's
// "scalable and provable" claim rests on.
func BenchmarkAblationSATvsBruteForce(b *testing.B) {
	cfg := mustSynth(b, synth.Params{Bus: powergrid.IEEE14(), Seed: 9, Hierarchy: 1, SecureFraction: 1})
	q := scadaver.Query{Property: scadaver.Observability, K1: 2, K2: 1}
	b.Run("sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := mustAnalyzer(b, cfg)
			if _, err := a.Verify(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := baseline.New(cfg, nil)
			c.FindViolation(2, 1, func(down map[scadaver.DeviceID]bool) bool {
				return c.Observable(down, false)
			})
		}
	})
}

// BenchmarkDeliverySimulation times one full acquisition round of the
// discrete-event delivery simulator on a 118-bus SCADA system.
func BenchmarkDeliverySimulation(b *testing.B) {
	cfg := mustSynth(b, synth.Params{Bus: powergrid.IEEE118(), Seed: 2, Hierarchy: 2, SecureFraction: 0.9})
	sim := delivery.New(cfg, nil, delivery.Params{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(nil)
	}
}

// BenchmarkStateEstimation times WLS estimation plus bad-data detection
// on the full IEEE 14-bus measurement set.
func BenchmarkStateEstimation(b *testing.B) {
	ms := powergrid.FullMeasurementSet(powergrid.IEEE14())
	est, err := stateest.New(ms, 1)
	if err != nil {
		b.Fatal(err)
	}
	truth := make([]float64, ms.NStates)
	for i := range truth {
		truth[i] = -0.01 * float64(i)
	}
	sel := make([]int, ms.Len())
	for i := range sel {
		sel[i] = i
	}
	z, err := est.Measure(truth, sel, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	z[3] += 2.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.DetectBadData(z, nil, sel, 1e-6, 2); err != nil {
			b.Fatal(err)
		}
	}
}
