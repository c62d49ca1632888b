package core_test

import (
	"context"
	"testing"

	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/powergrid"
	"scadaver/internal/synth"
)

// TestPathReferenceMatchesReachNet holds the reach-net delivery encoding
// to the path encoding it replaced (core's test-only PathVerify, every
// simple path enumerated without a cap): on the IEEE-14 pools — the two
// sparse campaign seeds and the ten dense-mesh seeds — and the sixteen
// IEEE-57 campaign seeds, every k-sweep verdict of a presimplified,
// cached Runner must equal the path encoding's.
func TestPathReferenceMatchesReachNet(t *testing.T) {
	type pool struct {
		bus       *powergrid.BusSystem
		seed      int64
		n         int
		crossLink float64
		maxK      int
	}
	pools := []pool{
		{powergrid.IEEE14(), 14007, 2, 0, 4},
		{powergrid.IEEE14(), 14000, 10, 0.6, 2},
		{powergrid.IEEE57(), 57007, 16, 0, 4},
	}
	for _, p := range pools {
		if testing.Short() && p.bus.Name != "ieee14" {
			continue
		}
		queries := experiments.SweepQueries(p.maxK)
		for seed := p.seed; seed < p.seed+int64(p.n); seed++ {
			cfg, err := synth.Generate(synth.Params{Bus: p.bus, Seed: seed, Hierarchy: 2,
				SecureFraction: 0.9, CrossLinkProb: p.crossLink})
			if err != nil {
				t.Fatal(err)
			}
			r := core.NewRunner(2, core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache()))
			got, err := r.VerifyAll(context.Background(), cfg, queries)
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.NewAnalyzer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, paths := a.PathVerify(queries)
			for i, q := range queries {
				if got[i].Status != want[i] {
					t.Errorf("%s seed %d %v: reach net %v, path encoding %v (%d paths)",
						p.bus.Name, seed, q, got[i].Status, want[i], paths)
				}
			}
		}
	}
}
