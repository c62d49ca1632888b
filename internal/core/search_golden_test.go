package core_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/powergrid"
	"scadaver/internal/synth"
)

// TestSearchGolden pins the whole k-sweep search, query by query: every
// query of SweepQueries(4) runs through a presimplified, cached Runner
// with one worker, and the digest covers each verdict, its witness and
// the solver's conflict, decision, propagation and learned-clause
// counts. The digests were recorded for EncodingVersion 4 (one-sided
// totalizers) with recursive learned-clause minimization; a solver
// change that alters the search (propagation order, literal order in
// learned clauses, reduction choices) fails here even when every
// verdict stays the same, and so does any change to the emitted CNF.
func TestSearchGolden(t *testing.T) {
	cases := []struct {
		bus  *powergrid.BusSystem
		seed int64
		want string
	}{
		{powergrid.IEEE14(), 14007, "43f187ca467afb27"},
		{powergrid.IEEE57(), 57007, "8dd813c4770b4c11"},
	}
	for _, tc := range cases {
		if testing.Short() && tc.bus.Name != "ieee14" {
			continue
		}
		cfg, err := synth.Generate(synth.Params{Bus: tc.bus, Seed: tc.seed, Hierarchy: 2, SecureFraction: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		r := core.NewRunner(1, core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache()))
		queries := experiments.SweepQueries(4)
		results, err := r.VerifyAll(context.Background(), cfg, queries)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for i, res := range results {
			st := res.Stats
			fmt.Fprintf(h, "%d %v conflicts=%d decisions=%d props=%d learned=%d", i, res.Status,
				st.Conflicts, st.Decisions, st.Propagations, st.Learned)
			if v := res.Vector; v != nil {
				fmt.Fprintf(h, " ieds=%v rtus=%v links=%v", v.IEDs, v.RTUs, v.Links)
			}
			h.Write([]byte{'\n'})
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("%s seed %d: digest %s, want %s", tc.bus.Name, tc.seed, got, tc.want)
		}
	}
}
