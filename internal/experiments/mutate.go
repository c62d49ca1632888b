package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/powergrid"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// MutationStormResult is the outcome of one mutation-storm campaign
// (scada-bench -fig mutate): a sequence of random single-link deltas
// applied to one bus system, re-verified both incrementally (the
// delta-aware encoding cache evolves warm snapshots, carries learnts)
// and cold (full re-encode per step). Both legs must agree on every
// verdict; the ratio of their wall times is the delta optimization's
// headline number.
type MutationStormResult struct {
	System string
	Steps  int
	Query  core.Query

	Incremental time.Duration // total incremental re-verify wall (cache evolve + solve)
	Cold        time.Duration // total cold re-verify wall (re-encode + solve)
	Stats       core.MutationStats
}

// Speedup is cold wall over incremental wall.
func (r *MutationStormResult) Speedup() float64 {
	if r.Incremental <= 0 {
		return 0
	}
	return float64(r.Cold) / float64(r.Incremental)
}

// MutationStorm runs the mutation-storm campaign: steps random
// single-link removals (seeded, so the sequence is reproducible) on the
// named bus system, each re-verified incrementally and cold. The
// incremental leg warms one delta-aware cache on the initial structure,
// then per step pays only Config.Apply + EncodingCache.Mutate (the
// dirty cone re-encodes, everything else survives) + the solve; the
// cold leg builds a fresh analyzer per step, which encodes (and, under
// presimplify, simplifies) the mutated structure from scratch into its
// private cache before solving on a clone.
func MutationStorm(busName string, steps int, opt Options) (*MutationStormResult, error) {
	if steps <= 0 {
		steps = 10
	}
	sys, err := powergrid.ByName(busName)
	if err != nil {
		return nil, err
	}
	cfg, err := synth.Generate(synth.Params{
		Bus:            sys,
		Seed:           int64(1000*sys.NBuses + 7),
		Hierarchy:      2,
		SecureFraction: 0.9,
	})
	if err != nil {
		return nil, err
	}
	// The probe sits at the k-resiliency boundary (IEEE-57 at hierarchy 2
	// stops being observability-resilient around k=3), where the verdict
	// is informative and the solver genuinely searches — at trivial k the
	// instance decides at propagation depth and both legs just measure
	// encoding overhead.
	q := core.Query{Property: core.Observability, Combined: true, K: 3}

	res := &MutationStormResult{System: busName, Steps: steps, Query: q}
	// Both legs and the delta cache record into the caller's metrics
	// registry, if any.
	cache := core.NewEncodingCache(core.CacheWithDelta(), core.CacheWithMetrics(opt.Metrics))

	incOpt := opt
	incOpt.Cache = cache
	incOpts := incOpt.CoreOptions()

	// Without a cache option every cold analyzer gets a private cache,
	// so each step encodes the mutated structure from scratch.
	coldOpt := opt
	coldOpt.Cache = nil
	coldOpts := coldOpt.CoreOptions()

	// Warm the incremental leg's cache on the pre-storm structure (not
	// timed: a live service has already verified the configuration it is
	// serving when the first mutation arrives).
	warmA, err := core.NewAnalyzer(cfg, incOpts...)
	if err != nil {
		return nil, err
	}
	if _, err := warmA.Verify(q); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(int64(4000*sys.NBuses + 11)))
	cur := cfg
	for step := 0; step < steps; step++ {
		links := cur.Net.Links()
		if len(links) == 0 {
			return nil, fmt.Errorf("mutation storm: %s ran out of links at step %d", busName, step)
		}
		victim := links[rng.Intn(len(links))].ID
		delta := scadanet.Delta{Ops: []scadanet.Op{{Kind: scadanet.OpLinkRemove, Link: victim}}}
		next, _, err := cur.Apply(delta)
		if err != nil {
			return nil, fmt.Errorf("mutation storm step %d (%s): %w", step, delta, err)
		}

		t0 := time.Now()
		ms, err := cache.Mutate(cur, next, incOpts...)
		if err != nil {
			return nil, err
		}
		incA, err := core.NewAnalyzer(next, incOpts...)
		if err != nil {
			return nil, err
		}
		incRes, err := incA.Verify(q)
		if err != nil {
			return nil, err
		}
		res.Incremental += time.Since(t0)
		res.Stats.DeltaReuse += ms.DeltaReuse
		res.Stats.DeltaReencoded += ms.DeltaReencoded
		res.Stats.CarriedLearnts += ms.CarriedLearnts
		res.Stats.Entries += ms.Entries

		t1 := time.Now()
		coldA, err := core.NewAnalyzer(next, coldOpts...)
		if err != nil {
			return nil, err
		}
		coldRes, err := coldA.Verify(q)
		if err != nil {
			return nil, err
		}
		res.Cold += time.Since(t1)

		if incRes.Status != coldRes.Status || incRes.Resilient() != coldRes.Resilient() {
			return nil, fmt.Errorf("mutation storm step %d (%s): incremental verdict (%v, resilient=%v) diverges from cold (%v, resilient=%v)",
				step, delta, incRes.Status, incRes.Resilient(), coldRes.Status, coldRes.Resilient())
		}
		cur = next
	}
	return res, nil
}

// PrintMutationStorm renders one mutation-storm campaign.
func PrintMutationStorm(w io.Writer, r *MutationStormResult) {
	fmt.Fprintf(w, "# mutation storm: %s, %d single-link deltas, query %v\n", r.System, r.Steps, r.Query)
	fmt.Fprintf(w, "%-14s %12s %12s\n", "leg", "wall(ms)", "per-step(ms)")
	fmt.Fprintf(w, "%-14s %12.2f %12.2f\n", "incremental", ms(r.Incremental), ms(r.Incremental)/float64(r.Steps))
	fmt.Fprintf(w, "%-14s %12.2f %12.2f\n", "cold", ms(r.Cold), ms(r.Cold)/float64(r.Steps))
	fmt.Fprintf(w, "speedup: %.1fx  (groups: %d reused, %d re-encoded; %d learnts carried)\n",
		r.Speedup(), r.Stats.DeltaReuse, r.Stats.DeltaReencoded, r.Stats.CarriedLearnts)
}
