package core_test

import (
	"context"
	"testing"

	"scadaver/internal/baseline"
	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// certifiedCampaign runs the k-sweep query list on a certified Runner
// over a shared plain cache with presimplify — the shared-snapshot
// certified path — and checks what holds for every result regardless of
// the reference: decided, Certified, never Quarantined, and every
// witness within its budget and violating the property under the
// analyzer's direct evaluator.
func certifiedCampaign(t *testing.T, cfg *scadanet.Config, queries []core.Query) []*core.Result {
	t.Helper()
	r := core.NewRunner(2, core.WithCertification(true), core.WithPresimplify(true),
		core.WithEncodingCache(core.NewEncodingCache()))
	results, err := r.VerifyAll(context.Background(), cfg, queries)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		q := queries[i]
		if res.Status == sat.Unsolved || !res.Certified || res.Quarantined {
			t.Fatalf("%v: status %v certified=%v quarantined=%v (%q)", q, res.Status, res.Certified, res.Quarantined, res.CertifyError)
		}
		if res.Status != sat.Sat {
			continue
		}
		v := res.Vector
		if q.Combined && len(v.IEDs)+len(v.RTUs) > q.K || !q.Combined && (len(v.IEDs) > q.K1 || len(v.RTUs) > q.K2) {
			t.Fatalf("%v: witness %v over budget", q, v)
		}
		f := core.Failures{Devices: map[scadanet.DeviceID]bool{}, Links: map[scadanet.LinkID]bool{}}
		for _, id := range v.Devices() {
			f.Devices[id] = true
		}
		if !a.ViolatedUnder(q, f) {
			t.Fatalf("%v: witness %v does not violate the property", q, v)
		}
	}
	return results
}

// baselineStatus decides q by exhaustive enumeration in internal/baseline
// (BFS reachability, every failure set of every allowed (IED, RTU) split),
// independent of the SAT path.
func baselineStatus(c *baseline.Checker, q core.Query) sat.Status {
	holds := func(down map[scadanet.DeviceID]bool) bool {
		switch q.Property {
		case core.SecuredObservability:
			return c.Observable(down, true)
		case core.BadDataDetectability:
			return c.BadDataDetectable(down, q.R)
		}
		return c.Observable(down, false)
	}
	splits := [][2]int{{q.K1, q.K2}}
	if q.Combined {
		splits = splits[:0]
		for k1 := 0; k1 <= q.K; k1++ {
			splits = append(splits, [2]int{k1, q.K - k1})
		}
	}
	for _, s := range splits {
		if c.FindViolation(s[0], s[1], holds) != nil {
			return sat.Sat
		}
	}
	return sat.Unsat
}

// TestCertifiedSnapshotMatchesBaseline pins the shared-snapshot certified
// path to an oracle outside the SAT path: on two IEEE-14 configurations
// every verdict of the certified k-sweep campaign must equal
// internal/baseline's exhaustive answer.
func TestCertifiedSnapshotMatchesBaseline(t *testing.T) {
	queries := experiments.SweepQueries(4)
	for _, seed := range []int64{41, 14007} {
		cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE14(), Seed: seed, Hierarchy: 2, SecureFraction: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		results := certifiedCampaign(t, cfg, queries)
		oracle := baseline.New(cfg, nil)
		sats := 0
		for i, q := range queries {
			want := baselineStatus(oracle, q)
			if results[i].Status != want {
				t.Fatalf("seed %d %v: certified %v, baseline %v", seed, q, results[i].Status, want)
			}
			if want == sat.Sat {
				sats++
			}
		}
		if sats == 0 || sats == len(queries) {
			t.Fatalf("seed %d: %d of %d queries sat; the sweep must cross the boundary", seed, sats, len(queries))
		}
	}
}

// TestCertifiedSnapshotMatchesUncertifiedIEEE57 runs the certify
// benchmark's campaign — IEEE-57 synth seed 57007, the k = 0..4 sweep —
// on the shared-snapshot certified path and requires the uncertified
// campaign's verdicts, every one of them certified.
func TestCertifiedSnapshotMatchesUncertifiedIEEE57(t *testing.T) {
	if testing.Short() {
		t.Skip("IEEE-57 certified campaign in -short mode")
	}
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE57(), Seed: 57007, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	queries := experiments.SweepQueries(4)
	got := certifiedCampaign(t, cfg, queries)
	want, err := core.NewRunner(2, core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache())).
		VerifyAll(context.Background(), cfg, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got[i].Status != want[i].Status {
			t.Fatalf("%v: certified %v, uncertified %v", q, got[i].Status, want[i].Status)
		}
	}
}
