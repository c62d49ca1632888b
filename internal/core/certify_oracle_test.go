package core_test

import (
	"context"
	"fmt"
	"os"
	"strings"
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

// testSystem is a named configuration a differential test runs on.
type testSystem struct {
	name string
	cfg  *scadanet.Config
}

// case5AndIEEE14 returns the two systems the differential tests run on:
// the repository's case5 configuration and the synthesized IEEE-14
// configuration of seed 41 (hierarchy 2, 90% secured uplinks).
func case5AndIEEE14(t *testing.T) []testSystem {
	t.Helper()
	f, err := os.Open("../../testdata/case5bus.scada")
	if err != nil {
		t.Fatal(err)
	}
	case5, err := scadanet.ParseConfig(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ieee14, err := synth.Generate(synth.Params{Bus: powergrid.IEEE14(), Seed: 41, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return []testSystem{{"case5", case5}, {"ieee14", ieee14}}
}

// baselineStatus decides q by exhaustive enumeration in internal/baseline
// (BFS reachability, every failure set of every allowed (IED, RTU) split
// and, under a link budget, every set of at most KL failed links),
// independent of the SAT path.
func baselineStatus(c *baseline.Checker, q core.Query) sat.Status {
	if _, _, ok := baselineViolation(c, q); ok {
		return sat.Sat
	}
	return sat.Unsat
}

// baselineHolds is q's property as a baseline.LinkPropertyFn.
func baselineHolds(c *baseline.Checker, q core.Query) baseline.LinkPropertyFn {
	return func(down map[scadanet.DeviceID]bool, cut map[scadanet.LinkID]bool) bool {
		switch q.Property {
		case core.SecuredObservability:
			return c.ObservableUnder(down, cut, true)
		case core.BadDataDetectability:
			return c.BadDataDetectableUnder(down, cut, q.R)
		}
		return c.ObservableUnder(down, cut, false)
	}
}

// baselineViolation returns a failure set violating q within its budget,
// found by baseline's exhaustive enumeration, and whether one exists.
func baselineViolation(c *baseline.Checker, q core.Query) ([]scadanet.DeviceID, []scadanet.LinkID, bool) {
	splits := [][2]int{{q.K1, q.K2}}
	if q.Combined {
		splits = splits[:0]
		for k1 := 0; k1 <= q.K; k1++ {
			splits = append(splits, [2]int{k1, q.K - k1})
		}
	}
	for _, s := range splits {
		if devs, links, ok := c.FindLinkViolation(s[0], s[1], q.KL, baselineHolds(c, q)); ok {
			return devs, links, true
		}
	}
	return nil, nil, false
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

// TestLinkBudgetsMatchBaseline holds Verify under link budgets to
// baseline's exhaustive answer: on case5 and IEEE-14, every query shape
// with KL > 0 — the delta suite's link shape and the k-sweep shapes at
// KL = 1 (k <= 1) and KL = 2 (k = 0) — must get baseline's verdict, and
// every witness must fit its budget and violate the property under
// baseline's BFS evaluators with exactly its failed devices and links.
func TestLinkBudgetsMatchBaseline(t *testing.T) {
	var queries []core.Query
	for _, q := range core.DeltaQueries() {
		if q.KL > 0 {
			queries = append(queries, q)
		}
	}
	for kl, maxK := range map[int]int{1: 1, 2: 0} {
		for _, q := range experiments.SweepQueries(maxK) {
			q.KL = kl
			queries = append(queries, q)
		}
	}
	statuses := map[sat.Status]int{}
	for _, sys := range case5AndIEEE14(t) {
		a, err := core.NewAnalyzer(sys.cfg, core.WithPresimplify(true))
		if err != nil {
			t.Fatal(err)
		}
		oracle := baseline.New(sys.cfg, nil)
		for _, q := range queries {
			res, err := a.Verify(q)
			if err != nil {
				t.Fatal(err)
			}
			where := sys.name + " " + fmt.Sprintf("%v kl=%d", q, q.KL)
			if want := baselineStatus(oracle, q); res.Status != want {
				t.Fatalf("%s: verify %v, baseline %v", where, res.Status, want)
			}
			statuses[res.Status]++
			if res.Status != sat.Sat {
				continue
			}
			v := res.Vector
			if q.Combined && len(v.IEDs)+len(v.RTUs) > q.K || !q.Combined && (len(v.IEDs) > q.K1 || len(v.RTUs) > q.K2) || len(v.Links) > q.KL {
				t.Fatalf("%s: witness %v over budget", where, v)
			}
			down := map[scadanet.DeviceID]bool{}
			for _, id := range v.Devices() {
				down[id] = true
			}
			cut := map[scadanet.LinkID]bool{}
			for _, id := range v.Links {
				cut[id] = true
			}
			if baselineHolds(oracle, q)(down, cut) {
				t.Fatalf("%s: witness %v does not violate the property under baseline", where, v)
			}
		}
	}
	if statuses[sat.Sat] == 0 || statuses[sat.Unsat] == 0 {
		t.Fatalf("verdicts %v: the link shapes must cross the boundary", statuses)
	}
}

// TestCertifiedDeltaCache certifies from a delta-aware cache
// (CacheWithDelta), as a certified service does: certified queries take
// the monolithic certified snapshot, which forks a shared prelude and
// carries no delta state, beside the uncertified delta entries. Mutate
// evolves only the delta entries, and a certified query on the mutated
// configuration builds a new certified snapshot. Every certified verdict
// on either configuration must equal baseline's exhaustive answer.
func TestCertifiedDeltaCache(t *testing.T) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE14(), Seed: 41, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewEncodingCache(core.CacheWithDelta())
	opts := []core.Option{core.WithPresimplify(true), core.WithEncodingCache(cache)}
	certOpts := append(append([]core.Option(nil), opts...), core.WithCertification(true))
	queries := experiments.SweepQueries(2)

	plain, err := core.NewAnalyzer(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := plain.Verify(q); err != nil {
			t.Fatal(err)
		}
	}
	certify := func(cfg *scadanet.Config) {
		t.Helper()
		a, err := core.NewAnalyzer(cfg, certOpts...)
		if err != nil {
			t.Fatal(err)
		}
		oracle := baseline.New(cfg, nil)
		for _, q := range queries {
			res, err := a.Verify(q)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certified || res.Quarantined {
				t.Fatalf("%v: certified=%v quarantined=%v (%q)", q, res.Certified, res.Quarantined, res.CertifyError)
			}
			if want := baselineStatus(oracle, q); res.Status != want {
				t.Fatalf("%v: certified %v, baseline %v", q, res.Status, want)
			}
		}
	}
	// entries counts the certified and delta entries, failing the test
	// on a certified entry that shares no prelude or carries delta state.
	entries := func() (certified, delta int) {
		t.Helper()
		for key, st := range cache.Entries() {
			if !strings.HasSuffix(key, "|cert") {
				if st.Delta {
					delta++
				}
				continue
			}
			if !st.Prelude || st.Delta {
				t.Fatalf("certified snapshot %s: prelude=%v delta=%v", key, st.Prelude, st.Delta)
			}
			certified++
		}
		return certified, delta
	}

	certify(cfg)
	certified, delta := entries()
	if certified == 0 || delta != certified {
		t.Fatalf("before mutation: %d certified and %d delta snapshots, want one of each per structure", certified, delta)
	}
	next, _, err := cfg.Apply(scadanet.Delta{Ops: []scadanet.Op{{Kind: scadanet.OpLinkRemove, Link: cfg.Net.Links()[0].ID}}})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := cache.Mutate(cfg, next, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Entries != delta {
		t.Fatalf("Mutate evolved %d entries, want the %d delta entries only", ms.Entries, delta)
	}
	certify(next)
	if c, d := entries(); c != 2*certified || d != delta {
		t.Fatalf("after mutation: %d certified and %d delta snapshots, want %d and %d", c, d, 2*certified, delta)
	}
}
