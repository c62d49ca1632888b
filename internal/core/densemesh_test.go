package core_test

import (
	"fmt"
	"testing"

	"scadaver/internal/baseline"
	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// The delivery encoding once enumerated at most 256 paths per IED and
// decided delivery on that truncated list, so on dense RTU meshes it
// reported, and certified, threats that do not exist. These tests hold
// Verify to baseline's BFS on meshes far past any such cap.

// witnessViolates reports whether v violates q under baseline's BFS
// evaluators, with exactly its failed devices and links.
func witnessViolates(c *baseline.Checker, q core.Query, v *core.ThreatVector) bool {
	down := map[scadanet.DeviceID]bool{}
	for _, id := range v.Devices() {
		down[id] = true
	}
	cut := map[scadanet.LinkID]bool{}
	for _, id := range v.Links {
		cut[id] = true
	}
	return !baselineHolds(c, q)(down, cut)
}

// TestDenseMeshWitnessesIEEE57 verifies split-budget observability and
// secured observability on an IEEE-57 system whose RTU mesh gives one
// IED 927,683 simple paths to the MTU. Every verdict must be certified
// and every Sat witness must violate the property under baseline's BFS.
// (Exhaustive baseline search takes tens of seconds here, so only the
// witnesses are checked.)
func TestDenseMeshWitnessesIEEE57(t *testing.T) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE57(), Seed: 57009, Hierarchy: 3,
		SecureFraction: 0.9, CrossLinkProb: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg, core.WithCertification(true))
	if err != nil {
		t.Fatal(err)
	}
	oracle := baseline.New(cfg, nil)
	for _, k := range []int{1, 2} {
		for _, p := range []core.Property{core.Observability, core.SecuredObservability} {
			q := core.Query{Property: p, K1: k, K2: k}
			res, err := a.Verify(q)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certified || res.Quarantined {
				t.Errorf("%v: certified=%v quarantined=%v (%q)", q, res.Certified, res.Quarantined, res.CertifyError)
			}
			if res.Status == sat.Sat && !witnessViolates(oracle, q, res.Vector) {
				t.Errorf("%v: witness %v does not violate the property under baseline", q, res.Vector)
			}
		}
	}
}

// TestDenseMeshMatchesBaselineIEEE14 holds every k <= 2 shape of the
// k-sweep to baseline's exhaustive answer on ten IEEE-14 systems with a
// dense RTU mesh (cross-link probability 0.6), certified, and checks
// every Sat witness with baseline's BFS.
func TestDenseMeshMatchesBaselineIEEE14(t *testing.T) {
	queries := experiments.SweepQueries(2)
	for seed := int64(14000); seed < 14010; seed++ {
		cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE14(), Seed: seed, Hierarchy: 2,
			SecureFraction: 0.9, CrossLinkProb: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewAnalyzer(cfg, core.WithCertification(true))
		if err != nil {
			t.Fatal(err)
		}
		oracle := baseline.New(cfg, nil)
		for _, q := range queries {
			res, err := a.Verify(q)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("seed %d %v", seed, q)
			if !res.Certified || res.Quarantined {
				t.Errorf("%s: certified=%v quarantined=%v (%q)", where, res.Certified, res.Quarantined, res.CertifyError)
			}
			if want := baselineStatus(oracle, q); res.Status != want {
				t.Errorf("%s: verify %v, baseline %v", where, res.Status, want)
			}
			if res.Status == sat.Sat && !witnessViolates(oracle, q, res.Vector) {
				t.Errorf("%s: witness %v does not violate the property under baseline", where, res.Vector)
			}
		}
	}
}

// FuzzVerifySmall generates small synthetic systems — Case5 or IEEE-14,
// with the hierarchy depth, RTU cross-link probability and secured
// fraction fuzzed — and holds Verify to baseline's exhaustive answer
// for every property at one fuzzed budget k <= 2 (the k-sweep's four
// shapes), checking every Sat witness with baseline's BFS.
func FuzzVerifySmall(f *testing.F) {
	f.Add(int64(14001), uint8(1), uint8(2), uint8(60), uint8(90), uint8(1))
	f.Add(int64(14003), uint8(1), uint8(2), uint8(60), uint8(90), uint8(2))
	f.Add(int64(5), uint8(0), uint8(1), uint8(25), uint8(80), uint8(1))
	f.Add(int64(7), uint8(1), uint8(4), uint8(90), uint8(50), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, bus, hierarchy, crossLink, secure, k uint8) {
		sys := powergrid.Case5()
		if bus%2 == 1 {
			sys = powergrid.IEEE14()
		}
		cfg, err := synth.Generate(synth.Params{Bus: sys, Seed: seed, Hierarchy: 1 + int(hierarchy%4),
			CrossLinkProb: float64(1+crossLink%95) / 100, SecureFraction: float64(1+secure%100) / 100})
		if err != nil {
			t.Skip(err)
		}
		a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true))
		if err != nil {
			t.Skip(err)
		}
		oracle := baseline.New(cfg, nil)
		kk := int(k % 3)
		for _, q := range experiments.SweepQueries(kk)[4*kk:] {
			res, err := a.Verify(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := baselineStatus(oracle, q); res.Status != want {
				t.Fatalf("%v: verify %v, baseline %v", q, res.Status, want)
			}
			if res.Status == sat.Sat && !witnessViolates(oracle, q, res.Vector) {
				t.Fatalf("%v: witness %v does not violate the property under baseline", q, res.Vector)
			}
		}
	})
}
