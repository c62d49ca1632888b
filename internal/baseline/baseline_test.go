package baseline

import (
	"testing"

	"scadaver/internal/core"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

func caseStudy(t *testing.T, fig4 bool) (*Checker, *core.Analyzer) {
	t.Helper()
	cfg, err := scadanet.CaseStudyConfig(fig4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, nil), a
}

func TestObservableMatchesAnalyzerEval(t *testing.T) {
	c, a := caseStudy(t, false)
	downSets := []map[scadanet.DeviceID]bool{
		nil,
		{1: true},
		{9: true},
		{9: true, 7: true},
		{11: true, 5: true},
		{12: true, 9: true},
		{1: true, 5: true, 7: true},
	}
	for _, down := range downSets {
		for _, secured := range []bool{false, true} {
			if got, want := c.Observable(down, secured), a.EvalObservability(down, secured); got != want {
				t.Fatalf("down=%v secured=%v: baseline=%v analyzer=%v", down, secured, got, want)
			}
		}
		for r := 0; r <= 2; r++ {
			if got, want := c.BadDataDetectable(down, r), a.EvalBadDataDetectability(down, r); got != want {
				t.Fatalf("down=%v r=%d: baseline=%v analyzer=%v", down, r, got, want)
			}
		}
	}
}

func TestFindViolationAgreesWithSAT(t *testing.T) {
	for _, fig4 := range []bool{false, true} {
		c, a := caseStudy(t, fig4)
		for k1 := 0; k1 <= 2; k1++ {
			for k2 := 0; k2 <= 1; k2++ {
				for _, secured := range []bool{false, true} {
					prop := core.Observability
					if secured {
						prop = core.SecuredObservability
					}
					res, err := a.Verify(core.Query{Property: prop, K1: k1, K2: k2})
					if err != nil {
						t.Fatal(err)
					}
					v := c.FindViolation(k1, k2, func(down map[scadanet.DeviceID]bool) bool {
						return c.Observable(down, secured)
					})
					if (res.Status == sat.Sat) != (v != nil) {
						t.Fatalf("fig4=%v secured=%v (%d,%d): sat=%v baseline violation=%v",
							fig4, secured, k1, k2, res.Status, v)
					}
				}
			}
		}
	}
}

func TestFindViolationReturnsMinimalSize(t *testing.T) {
	c, _ := caseStudy(t, true)
	v := c.FindViolation(2, 1, func(down map[scadanet.DeviceID]bool) bool {
		return c.Observable(down, false)
	})
	// Fig. 4: {RTU 12} alone breaks observability; smallest-first search
	// must find a single-device violation.
	if len(v) != 1 || v[0] != 12 {
		t.Fatalf("violation = %v, want [12]", v)
	}
}

func TestMaxResiliencyMatchesSAT(t *testing.T) {
	for _, fig4 := range []bool{false, true} {
		c, a := caseStudy(t, fig4)
		for _, varyIEDs := range []bool{true, false} {
			got := c.MaxResiliency(false, varyIEDs)
			want, err := a.MaxResiliency(core.Observability, 0, varyIEDs, !varyIEDs)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("fig4=%v varyIEDs=%v: baseline=%d sat=%d", fig4, varyIEDs, got, want)
			}
		}
	}
}

// TestRandomSyntheticAgreement fuzzes small synthetic systems and checks
// the SAT verdict against exhaustive enumeration for every small budget.
func TestRandomSyntheticAgreement(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg, err := synth.Generate(synth.Params{
			Bus:                powergrid.Case5(),
			Seed:               seed,
			Hierarchy:          1 + int(seed)%3,
			MeasurementPercent: 60 + float64(seed%5)*10,
			SecureFraction:     0.7,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewAnalyzer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := New(cfg, nil)
		for k1 := 0; k1 <= 1; k1++ {
			for k2 := 0; k2 <= 1; k2++ {
				for _, secured := range []bool{false, true} {
					prop := core.Observability
					if secured {
						prop = core.SecuredObservability
					}
					res, err := a.Verify(core.Query{Property: prop, K1: k1, K2: k2})
					if err != nil {
						t.Fatal(err)
					}
					v := c.FindViolation(k1, k2, func(down map[scadanet.DeviceID]bool) bool {
						return c.Observable(down, secured)
					})
					if (res.Status == sat.Sat) != (v != nil) {
						t.Fatalf("seed=%d secured=%v (%d,%d): sat=%v baseline=%v",
							seed, secured, k1, k2, res.Status, v)
					}
				}
				// Bad-data detectability with r=1.
				res, err := a.Verify(core.Query{Property: core.BadDataDetectability, K1: k1, K2: k2, R: 1})
				if err != nil {
					t.Fatal(err)
				}
				v := c.FindViolation(k1, k2, func(down map[scadanet.DeviceID]bool) bool {
					return c.BadDataDetectable(down, 1)
				})
				if (res.Status == sat.Sat) != (v != nil) {
					t.Fatalf("seed=%d baddata (%d,%d): sat=%v baseline=%v", seed, k1, k2, res.Status, v)
				}
			}
		}
	}
}

func TestSearchSpace(t *testing.T) {
	c, _ := caseStudy(t, false)
	// 8 IEDs, 4 RTUs: (1+8)(1+4) = 45 combinations at (1,1).
	if got := c.SearchSpace(1, 1); got != 45 {
		t.Fatalf("SearchSpace(1,1) = %v, want 45", got)
	}
	// (0,0): just the empty set.
	if got := c.SearchSpace(0, 0); got != 1 {
		t.Fatalf("SearchSpace(0,0) = %v, want 1", got)
	}
	// Budgets above device counts clamp.
	if got := c.SearchSpace(100, 100); got != 256*16 {
		t.Fatalf("SearchSpace(100,100) = %v, want 4096", got)
	}
}

func TestDeliveredMatchesAnalyzer(t *testing.T) {
	c, a := caseStudy(t, false)
	for _, down := range []map[scadanet.DeviceID]bool{nil, {9: true}, {11: true}} {
		for _, secured := range []bool{false, true} {
			got := c.Delivered(down, nil, secured)
			want := a.DeliveredMeasurements(down, secured)
			if len(got) != len(want) {
				t.Fatalf("down=%v secured=%v: %v vs %v", down, secured, got, want)
			}
			for z := range want {
				if !got[z] {
					t.Fatalf("down=%v secured=%v: missing %d", down, secured, z)
				}
			}
		}
	}
}

// TestLinkCutsMatchAnalyzerEval: under every single-link cut, with and
// without device failures, the BFS evaluators agree with the analyzer's
// direct evaluator.
func TestLinkCutsMatchAnalyzerEval(t *testing.T) {
	c, a := caseStudy(t, false)
	for _, l := range c.cfg.Net.Links() {
		cut := map[scadanet.LinkID]bool{l.ID: true}
		for _, down := range []map[scadanet.DeviceID]bool{nil, {9: true}, {1: true, 5: true}} {
			f := core.Failures{Devices: down, Links: cut}
			for _, secured := range []bool{false, true} {
				if got, want := c.ObservableUnder(down, cut, secured), a.EvalObservabilityUnder(f, secured); got != want {
					t.Fatalf("link %d down=%v secured=%v: baseline=%v analyzer=%v", l.ID, down, secured, got, want)
				}
			}
			if got, want := c.BadDataDetectableUnder(down, cut, 1), a.EvalBadDataDetectabilityUnder(f, 1); got != want {
				t.Fatalf("link %d down=%v r=1: baseline=%v analyzer=%v", l.ID, down, got, want)
			}
		}
	}
}

// TestFindLinkViolation: without a link budget it answers as
// FindViolation does, and a violation it reports under a link budget
// stays within that budget and violates the property.
func TestFindLinkViolation(t *testing.T) {
	c, _ := caseStudy(t, false)
	holds := func(down map[scadanet.DeviceID]bool, cut map[scadanet.LinkID]bool) bool {
		return c.ObservableUnder(down, cut, true)
	}
	for k1 := 0; k1 <= 2; k1++ {
		for k2 := 0; k2 <= 1; k2++ {
			devs, links, ok := c.FindLinkViolation(k1, k2, 0, holds)
			want := c.FindViolation(k1, k2, func(down map[scadanet.DeviceID]bool) bool { return holds(down, nil) })
			if ok != (want != nil) || len(links) != 0 || len(devs) != len(want) {
				t.Fatalf("(%d,%d) kl=0: got %v %v %v, FindViolation %v", k1, k2, devs, links, ok, want)
			}
		}
	}
	found := false
	for kl := 1; kl <= 2; kl++ {
		devs, links, ok := c.FindLinkViolation(0, 0, kl, holds)
		if !ok {
			continue
		}
		found = true
		if len(devs) != 0 || len(links) == 0 || len(links) > kl {
			t.Fatalf("kl=%d: violation %v %v outside the budget", kl, devs, links)
		}
		cut := map[scadanet.LinkID]bool{}
		for _, id := range links {
			cut[id] = true
		}
		if holds(nil, cut) {
			t.Fatalf("kl=%d: reported cut %v does not violate the property", kl, links)
		}
	}
	if !found {
		t.Fatal("no link cut of size <= 2 violates secured observability on the case study")
	}
}
