package synth

import (
	"errors"
	"testing"
	"testing/quick"

	"scadaver/internal/powergrid"
	"scadaver/internal/scadanet"
)

func TestGenerateBasic(t *testing.T) {
	cfg, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Full measurement set: 2*20 + 14 = 54 measurements.
	if cfg.Msrs.Len() != 54 {
		t.Fatalf("measurements = %d, want 54", cfg.Msrs.Len())
	}
	// IED count per Section V-A: 40 flows in pairs (20) + 14 injections.
	nIED := len(cfg.Net.DevicesOfKind(scadanet.IED))
	if nIED != 34 {
		t.Fatalf("IEDs = %d, want 34", nIED)
	}
	nRTU := len(cfg.Net.DevicesOfKind(scadanet.RTU))
	if nRTU != 34/3 {
		t.Fatalf("RTUs = %d, want %d", nRTU, 34/3)
	}
	if len(cfg.Net.DevicesOfKind(scadanet.MTU)) != 1 {
		t.Fatal("must have one MTU")
	}
	// Every measurement assigned exactly once.
	seen := map[int]int{}
	for _, d := range cfg.Net.DevicesOfKind(scadanet.IED) {
		for _, z := range cfg.Net.MeasurementsOf(d.ID) {
			seen[z]++
		}
	}
	for z := 1; z <= cfg.Msrs.Len(); z++ {
		if seen[z] != 1 {
			t.Fatalf("measurement %d assigned %d times", z, seen[z])
		}
	}
	// Every IED reaches the MTU.
	hops := cfg.Net.ReachMTU(nil, nil)
	for _, d := range cfg.Net.DevicesOfKind(scadanet.IED) {
		if _, ok := hops[d.ID]; !ok {
			t.Fatalf("IED %d unreachable", d.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Bus: powergrid.IEEE14(), Seed: 42, Hierarchy: 2}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Net.Links()) != len(b.Net.Links()) {
		t.Fatal("nondeterministic link count")
	}
	for i, la := range a.Net.Links() {
		lb := b.Net.Links()[i]
		if la.A != lb.A || la.B != lb.B || len(la.Profiles) != len(lb.Profiles) {
			t.Fatalf("link %d differs", i)
		}
	}
	c, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 43, Hierarchy: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Net.Links()) == len(c.Net.Links())
	if same {
		diff := false
		for i, la := range a.Net.Links() {
			lc := c.Net.Links()[i]
			if la.A != lc.A || la.B != lc.B {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestGenerateHierarchyDepth(t *testing.T) {
	for _, h := range []int{1, 2, 3, 4} {
		cfg, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 7, Hierarchy: h})
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		// The shortest path of every IED has exactly h intermediate
		// RTUs (IEDs attach to deepest-level RTUs; the RTU tree has h
		// levels).
		hops := cfg.Net.ReachMTU(nil, nil)
		for _, d := range cfg.Net.DevicesOfKind(scadanet.IED) {
			shortest, ok := hops[d.ID]
			if !ok {
				t.Fatalf("h=%d: IED %d unreachable", h, d.ID)
			}
			// Path links = intermediate RTUs + 1 (RTU→...→MTU).
			if shortest != h+1 {
				t.Fatalf("h=%d: IED %d shortest path has %d hops, want %d", h, d.ID, shortest, h+1)
			}
		}
	}
}

func TestGenerateMeasurementPercent(t *testing.T) {
	full, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 1, MeasurementPercent: 50})
	if err != nil {
		t.Fatal(err)
	}
	if half.Msrs.Len() != (full.Msrs.Len()+1)/2 {
		t.Fatalf("50%%: %d of %d", half.Msrs.Len(), full.Msrs.Len())
	}
}

func TestGenerateSecureFractionExtremes(t *testing.T) {
	// SecureFraction=1: all IED uplinks authenticated+integrity.
	cfg, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 5, SecureFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cfg.Net.DevicesOfKind(scadanet.IED) {
		l := uplink(cfg, d.ID)
		if len(l.Profiles) != 2 {
			t.Fatalf("IED %d uplink not fully secured: %v", d.ID, l.Profiles)
		}
	}
	// SecureFraction≈0 (negative forces the weak branch): some weak
	// uplinks appear.
	weakCfg, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 5, SecureFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	weak := 0
	for _, d := range weakCfg.Net.DevicesOfKind(scadanet.IED) {
		l := uplink(weakCfg, d.ID)
		if len(l.Profiles) < 2 {
			weak++
		}
	}
	if weak == 0 {
		t.Fatal("SecureFraction<0 produced no weak uplinks")
	}
}

// uplink returns the first link of the IED.
func uplink(cfg *scadanet.Config, ied scadanet.DeviceID) *scadanet.Link {
	for _, l := range cfg.Net.Links() {
		if l.A == ied || l.B == ied {
			return l
		}
	}
	return nil
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Params{}); !errors.Is(err, ErrNilBus) {
		t.Fatalf("want ErrNilBus, got %v", err)
	}
}

func TestGenerateLargerSystems(t *testing.T) {
	for _, sys := range []*powergrid.BusSystem{powergrid.IEEE30(), powergrid.IEEE57(), powergrid.IEEE118()} {
		cfg, err := Generate(Params{Bus: sys, Seed: 11, Hierarchy: 2})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		nDev := len(cfg.Net.DevicesOfKind(scadanet.IED)) + len(cfg.Net.DevicesOfKind(scadanet.RTU))
		// The paper reports ~400 field devices at 118 buses.
		if sys.Name == "ieee118" && (nDev < 300 || nDev > 500) {
			t.Fatalf("118-bus device count %d outside the paper's scale", nDev)
		}
	}
}

func TestQuickGeneratedConfigsValid(t *testing.T) {
	f := func(seed int64, hRaw, pctRaw uint8) bool {
		h := 1 + int(hRaw)%4
		pct := 40 + float64(pctRaw%61) // 40..100
		cfg, err := Generate(Params{
			Bus:                powergrid.IEEE14(),
			Seed:               seed,
			Hierarchy:          h,
			MeasurementPercent: pct,
		})
		if err != nil {
			return false
		}
		if cfg.Validate() != nil {
			return false
		}
		hops := cfg.Net.ReachMTU(nil, nil)
		for _, d := range cfg.Net.DevicesOfKind(scadanet.IED) {
			if _, ok := hops[d.ID]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateKnobs(t *testing.T) {
	// RTUsPerIEDs controls the RTU count.
	dense, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 2, RTUsPerIEDs: 2})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 2, RTUsPerIEDs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(dense.Net.DevicesOfKind(scadanet.RTU)) <= len(sparse.Net.DevicesOfKind(scadanet.RTU)) {
		t.Fatal("RTUsPerIEDs knob has no effect")
	}
	// CrossLinkProb adds redundant RTU-RTU links.
	linked, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 2, Hierarchy: 2, CrossLinkProb: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 2, Hierarchy: 2, CrossLinkProb: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(linked.Net.Links()) <= len(plain.Net.Links()) {
		t.Fatalf("CrossLinkProb knob has no effect: %d vs %d", len(linked.Net.Links()), len(plain.Net.Links()))
	}
	// The resiliency spec is copied through.
	spec, err := Generate(Params{Bus: powergrid.IEEE14(), Seed: 1, K1: 2, K2: 1, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if spec.K1 != 2 || spec.K2 != 1 || spec.R != 2 {
		t.Fatalf("spec = (%d,%d,%d)", spec.K1, spec.K2, spec.R)
	}
}
