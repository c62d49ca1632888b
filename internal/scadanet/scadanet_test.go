package scadanet

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"scadaver/internal/secpolicy"
)

func buildTiny(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	devs := []Device{
		{ID: 1, Kind: IED},
		{ID: 2, Kind: IED},
		{ID: 10, Kind: RTU},
		{ID: 11, Kind: RTU},
		{ID: 20, Kind: MTU},
	}
	for _, d := range devs {
		if _, err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(a, b DeviceID) {
		t.Helper()
		if _, err := n.AddLink(a, b); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(1, 10)
	mustLink(2, 11)
	mustLink(10, 20)
	mustLink(11, 20)
	mustLink(10, 11)
	if err := n.AssignMeasurements(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.AssignMeasurements(2, 3); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkBasics(t *testing.T) {
	n := buildTiny(t)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.MTUID() != 20 {
		t.Fatalf("MTUID = %d", n.MTUID())
	}
	if len(n.Devices()) != 5 || len(n.Links()) != 5 {
		t.Fatalf("%d devices, %d links", len(n.Devices()), len(n.Links()))
	}
	if got := n.DevicesOfKind(IED); len(got) != 2 || got[0].ID != 1 {
		t.Fatalf("IEDs = %v", got)
	}
	if l := n.LinkBetween(10, 1); l == nil || !l.Connects(1, 10) {
		t.Fatal("LinkBetween broken")
	}
	if n.LinkBetween(1, 2) != nil {
		t.Fatal("phantom link")
	}
	if got := n.MeasurementsOf(1); len(got) != 2 || got[0] != 1 {
		t.Fatalf("MeasurementsOf = %v", got)
	}
	if got := n.MeasurementsOf(99); len(got) != 0 {
		t.Fatalf("unknown IED measurements = %v", got)
	}
}

func TestNetworkErrors(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddDevice(Device{ID: 1, Kind: IED}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddDevice(Device{ID: 1, Kind: RTU}); !errors.Is(err, ErrDuplicateDevice) {
		t.Fatalf("want ErrDuplicateDevice, got %v", err)
	}
	if _, err := n.AddLink(1, 99); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("want ErrUnknownDevice, got %v", err)
	}
	if err := n.AssignMeasurements(99, 1); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("want ErrUnknownDevice, got %v", err)
	}
	if err := n.Validate(); !errors.Is(err, ErrNoMTU) {
		t.Fatalf("want ErrNoMTU, got %v", err)
	}
	if _, err := n.AddDevice(Device{ID: 2, Kind: MTU}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddDevice(Device{ID: 3, Kind: MTU}); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); !errors.Is(err, ErrMultipleMTU) {
		t.Fatalf("want ErrMultipleMTU, got %v", err)
	}
	if err := n.AssignMeasurements(2, 1); !errors.Is(err, ErrNotIED) {
		t.Fatalf("want ErrNotIED, got %v", err)
	}
}

func TestDeviceKindStringAndParse(t *testing.T) {
	for _, k := range []DeviceKind{IED, RTU, MTU, Router} {
		parsed, err := ParseDeviceKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("round trip %v: %v %v", k, parsed, err)
		}
	}
	if k, err := ParseDeviceKind("plc"); err != nil || k != IED {
		t.Fatalf("plc: %v %v", k, err)
	}
	if _, err := ParseDeviceKind("toaster"); err == nil {
		t.Fatal("expected error")
	}
	if DeviceKind(0).String() != "unknown" {
		t.Fatal("zero kind String")
	}
}

func TestSharesProtocol(t *testing.T) {
	a := &Device{Protocols: []Protocol{DNP3}}
	b := &Device{Protocols: []Protocol{Modbus}}
	c := &Device{Protocols: []Protocol{Modbus, DNP3}}
	anyDev := &Device{}
	if a.SharesProtocol(b) {
		t.Fatal("dnp3 vs modbus should not pair")
	}
	if !a.SharesProtocol(c) || !b.SharesProtocol(c) {
		t.Fatal("shared protocol missed")
	}
	if !a.SharesProtocol(anyDev) || !anyDev.SharesProtocol(b) {
		t.Fatal("protocol-agnostic device must pair")
	}
}

func TestReachMTU(t *testing.T) {
	n := buildTiny(t)
	// IED1: 1-10-20; IED2: 2-11-20.
	hops := n.ReachMTU(nil, nil)
	want := map[DeviceID]int{20: 0, 10: 1, 11: 1, 1: 2, 2: 2}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v, want %v", hops, want)
	}
	for id, h := range want {
		if got, ok := hops[id]; !ok || got != h {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
	// RTU 10 is IED1's only uplink; IED2 does not need it.
	hops = n.ReachMTU(func(d *Device) bool { return d.ID != 10 }, nil)
	if _, ok := hops[1]; ok {
		t.Fatalf("IED1 reaches without its RTU: %v", hops)
	}
	if hops[2] != 2 {
		t.Fatalf("IED2 hops = %d without RTU 10", hops[2])
	}
	// Without link 10-20, IED1 goes around over RTU 11.
	direct := n.LinkBetween(10, 20)
	hops = n.ReachMTU(nil, func(l *Link) bool { return l != direct })
	if hops[1] != 3 {
		t.Fatalf("IED1 hops = %d without link 10-20, want 3", hops[1])
	}
	// IEDs do not forward: a link between the IEDs carries nothing.
	if _, err := n.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	hops = n.ReachMTU(func(d *Device) bool { return d.ID != 10 }, nil)
	if _, ok := hops[1]; ok {
		t.Fatalf("IED1 reaches through IED2: %v", hops)
	}
	if NewNetwork().ReachMTU(nil, nil) != nil {
		t.Fatal("a network without an MTU reaches nothing")
	}
}

func TestLinkOther(t *testing.T) {
	l := &Link{A: 3, B: 7}
	if l.Other(3) != 7 || l.Other(7) != 3 || l.Other(5) != 0 {
		t.Fatal("Other broken")
	}
}

func TestHopCapsAndPairing(t *testing.T) {
	n := buildTiny(t)
	pol := secpolicy.Default()
	l := n.LinkBetween(1, 10)

	// Bare link between profile-less devices: pairs, but no caps.
	proto, crypto := n.HopPairing(l)
	if !proto || !crypto {
		t.Fatal("bare hop should pair")
	}
	if caps := n.HopCaps(l, pol); caps != 0 {
		t.Fatalf("bare hop caps = %v", caps)
	}

	// Link-level profile dominates.
	l.Profiles = []secpolicy.Profile{{Algo: secpolicy.CHAP, KeyBits: 64}, {Algo: secpolicy.SHA2, KeyBits: 256}}
	if caps := n.HopCaps(l, pol); !caps.Has(secpolicy.Authenticates | secpolicy.IntegrityProtects) {
		t.Fatalf("link profile caps = %v", caps)
	}
	if _, crypto := n.HopPairing(l); !crypto {
		t.Fatal("explicit link profile implies crypto pairing")
	}

	// Device-level pairing: both sides must share an algorithm.
	l2 := n.LinkBetween(2, 11)
	n.Device(2).Profiles = []secpolicy.Profile{{Algo: secpolicy.HMAC, KeyBits: 128}}
	n.Device(11).Profiles = []secpolicy.Profile{{Algo: secpolicy.AES, KeyBits: 256}}
	if _, crypto := n.HopPairing(l2); crypto {
		t.Fatal("disjoint device profiles must not pair")
	}
	n.Device(11).Profiles = append(n.Device(11).Profiles, secpolicy.Profile{Algo: secpolicy.HMAC, KeyBits: 256})
	if _, crypto := n.HopPairing(l2); !crypto {
		t.Fatal("shared algorithm must pair")
	}
	if caps := n.HopCaps(l2, pol); !caps.Has(secpolicy.Authenticates) {
		t.Fatalf("device-pair caps = %v", caps)
	}
}

func TestRemoveLink(t *testing.T) {
	n := buildTiny(t)
	l := n.LinkBetween(10, 11)
	if !n.RemoveLink(l.ID) {
		t.Fatal("RemoveLink failed")
	}
	if n.LinkBetween(10, 11) != nil {
		t.Fatal("link survived removal")
	}
	if n.RemoveLink(l.ID) {
		t.Fatal("double removal succeeded")
	}
	// IED1 no longer goes around over RTU 11.
	direct := n.LinkBetween(10, 20)
	if _, ok := n.ReachMTU(nil, func(l *Link) bool { return l != direct })[1]; ok {
		t.Fatal("IED1 reaches the MTU around a removed link")
	}
}

func TestCaseStudyConfig(t *testing.T) {
	for _, fig4 := range []bool{false, true} {
		cfg, err := CaseStudyConfig(fig4)
		if err != nil {
			t.Fatalf("fig4=%v: %v", fig4, err)
		}
		if cfg.Msrs.Len() != 14 || cfg.Msrs.NStates != 5 {
			t.Fatalf("measurements %d states %d", cfg.Msrs.Len(), cfg.Msrs.NStates)
		}
		if got := len(cfg.Net.DevicesOfKind(IED)); got != 8 {
			t.Fatalf("IEDs = %d", got)
		}
		if got := len(cfg.Net.DevicesOfKind(RTU)); got != 4 {
			t.Fatalf("RTUs = %d", got)
		}
		if got := len(cfg.Net.Links()); got != 13 {
			t.Fatalf("links = %d", got)
		}
		// All 14 measurements are assigned exactly once.
		seen := map[int]int{}
		for _, d := range cfg.Net.DevicesOfKind(IED) {
			for _, z := range cfg.Net.MeasurementsOf(d.ID) {
				seen[z]++
			}
		}
		for z := 1; z <= 14; z++ {
			if seen[z] != 1 {
				t.Fatalf("measurement %d assigned %d times", z, seen[z])
			}
		}
		// Topology difference between the figures.
		if fig4 {
			if cfg.Net.LinkBetween(9, 14) != nil || cfg.Net.LinkBetween(9, 12) == nil {
				t.Fatal("fig4 rewiring missing")
			}
		} else {
			if cfg.Net.LinkBetween(9, 14) == nil {
				t.Fatal("fig3 link 9-14 missing")
			}
		}
		// Every IED reaches the MTU.
		hops := cfg.Net.ReachMTU(nil, nil)
		for _, d := range cfg.Net.DevicesOfKind(IED) {
			if _, ok := hops[d.ID]; !ok {
				t.Fatalf("IED %d unreachable", d.ID)
			}
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg, err := CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	back, err := ParseConfig(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, buf.String())
	}
	if back.Msrs.Len() != cfg.Msrs.Len() || back.Msrs.NStates != cfg.Msrs.NStates {
		t.Fatal("measurement model changed in round trip")
	}
	if len(back.Net.Links()) != len(cfg.Net.Links()) {
		t.Fatal("link count changed")
	}
	if back.K1 != cfg.K1 || back.K2 != cfg.K2 || back.R != cfg.R {
		t.Fatal("resiliency spec changed")
	}
	// Security profiles survive.
	l := back.Net.LinkBetween(2, 9)
	if l == nil || len(l.Profiles) != 2 {
		t.Fatalf("security profiles lost: %+v", l)
	}
	// Jacobian rows survive numerically.
	for z := 0; z < cfg.Msrs.Len(); z++ {
		for x := 0; x < cfg.Msrs.NStates; x++ {
			if back.Msrs.Msrs[z].Row[x] != cfg.Msrs.Msrs[z].Row[x] {
				t.Fatalf("jacobian[%d][%d] changed", z, x)
			}
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"content before section", "5 5\n"},
		{"unknown section", "[bogus]\nx\n"},
		{"bad jacobian entry", "[jacobian]\n1 x\n"},
		{"bad device kind", "[jacobian]\n1 0\n[devices]\ntoaster 1\n"},
		{"bad link", "[jacobian]\n1 0\n[devices]\nied 1\nmtu 2\n[links]\n1\n"},
		{"unknown link device", "[jacobian]\n1 0\n[devices]\nied 1\nmtu 2\n[links]\n1 9\n"},
		{"security for missing link", "[jacobian]\n1 0\n[devices]\nied 1\nmtu 2\n[links]\n1 2\n[security]\n1 9 hmac 128\n"},
		{"bad resiliency", "[jacobian]\n1 0\n[devices]\nied 1\nmtu 2\n[resiliency]\nx y\n"},
		{"missing jacobian", "[devices]\nied 1\nmtu 2\n"},
		{"msr out of range", "[jacobian]\n1 0\n[devices]\nied 1\nmtu 2\n[links]\n1 2\n[measurements]\n1 5\n"},
		{"negative resiliency", "[jacobian]\n1 0\n[devices]\nied 1\nmtu 2\n[links]\n1 2\n[resiliency]\n-1 0\n"},
	}
	for _, tc := range cases {
		if _, err := ParseConfig(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseConfigComments(t *testing.T) {
	in := `
# a comment
[jacobian]
1 -1
-1 1

[devices]
ied 1 2
rtu 3
mtu 4

[links]
1 3
2 3
3 4

[measurements]
1 1
2 2

[protocols]
1 dnp3 modbus

[resiliency]
0 0 1
`
	cfg, err := ParseConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Msrs.Len() != 2 || cfg.K1 != 0 || cfg.K2 != 0 || cfg.R != 1 {
		t.Fatalf("cfg = %+v", cfg)
	}
	d := cfg.Net.Device(1)
	if len(d.Protocols) != 2 || d.Protocols[0] != DNP3 {
		t.Fatalf("protocols = %v", d.Protocols)
	}
}
