package lint

import (
	"strings"
	"testing"

	"scadaver/internal/powergrid"
	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
)

func cleanConfig(t *testing.T) *scadanet.Config {
	t.Helper()
	net := scadanet.NewNetwork()
	strong := []secpolicy.Profile{
		{Algo: secpolicy.CHAP, KeyBits: 64},
		{Algo: secpolicy.SHA2, KeyBits: 256},
	}
	for _, d := range []scadanet.Device{
		{ID: 1, Kind: scadanet.IED},
		{ID: 2, Kind: scadanet.IED},
		{ID: 3, Kind: scadanet.RTU},
		{ID: 4, Kind: scadanet.RTU},
		{ID: 5, Kind: scadanet.MTU},
	} {
		if _, err := net.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]scadanet.DeviceID{{1, 3}, {2, 4}, {1, 4}, {2, 3}, {3, 5}, {4, 5}} {
		if _, err := net.AddLink(pair[0], pair[1], strong...); err != nil {
			t.Fatal(err)
		}
	}
	// 2 states, 3 measurements: both states doubly covered.
	ms, err := powergrid.FromJacobian([][]float64{{1, -1}, {-1, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AssignMeasurements(1, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := net.AssignMeasurements(2, 2); err != nil {
		t.Fatal(err)
	}
	return &scadanet.Config{Msrs: ms, Net: net}
}

func TestCleanConfigNoFindings(t *testing.T) {
	rep := Check(cleanConfig(t), nil)
	if len(rep.Findings) != 0 {
		t.Fatalf("clean config has findings:\n%v", rep)
	}
	if rep.HasErrors() {
		t.Fatal("HasErrors on empty report")
	}
	if !strings.Contains(rep.String(), "no findings") {
		t.Fatalf("String = %q", rep.String())
	}
}

func TestProtocolMismatch(t *testing.T) {
	cfg := cleanConfig(t)
	cfg.Net.Device(1).Protocols = []scadanet.Protocol{scadanet.DNP3}
	cfg.Net.Device(3).Protocols = []scadanet.Protocol{scadanet.Modbus}
	rep := Check(cfg, nil)
	if got := rep.ByCode(CodeProtocolMismatch); len(got) != 1 {
		t.Fatalf("protocol findings = %v", rep)
	}
	if !rep.HasErrors() {
		t.Fatal("protocol mismatch must be an error")
	}
}

func TestCryptoMismatchAndBroken(t *testing.T) {
	cfg := cleanConfig(t)
	// One-sided crypto on a device pair (device-level profiles, link
	// without explicit profile).
	l, err := cfg.Net.AddLink(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = l
	cfg.Net.Device(1).Profiles = []secpolicy.Profile{{Algo: secpolicy.HMAC, KeyBits: 128}}
	rep := Check(cfg, nil)
	if got := rep.ByCode(CodeCryptoMismatch); len(got) == 0 {
		t.Fatalf("missing crypto-mismatch finding:\n%v", rep)
	}

	cfg2 := cleanConfig(t)
	cfg2.Net.Links()[0].Profiles = []secpolicy.Profile{{Algo: secpolicy.DES, KeyBits: 56}}
	rep2 := Check(cfg2, nil)
	if got := rep2.ByCode(CodeBrokenCrypto); len(got) != 1 {
		t.Fatalf("broken-crypto findings:\n%v", rep2)
	}
}

func TestWeakCryptoAndNoIntegrity(t *testing.T) {
	cfg := cleanConfig(t)
	cfg.Net.Links()[0].Profiles = []secpolicy.Profile{{Algo: secpolicy.HMAC, KeyBits: 64}}
	rep := Check(cfg, nil)
	if got := rep.ByCode(CodeWeakCrypto); len(got) != 1 {
		t.Fatalf("weak-crypto findings:\n%v", rep)
	}
	if got := rep.ByCode(CodeNoIntegrity); len(got) != 1 {
		t.Fatalf("no-integrity findings:\n%v", rep)
	}
}

func TestUnreachableAndIdleIED(t *testing.T) {
	cfg := cleanConfig(t)
	if _, err := cfg.Net.AddDevice(scadanet.Device{ID: 9, Kind: scadanet.IED}); err != nil {
		t.Fatal(err)
	}
	rep := Check(cfg, nil)
	if got := rep.ByCode(CodeUnreachableIED); len(got) != 1 {
		t.Fatalf("unreachable findings:\n%v", rep)
	}
	if got := rep.ByCode(CodeIdleIED); len(got) != 1 {
		t.Fatalf("idle findings:\n%v", rep)
	}
}

func TestMeasurementAssignments(t *testing.T) {
	cfg := cleanConfig(t)
	// Unassign z2 by reassigning IED2 to z1 (now duplicate with IED1).
	net := cfg.Net
	// Rebuild assignments: easiest is a new config.
	cfg2 := cleanConfig(t)
	_ = net
	if err := cfg2.Net.AssignMeasurements(2, 1); err != nil {
		t.Fatal(err)
	}
	rep := Check(cfg2, nil)
	if got := rep.ByCode(CodeDuplicateMsr); len(got) != 1 {
		t.Fatalf("duplicate findings:\n%v", rep)
	}
}

func TestSinglePointRTU(t *testing.T) {
	cfg := cleanConfig(t)
	// Remove the cross links so IED1 depends solely on RTU3.
	cfg.Net.RemoveLink(cfg.Net.LinkBetween(1, 4).ID)
	cfg.Net.RemoveLink(cfg.Net.LinkBetween(2, 3).ID)
	rep := Check(cfg, nil)
	if got := rep.ByCode(CodeSinglePointRTU); len(got) != 2 {
		t.Fatalf("single-point findings:\n%v", rep)
	}
}

// TestDenseMeshRTUWithBypassNotSinglePoint builds an IED whose first
// uplink enters a complete mesh of ten RTUs (over 100,000 simple paths
// to the MTU) and whose second uplink bypasses the mesh. No RTU is then
// a single point of failure, however many paths run through the mesh;
// without the bypass, the entry and exit RTUs of the mesh are.
func TestDenseMeshRTUWithBypassNotSinglePoint(t *testing.T) {
	build := func(bypass bool) *scadanet.Config {
		net := scadanet.NewNetwork()
		devs := []scadanet.Device{{ID: 1, Kind: scadanet.IED}, {ID: 3, Kind: scadanet.RTU}, {ID: 99, Kind: scadanet.MTU}}
		mesh := []scadanet.DeviceID{2, 10, 11, 12, 13, 14, 15, 16, 17, 18}
		for _, id := range mesh {
			devs = append(devs, scadanet.Device{ID: id, Kind: scadanet.RTU})
		}
		for _, d := range devs {
			if _, err := net.AddDevice(d); err != nil {
				t.Fatal(err)
			}
		}
		link := func(a, b scadanet.DeviceID) {
			if _, err := net.AddLink(a, b); err != nil {
				t.Fatal(err)
			}
		}
		link(1, 2)
		for i, a := range mesh {
			for _, b := range mesh[i+1:] {
				link(a, b)
			}
		}
		link(18, 99)
		if bypass {
			link(1, 3)
			link(3, 99)
		}
		ms, err := powergrid.FromJacobian([][]float64{{1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AssignMeasurements(1, 1); err != nil {
			t.Fatal(err)
		}
		return &scadanet.Config{Msrs: ms, Net: net}
	}
	if got := Check(build(true), nil).ByCode(CodeSinglePointRTU); len(got) != 0 {
		t.Fatalf("bypassed mesh RTUs flagged: %v", got)
	}
	got := Check(build(false), nil).ByCode(CodeSinglePointRTU)
	if len(got) != 2 || got[0].Device != 2 || got[1].Device != 18 {
		t.Fatalf("single-point findings without the bypass = %v, want RTUs 2 and 18", got)
	}
}

func TestCriticalMeasurement(t *testing.T) {
	net := scadanet.NewNetwork()
	for _, d := range []scadanet.Device{
		{ID: 1, Kind: scadanet.IED},
		{ID: 2, Kind: scadanet.RTU},
		{ID: 3, Kind: scadanet.MTU},
	} {
		if _, err := net.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddLink(2, 3); err != nil {
		t.Fatal(err)
	}
	ms, err := powergrid.FromJacobian([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AssignMeasurements(1, 1); err != nil {
		t.Fatal(err)
	}
	rep := Check(&scadanet.Config{Msrs: ms, Net: net}, nil)
	if got := rep.ByCode(CodeCriticalMsr); len(got) != 1 {
		t.Fatalf("critical findings:\n%v", rep)
	}
	// The single RTU is also a single point of failure.
	if got := rep.ByCode(CodeSinglePointRTU); len(got) != 1 {
		t.Fatalf("single-point findings:\n%v", rep)
	}
}

func TestDownFlags(t *testing.T) {
	cfg := cleanConfig(t)
	cfg.Net.Device(3).Down = true
	cfg.Net.Links()[0].Down = true
	rep := Check(cfg, nil)
	if len(rep.ByCode(CodeDeviceDown)) != 1 || len(rep.ByCode(CodeLinkDown)) != 1 {
		t.Fatalf("down findings:\n%v", rep)
	}
}

func TestCaseStudyLint(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(cfg, nil)
	// The case study has known weak spots: hmac-only links (no
	// integrity) and the bare 4-10 link; RTUs are single points for
	// their IEDs; no hard errors.
	if rep.HasErrors() {
		t.Fatalf("case study should have no errors:\n%v", rep)
	}
	if len(rep.ByCode(CodeNoIntegrity)) < 2 {
		t.Fatalf("expected no-integrity findings for hmac links:\n%v", rep)
	}
	if len(rep.ByCode(CodeSinglePointRTU)) == 0 {
		t.Fatalf("expected single-point RTU findings:\n%v", rep)
	}
	// Findings are sorted most-severe first.
	for i := 1; i < len(rep.Findings); i++ {
		if rep.Findings[i].Severity > rep.Findings[i-1].Severity {
			t.Fatal("findings not sorted by severity")
		}
	}
}

func TestSeverityString(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Error.String() != "error" || Severity(0).String() != "unknown" {
		t.Fatal("Severity.String broken")
	}
}

func TestSingleLinkCutFinding(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(cfg, nil)
	// Every case-study IED has exactly one uplink: all eight are
	// single-link-cut.
	if got := rep.ByCode(CodeSingleLinkCut); len(got) != 8 {
		t.Fatalf("single-link-cut findings = %d, want 8:\n%v", len(got), rep)
	}
}
