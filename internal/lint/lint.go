// Package lint statically checks SCADA configurations for the
// misconfiguration classes the paper names as the first cause of
// dependability threats (Section II-B): protocol inconsistencies between
// communicating devices, one-sided or broken cryptographic
// configurations, unreachable field devices, unassigned or doubly
// assigned measurements, and missing redundancy (critical measurements,
// single points of failure).
package lint

import (
	"fmt"
	"sort"
	"strings"

	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
)

// Severity grades a finding.
type Severity int

// Severities, most severe last.
const (
	Info Severity = iota + 1
	Warning
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "unknown"
}

// Code identifies a finding class.
type Code string

// Finding classes.
const (
	CodeProtocolMismatch Code = "protocol-mismatch"
	CodeCryptoMismatch   Code = "crypto-mismatch"
	CodeBrokenCrypto     Code = "broken-crypto"
	CodeWeakCrypto       Code = "weak-crypto"
	CodeNoIntegrity      Code = "no-integrity"
	CodeUnreachableIED   Code = "unreachable-ied"
	CodeIdleIED          Code = "idle-ied"
	CodeUnassignedMsr    Code = "unassigned-measurement"
	CodeDuplicateMsr     Code = "duplicate-measurement"
	CodeSinglePointRTU   Code = "single-point-rtu"
	CodeSingleLinkCut    Code = "single-link-cut"
	CodeCriticalMsr      Code = "critical-measurement"
	CodeLinkDown         Code = "link-down"
	CodeDeviceDown       Code = "device-down"
)

// Finding is one diagnostic.
type Finding struct {
	Code     Code
	Severity Severity
	Device   scadanet.DeviceID // 0 when not device-specific
	Link     scadanet.LinkID   // 0 when not link-specific
	Message  string
}

// String implements fmt.Stringer.
func (f Finding) String() string {
	return fmt.Sprintf("%s [%s] %s", f.Severity, f.Code, f.Message)
}

// Report is the ordered finding list of one lint run.
type Report struct {
	Findings []Finding
}

// HasErrors reports whether any Error-severity finding exists.
func (r *Report) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// ByCode returns the findings of one class.
func (r *Report) ByCode(c Code) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Code == c {
			out = append(out, f)
		}
	}
	return out
}

// String renders the report, one finding per line.
func (r *Report) String() string {
	if len(r.Findings) == 0 {
		return "no findings\n"
	}
	var sb strings.Builder
	for _, f := range r.Findings {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Check lints a configuration under a policy (nil = default).
func Check(cfg *scadanet.Config, policy *secpolicy.Policy) *Report {
	if policy == nil {
		policy = secpolicy.Default()
	}
	rep := &Report{}
	add := func(f Finding) { rep.Findings = append(rep.Findings, f) }

	// Device-level checks.
	for _, d := range cfg.Net.Devices() {
		if d.Down {
			add(Finding{
				Code: CodeDeviceDown, Severity: Warning, Device: d.ID,
				Message: fmt.Sprintf("%v %d is configured as down", d.Kind, d.ID),
			})
		}
		for _, p := range d.Profiles {
			if policy.Broken(p.Algo) {
				add(Finding{
					Code: CodeBrokenCrypto, Severity: Error, Device: d.ID,
					Message: fmt.Sprintf("device %d advertises broken algorithm %s", d.ID, p),
				})
			}
		}
	}

	// Link-level checks.
	for _, l := range cfg.Net.Links() {
		if l.Down {
			add(Finding{
				Code: CodeLinkDown, Severity: Warning, Link: l.ID,
				Message: fmt.Sprintf("link %d (%d-%d) is configured as down", l.ID, l.A, l.B),
			})
		}
		protoOK, cryptoOK := cfg.Net.HopPairing(l)
		if !protoOK {
			add(Finding{
				Code: CodeProtocolMismatch, Severity: Error, Link: l.ID,
				Message: fmt.Sprintf("devices %d and %d share no communication protocol", l.A, l.B),
			})
		}
		if !cryptoOK {
			add(Finding{
				Code: CodeCryptoMismatch, Severity: Error, Link: l.ID,
				Message: fmt.Sprintf("devices %d and %d cannot negotiate a crypto profile", l.A, l.B),
			})
		}
		for _, p := range l.Profiles {
			if policy.Broken(p.Algo) {
				add(Finding{
					Code: CodeBrokenCrypto, Severity: Error, Link: l.ID,
					Message: fmt.Sprintf("link %d (%d-%d) uses broken algorithm %s", l.ID, l.A, l.B, p),
				})
			} else if policy.Judge([]secpolicy.Profile{p}) == 0 {
				add(Finding{
					Code: CodeWeakCrypto, Severity: Warning, Link: l.ID,
					Message: fmt.Sprintf("link %d (%d-%d): profile %s grants no capability (key too short?)", l.ID, l.A, l.B, p),
				})
			}
		}
		caps := cfg.Net.HopCaps(l, policy)
		if cryptoOK && !caps.Has(secpolicy.Authenticates|secpolicy.IntegrityProtects) {
			add(Finding{
				Code: CodeNoIntegrity, Severity: Warning, Link: l.ID,
				Message: fmt.Sprintf("link %d (%d-%d) is not authenticated and integrity protected (caps: %v)", l.ID, l.A, l.B, caps),
			})
		}
	}

	// Reachability and measurement assignment.
	assigned := map[int][]scadanet.DeviceID{}
	reach := cfg.Net.ReachMTU(nil, nil)
	for _, d := range cfg.Net.DevicesOfKind(scadanet.IED) {
		if _, ok := reach[d.ID]; !ok {
			add(Finding{
				Code: CodeUnreachableIED, Severity: Error, Device: d.ID,
				Message: fmt.Sprintf("IED %d has no path to the MTU", d.ID),
			})
		}
		zs := cfg.Net.MeasurementsOf(d.ID)
		if len(zs) == 0 {
			add(Finding{
				Code: CodeIdleIED, Severity: Info, Device: d.ID,
				Message: fmt.Sprintf("IED %d transmits no measurements", d.ID),
			})
		}
		for _, z := range zs {
			assigned[z] = append(assigned[z], d.ID)
		}
	}
	for z := 1; z <= cfg.Msrs.Len(); z++ {
		switch senders := assigned[z]; {
		case len(senders) == 0:
			add(Finding{
				Code: CodeUnassignedMsr, Severity: Warning,
				Message: fmt.Sprintf("measurement z%d is not transmitted by any IED", z),
			})
		case len(senders) > 1:
			add(Finding{
				Code: CodeDuplicateMsr, Severity: Info,
				Message: fmt.Sprintf("measurement z%d is transmitted by %d IEDs %v", z, len(senders), senders),
			})
		}
	}

	// Redundancy: RTUs that are articulation points for some IED's
	// delivery (their failure disconnects the IED entirely): a vertex
	// cut of one between a reachable IED and the MTU.
	for _, r := range cfg.Net.DevicesOfKind(scadanet.RTU) {
		without := cfg.Net.ReachMTU(func(d *scadanet.Device) bool { return d.ID != r.ID }, nil)
		var cut []scadanet.DeviceID
		for _, d := range cfg.Net.DevicesOfKind(scadanet.IED) {
			_, before := reach[d.ID]
			if _, after := without[d.ID]; before && !after {
				cut = append(cut, d.ID)
			}
		}
		if len(cut) > 0 {
			add(Finding{
				Code: CodeSinglePointRTU, Severity: Warning, Device: r.ID,
				Message: fmt.Sprintf("RTU %d is a single point of failure for IEDs %v", r.ID, cut),
			})
		}
	}

	// Link redundancy: IEDs whose delivery hangs on a single link
	// (min-cut 1 over the usable topology).
	for _, d := range cfg.Net.DevicesOfKind(scadanet.IED) {
		if _, ok := reach[d.ID]; !ok {
			continue // already reported as unreachable
		}
		if c := cfg.Net.LinkMinCut(d.ID, nil); c == 1 {
			add(Finding{
				Code: CodeSingleLinkCut, Severity: Info, Device: d.ID,
				Message: fmt.Sprintf("IED %d depends on a single-link cut (link min-cut 1)", d.ID),
			})
		}
	}

	// Critical measurements: states covered by exactly one measurement
	// (bad data on them is undetectable, per the paper's Section III-E).
	cover := make([]int, cfg.Msrs.NStates)
	for z := 0; z < cfg.Msrs.Len(); z++ {
		if len(assigned[z+1]) == 0 {
			continue
		}
		for _, x := range cfg.Msrs.StateSet(z) {
			cover[x]++
		}
	}
	for x, c := range cover {
		if c == 1 {
			add(Finding{
				Code: CodeCriticalMsr, Severity: Warning,
				Message: fmt.Sprintf("state %d is covered by a single transmitted measurement (critical; bad data undetectable)", x+1),
			})
		}
	}

	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Severity > rep.Findings[j].Severity
	})
	return rep
}
