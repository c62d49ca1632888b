package core

import (
	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
)

// This file provides a direct (non-SAT) evaluator of the modeled
// properties under a concrete failure set. It is used to minimize threat
// vectors and serves as a second implementation cross-checked against
// the formal encoding in tests.

// Failures is a concrete contingency: unavailable devices and failed
// links (elements mapped to true are down).
type Failures struct {
	Devices map[scadanet.DeviceID]bool
	Links   map[scadanet.LinkID]bool
}

// DeliveredMeasurements returns the set of 1-based measurement IDs that
// reach the MTU under the device failure set `down` (devices mapped to
// true are unavailable). With secured=true every hop must additionally
// be authenticated and integrity-protected under the analyzer's policy
// (SecuredDelivery); otherwise plain AssuredDelivery is evaluated.
func (a *Analyzer) DeliveredMeasurements(down map[scadanet.DeviceID]bool, secured bool) map[int]bool {
	return a.DeliveredMeasurementsUnder(Failures{Devices: down}, secured)
}

// DeliveredMeasurementsUnder generalizes DeliveredMeasurements to
// contingencies that include link failures. Delivery is decided by a
// breadth-first search from the MTU over the surviving devices and the
// usable links, independent of the CNF encoding: forwarding passes
// through RTUs and routers only, and a field device is down when it is
// statically down or failed in f. A link is usable when it is neither
// statically down nor failed, both pairings hold and, if secured, the
// hop authenticates and protects integrity.
func (a *Analyzer) DeliveredMeasurementsUnder(f Failures, secured bool) map[int]bool {
	reach := a.cfg.Net.ReachMTU(
		func(d *scadanet.Device) bool { return !d.FieldDevice() || !d.Down && !f.Devices[d.ID] },
		func(l *scadanet.Link) bool {
			if l.Down || f.Links[l.ID] {
				return false
			}
			if protoOK, cryptoOK := a.cfg.Net.HopPairing(l); !protoOK || !cryptoOK {
				return false
			}
			return !secured || a.cfg.Net.HopCaps(l, a.policy).Has(secpolicy.Authenticates|secpolicy.IntegrityProtects)
		})
	out := make(map[int]bool)
	for _, d := range a.fieldIEDs {
		if _, ok := reach[d.ID]; !ok {
			continue
		}
		for _, z := range a.cfg.Net.MeasurementsOf(d.ID) {
			out[z] = true
		}
	}
	return out
}

// EvalObservability evaluates the paper's observability condition under
// a concrete device failure set: the delivered (or securely delivered)
// measurements cover every state, and the number of unique delivered
// measurements (one per UMsrSet_E group) is at least the number of
// states.
func (a *Analyzer) EvalObservability(down map[scadanet.DeviceID]bool, secured bool) bool {
	return a.EvalObservabilityUnder(Failures{Devices: down}, secured)
}

// EvalObservabilityUnder generalizes EvalObservability to contingencies
// that include link failures.
func (a *Analyzer) EvalObservabilityUnder(f Failures, secured bool) bool {
	delivered := a.DeliveredMeasurementsUnder(f, secured)
	n := a.cfg.Msrs.NStates

	covered := make([]bool, n)
	for z := range delivered {
		for _, x := range a.stateSets[z-1] {
			covered[x] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}

	unique := 0
	for _, group := range a.groups {
		for _, z0 := range group {
			if delivered[z0+1] {
				unique++
				break
			}
		}
	}
	return unique >= n
}

// EvalBadDataDetectability evaluates r-bad-data detectability under a
// concrete device failure set: every state must be covered by at least
// r+1 securely delivered measurements (only secured measurements are
// trusted for bad-data detection).
func (a *Analyzer) EvalBadDataDetectability(down map[scadanet.DeviceID]bool, r int) bool {
	return a.EvalBadDataDetectabilityUnder(Failures{Devices: down}, r)
}

// EvalBadDataDetectabilityUnder generalizes EvalBadDataDetectability to
// contingencies that include link failures.
func (a *Analyzer) EvalBadDataDetectabilityUnder(f Failures, r int) bool {
	delivered := a.DeliveredMeasurementsUnder(f, true)
	n := a.cfg.Msrs.NStates
	counts := make([]int, n)
	for z := range delivered {
		for _, x := range a.stateSets[z-1] {
			counts[x]++
		}
	}
	for _, c := range counts {
		if c < r+1 {
			return false
		}
	}
	return true
}
