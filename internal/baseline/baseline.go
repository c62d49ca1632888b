// Package baseline provides an independent, enumeration-based
// implementation of the paper's resiliency checks, used to
// cross-validate the SAT-based verifier and as the comparison point in
// the benchmark harness. Where the verifier encodes delivery as a
// reach net in CNF and searches it with a SAT solver, this package
// decides reachability by breadth-first search over the surviving
// topology, and decides k-resiliency by exhaustively enumerating
// failure combinations.
package baseline

import (
	"math"

	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
)

// Checker evaluates properties of one configuration under concrete
// failure sets.
type Checker struct {
	cfg    *scadanet.Config
	policy *secpolicy.Policy

	stateSets [][]int
	groups    [][]int
	adj       map[scadanet.DeviceID][]*scadanet.Link
}

// New builds a checker with the given policy (nil = default policy).
func New(cfg *scadanet.Config, policy *secpolicy.Policy) *Checker {
	if policy == nil {
		policy = secpolicy.Default()
	}
	adj := map[scadanet.DeviceID][]*scadanet.Link{}
	for _, l := range cfg.Net.Links() {
		adj[l.A] = append(adj[l.A], l)
		adj[l.B] = append(adj[l.B], l)
	}
	return &Checker{
		cfg:       cfg,
		policy:    policy,
		stateSets: cfg.Msrs.StateSets(),
		groups:    cfg.Msrs.UniqueGroups(),
		adj:       adj,
	}
}

// reaches decides, by BFS over alive devices and usable links, whether
// the IED can reach the MTU. A link is usable when it is up — neither
// statically down nor in the failed-link set cut — both pairings hold,
// and (for secured delivery) its hop capabilities include
// authentication and integrity protection.
func (c *Checker) reaches(ied scadanet.DeviceID, down map[scadanet.DeviceID]bool, cut map[scadanet.LinkID]bool, secured bool) bool {
	start := c.cfg.Net.Device(ied)
	if start == nil || start.Down || down[ied] {
		return false
	}
	mtu := c.cfg.Net.MTUID()
	visited := map[scadanet.DeviceID]bool{ied: true}
	queue := []scadanet.DeviceID{ied}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		if at == mtu {
			return true
		}
		for _, l := range c.adj[at] {
			if l.Down || cut[l.ID] {
				continue
			}
			protoOK, cryptoOK := c.cfg.Net.HopPairing(l)
			if !protoOK || !cryptoOK {
				continue
			}
			if secured {
				caps := c.cfg.Net.HopCaps(l, c.policy)
				if !caps.Has(secpolicy.Authenticates | secpolicy.IntegrityProtects) {
					continue
				}
			}
			next := l.Other(at)
			if visited[next] {
				continue
			}
			nd := c.cfg.Net.Device(next)
			// Forwarding goes through RTUs and routers only.
			if next != mtu && nd.Kind != scadanet.RTU && nd.Kind != scadanet.Router {
				continue
			}
			if nd.FieldDevice() && (nd.Down || down[next]) {
				continue
			}
			visited[next] = true
			queue = append(queue, next)
		}
	}
	return false
}

// Delivered returns the 1-based measurement IDs that reach the MTU under
// the failure set: the devices in down and the links in cut failed.
func (c *Checker) Delivered(down map[scadanet.DeviceID]bool, cut map[scadanet.LinkID]bool, secured bool) map[int]bool {
	out := map[int]bool{}
	for _, d := range c.cfg.Net.DevicesOfKind(scadanet.IED) {
		if !c.reaches(d.ID, down, cut, secured) {
			continue
		}
		for _, z := range c.cfg.Net.MeasurementsOf(d.ID) {
			out[z] = true
		}
	}
	return out
}

// Observable evaluates the paper's observability condition under the
// failure set.
func (c *Checker) Observable(down map[scadanet.DeviceID]bool, secured bool) bool {
	return c.ObservableUnder(down, nil, secured)
}

// ObservableUnder is Observable with the links in cut failed as well.
func (c *Checker) ObservableUnder(down map[scadanet.DeviceID]bool, cut map[scadanet.LinkID]bool, secured bool) bool {
	delivered := c.Delivered(down, cut, secured)
	n := c.cfg.Msrs.NStates
	covered := make([]bool, n)
	for z := range delivered {
		for _, x := range c.stateSets[z-1] {
			covered[x] = true
		}
	}
	for _, ok := range covered {
		if !ok {
			return false
		}
	}
	unique := 0
	for _, g := range c.groups {
		for _, z0 := range g {
			if delivered[z0+1] {
				unique++
				break
			}
		}
	}
	return unique >= n
}

// BadDataDetectable evaluates r-bad-data detectability (every state
// covered by at least r+1 secured measurements).
func (c *Checker) BadDataDetectable(down map[scadanet.DeviceID]bool, r int) bool {
	return c.BadDataDetectableUnder(down, nil, r)
}

// BadDataDetectableUnder is BadDataDetectable with the links in cut
// failed as well.
func (c *Checker) BadDataDetectableUnder(down map[scadanet.DeviceID]bool, cut map[scadanet.LinkID]bool, r int) bool {
	delivered := c.Delivered(down, cut, true)
	counts := make([]int, c.cfg.Msrs.NStates)
	for z := range delivered {
		for _, x := range c.stateSets[z-1] {
			counts[x]++
		}
	}
	for _, cnt := range counts {
		if cnt < r+1 {
			return false
		}
	}
	return true
}

// PropertyFn is a property evaluated under a failure set; it returns
// true when the property holds.
type PropertyFn func(down map[scadanet.DeviceID]bool) bool

// FindViolation exhaustively enumerates failure sets with at most k1
// failed IEDs and k2 failed RTUs and returns the first set violating the
// property (nil if the property is (k1,k2)-resilient). The search
// examines smaller failure sets first, so the returned violation is of
// minimal size. Cost is combinatorial; intended for small systems and
// cross-validation.
func (c *Checker) FindViolation(k1, k2 int, holds PropertyFn) []scadanet.DeviceID {
	ieds := deviceIDs(c.cfg.Net.DevicesOfKind(scadanet.IED))
	rtus := deviceIDs(c.cfg.Net.DevicesOfKind(scadanet.RTU))
	if k1 > len(ieds) {
		k1 = len(ieds)
	}
	if k2 > len(rtus) {
		k2 = len(rtus)
	}
	for size := 0; size <= k1+k2; size++ {
		for n1 := 0; n1 <= minInt(size, k1); n1++ {
			n2 := size - n1
			if n2 > k2 {
				continue
			}
			if v, ok := c.searchCombos(ieds, rtus, n1, n2, holds); ok {
				return v
			}
		}
	}
	return nil
}

// LinkPropertyFn is a property evaluated under a failure set of devices
// and links; it returns true when the property holds.
type LinkPropertyFn func(down map[scadanet.DeviceID]bool, cut map[scadanet.LinkID]bool) bool

// FindLinkViolation is FindViolation under a link budget as well: per
// set of at most kl failed links — drawn from the links that are not
// statically down, which are existing contingencies — it enumerates
// every failure set of at most k1 IEDs and k2 RTUs. It returns the
// first violating devices and links, and whether one exists (a
// zero-failure violation returns two empty sets and true).
func (c *Checker) FindLinkViolation(k1, k2, kl int, holds LinkPropertyFn) ([]scadanet.DeviceID, []scadanet.LinkID, bool) {
	var links []scadanet.LinkID
	for _, l := range c.cfg.Net.Links() {
		if !l.Down {
			links = append(links, l.ID)
		}
	}
	cut := map[scadanet.LinkID]bool{}
	failed := []scadanet.LinkID{}
	var devs []scadanet.DeviceID
	var search func(start, left int) bool
	search = func(start, left int) bool {
		devs = c.FindViolation(k1, k2, func(down map[scadanet.DeviceID]bool) bool { return holds(down, cut) })
		if devs != nil {
			return true
		}
		for i := start; left > 0 && i < len(links); i++ {
			cut[links[i]] = true
			failed = append(failed, links[i])
			if search(i+1, left-1) {
				return true
			}
			delete(cut, links[i])
			failed = failed[:len(failed)-1]
		}
		return false
	}
	if !search(0, kl) {
		return nil, nil, false
	}
	return devs, failed, true
}

// searchCombos returns (violating set, true) when some combination of
// exactly n1 IEDs and n2 RTUs violates the property; the set is empty —
// but ok is still true — for a zero-failure violation.
func (c *Checker) searchCombos(ieds, rtus []scadanet.DeviceID, n1, n2 int, holds PropertyFn) ([]scadanet.DeviceID, bool) {
	found := []scadanet.DeviceID{}
	down := map[scadanet.DeviceID]bool{}
	var chooseRTU func(start, left int) bool
	var chooseIED func(start, left int) bool
	chooseRTU = func(start, left int) bool {
		if left == 0 {
			if !holds(down) {
				for id, d := range down {
					if d {
						found = append(found, id)
					}
				}
				return true
			}
			return false
		}
		for i := start; i <= len(rtus)-left; i++ {
			down[rtus[i]] = true
			if chooseRTU(i+1, left-1) {
				return true
			}
			delete(down, rtus[i])
		}
		return false
	}
	chooseIED = func(start, left int) bool {
		if left == 0 {
			return chooseRTU(0, n2)
		}
		for i := start; i <= len(ieds)-left; i++ {
			down[ieds[i]] = true
			if chooseIED(i+1, left-1) {
				return true
			}
			delete(down, ieds[i])
		}
		return false
	}
	if chooseIED(0, n1) {
		return found, true
	}
	return nil, false
}

// MaxResiliency computes, by exhaustive enumeration, the maximum k with
// no violating failure set of ≤k devices of the varied class.
func (c *Checker) MaxResiliency(secured bool, varyIEDs bool) int {
	holds := func(down map[scadanet.DeviceID]bool) bool { return c.Observable(down, secured) }
	limit := len(c.cfg.Net.DevicesOfKind(scadanet.IED))
	if !varyIEDs {
		limit = len(c.cfg.Net.DevicesOfKind(scadanet.RTU))
	}
	maxK := -1
	for k := 0; k <= limit; k++ {
		k1, k2 := k, 0
		if !varyIEDs {
			k1, k2 = 0, k
		}
		if c.FindViolation(k1, k2, holds) != nil {
			break
		}
		maxK = k
	}
	return maxK
}

// SearchSpace returns the number of failure combinations FindViolation
// would enumerate for (k1,k2) — the brute-force cost the SAT approach
// avoids.
func (c *Checker) SearchSpace(k1, k2 int) float64 {
	nI := len(c.cfg.Net.DevicesOfKind(scadanet.IED))
	nR := len(c.cfg.Net.DevicesOfKind(scadanet.RTU))
	total := 0.0
	for a := 0; a <= k1 && a <= nI; a++ {
		for b := 0; b <= k2 && b <= nR; b++ {
			total += binom(nI, a) * binom(nR, b)
		}
	}
	return total
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return math.Round(out)
}

func deviceIDs(devs []*scadanet.Device) []scadanet.DeviceID {
	out := make([]scadanet.DeviceID, len(devs))
	for i, d := range devs {
		out[i] = d.ID
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
