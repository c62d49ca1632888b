package scadanet

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"scadaver/internal/secpolicy"
)

// Network is a SCADA communication topology plus the IED→measurement
// assignment (MsrSet_I in the paper).
type Network struct {
	devices map[DeviceID]*Device
	links   []*Link
	msrOf   map[DeviceID][]int // IED -> 1-based measurement IDs
	nextLnk LinkID

	// Path-enumeration memos, guarded by pathMu and invalidated by the
	// link mutators. The delta cache re-derives every IED's path
	// signature per mutation, so without the memo each evolve rebuilds
	// the adjacency index and re-runs the DFS once per IED — the single
	// hottest non-solver cost of an incremental re-verify. Callers must
	// treat returned path slices as read-only (Paths already demanded
	// that implicitly: the inner link pointers are shared either way).
	pathMu   sync.Mutex
	adjMemo  map[DeviceID][]*Link
	pathMemo map[pathKey][][]*Link
	// gen counts the mutations made through the methods, so that
	// Config.Memo can tell a network changed since it derived a value.
	gen uint64
}

// pathKey identifies one memoized Paths result.
type pathKey struct {
	ied      DeviceID
	maxPaths int
}

// Validation errors.
var (
	ErrDuplicateDevice = errors.New("scadanet: duplicate device ID")
	ErrUnknownDevice   = errors.New("scadanet: link references unknown device")
	ErrNoMTU           = errors.New("scadanet: network has no MTU")
	ErrMultipleMTU     = errors.New("scadanet: network has multiple MTUs")
	ErrNotIED          = errors.New("scadanet: measurement assignment to a non-IED")
)

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		devices: make(map[DeviceID]*Device),
		msrOf:   make(map[DeviceID][]int),
	}
}

// AddDevice registers a device. The ID must be unused.
func (n *Network) AddDevice(d Device) (*Device, error) {
	if _, ok := n.devices[d.ID]; ok {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateDevice, d.ID)
	}
	cp := d
	cp.Protocols = append([]Protocol(nil), d.Protocols...)
	cp.Profiles = append([]secpolicy.Profile(nil), d.Profiles...)
	n.devices[d.ID] = &cp
	n.invalidatePaths()
	return &cp, nil
}

// invalidatePaths drops the path memos after a topology mutation and
// counts the mutation.
func (n *Network) invalidatePaths() {
	n.pathMu.Lock()
	n.adjMemo, n.pathMemo = nil, nil
	n.gen++
	n.pathMu.Unlock()
}

// touch counts a mutation that leaves the paths as they are.
func (n *Network) touch() {
	n.pathMu.Lock()
	n.gen++
	n.pathMu.Unlock()
}

// generation returns the number of mutations counted.
func (n *Network) generation() uint64 {
	n.pathMu.Lock()
	defer n.pathMu.Unlock()
	return n.gen
}

// AddLink registers a link between two existing devices and returns it.
func (n *Network) AddLink(a, b DeviceID, profiles ...secpolicy.Profile) (*Link, error) {
	if _, ok := n.devices[a]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDevice, a)
	}
	if _, ok := n.devices[b]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDevice, b)
	}
	n.nextLnk++
	l := &Link{ID: n.nextLnk, A: a, B: b, Profiles: append([]secpolicy.Profile(nil), profiles...)}
	n.links = append(n.links, l)
	n.invalidatePaths()
	return l, nil
}

// AssignMeasurements records that the given IED transmits the listed
// 1-based measurement IDs.
func (n *Network) AssignMeasurements(ied DeviceID, msrIDs ...int) error {
	d, ok := n.devices[ied]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDevice, ied)
	}
	if d.Kind != IED {
		return fmt.Errorf("%w: device %d is %v", ErrNotIED, ied, d.Kind)
	}
	n.msrOf[ied] = append(n.msrOf[ied], msrIDs...)
	n.touch()
	return nil
}

// Device returns the device with the given ID (nil if absent).
func (n *Network) Device(id DeviceID) *Device { return n.devices[id] }

// Devices returns all devices sorted by ID.
func (n *Network) Devices() []*Device {
	out := make([]*Device, 0, len(n.devices))
	for _, d := range n.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DevicesOfKind returns devices of one kind sorted by ID.
func (n *Network) DevicesOfKind(k DeviceKind) []*Device {
	var out []*Device
	for _, d := range n.Devices() {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}

// Links returns the link list in insertion order. The returned slice
// must not be modified.
func (n *Network) Links() []*Link { return n.links }

// LinkBetween returns the first link joining a and b, or nil.
func (n *Network) LinkBetween(a, b DeviceID) *Link {
	for _, l := range n.links {
		if l.Connects(a, b) {
			return l
		}
	}
	return nil
}

// Link returns the link with the given ID, or nil.
func (n *Network) Link(id LinkID) *Link {
	for _, l := range n.links {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// RemoveLink deletes the identified link (used by the hardening example
// and topology rewires such as the paper's Fig. 4 variant).
func (n *Network) RemoveLink(id LinkID) bool {
	for i, l := range n.links {
		if l.ID == id {
			n.links = append(n.links[:i], n.links[i+1:]...)
			n.invalidatePaths()
			return true
		}
	}
	return false
}

// MeasurementsOf returns the measurement IDs transmitted by an IED.
func (n *Network) MeasurementsOf(ied DeviceID) []int {
	return append([]int(nil), n.msrOf[ied]...)
}

// MTUID returns the MTU device ID (0 if absent).
func (n *Network) MTUID() DeviceID {
	for _, d := range n.devices {
		if d.Kind == MTU {
			return d.ID
		}
	}
	return 0
}

// Validate checks structural sanity: exactly one MTU, links reference
// known devices, and measurement assignments target IEDs.
func (n *Network) Validate() error {
	mtus := 0
	for _, d := range n.devices {
		if d.Kind == MTU {
			mtus++
		}
	}
	if mtus == 0 {
		return ErrNoMTU
	}
	if mtus > 1 {
		return ErrMultipleMTU
	}
	for _, l := range n.links {
		if n.devices[l.A] == nil || n.devices[l.B] == nil {
			return fmt.Errorf("%w: link %d (%d-%d)", ErrUnknownDevice, l.ID, l.A, l.B)
		}
	}
	for id := range n.msrOf {
		d := n.devices[id]
		if d == nil {
			return fmt.Errorf("%w: %d", ErrUnknownDevice, id)
		}
		if d.Kind != IED {
			return fmt.Errorf("%w: device %d is %v", ErrNotIED, id, d.Kind)
		}
	}
	return nil
}

// Clone returns a deep copy of the network: devices, links (including
// security profiles) and measurement assignments are all duplicated.
func (n *Network) Clone() *Network {
	out := NewNetwork()
	out.nextLnk = n.nextLnk
	for id, d := range n.devices {
		cp := *d
		cp.Protocols = append([]Protocol(nil), d.Protocols...)
		cp.Profiles = append([]secpolicy.Profile(nil), d.Profiles...)
		out.devices[id] = &cp
	}
	for _, l := range n.links {
		cp := *l
		cp.Profiles = append([]secpolicy.Profile(nil), l.Profiles...)
		out.links = append(out.links, &cp)
	}
	for id, zs := range n.msrOf {
		out.msrOf[id] = append([]int(nil), zs...)
	}
	return out
}

// HopCaps returns the security capabilities of the hop over link l under
// a policy: the link's own pairwise profile when present, otherwise the
// judged intersection of the endpoint devices' profiles.
func (n *Network) HopCaps(l *Link, pol *secpolicy.Policy) secpolicy.Capability {
	if len(l.Profiles) > 0 {
		return pol.Judge(l.Profiles)
	}
	return pol.PairCaps(n.devices[l.A].Profiles, n.devices[l.B].Profiles)
}

// HopPairing reports the paper's AssuredDelivery hop conditions that are
// static configuration facts: CommProtoPairing (shared protocol) and
// CryptoPropPairing (crypto handshake possible).
func (n *Network) HopPairing(l *Link) (protoOK, cryptoOK bool) {
	a, b := n.devices[l.A], n.devices[l.B]
	protoOK = a.SharesProtocol(b)
	if len(l.Profiles) > 0 {
		// An explicit pairwise profile means the pair has already agreed
		// on crypto parameters.
		cryptoOK = true
	} else {
		cryptoOK = secpolicy.CanPair(a.Profiles, b.Profiles)
	}
	return protoOK, cryptoOK
}

// Paths enumerates simple communication paths from the given IED to the
// MTU as link sequences. Intermediate nodes must be RTUs or routers.
// maxPaths bounds the enumeration (0 means DefaultMaxPaths). Results
// (and the adjacency index behind them) are memoized until the next
// topology mutation; callers must treat them as read-only.
func (n *Network) Paths(ied DeviceID, maxPaths int) [][]*Link {
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	start := n.devices[ied]
	if start == nil || start.Kind != IED {
		return nil
	}
	key := pathKey{ied: ied, maxPaths: maxPaths}
	n.pathMu.Lock()
	if paths, ok := n.pathMemo[key]; ok {
		n.pathMu.Unlock()
		return paths
	}
	n.pathMu.Unlock()
	// A miss only: finding the MTU scans every device.
	mtu := n.MTUID()
	if mtu == 0 {
		return nil
	}
	n.pathMu.Lock()
	if n.adjMemo == nil {
		adj := make(map[DeviceID][]*Link, len(n.devices))
		for _, l := range n.links {
			adj[l.A] = append(adj[l.A], l)
			adj[l.B] = append(adj[l.B], l)
		}
		n.adjMemo = adj
	}
	adj := n.adjMemo
	n.pathMu.Unlock()

	var out [][]*Link
	visited := map[DeviceID]bool{ied: true}
	var path []*Link
	var dfs func(at DeviceID)
	dfs = func(at DeviceID) {
		if len(out) >= maxPaths {
			return
		}
		if at == mtu {
			out = append(out, append([]*Link(nil), path...))
			return
		}
		for _, l := range adj[at] {
			next := l.Other(at)
			if visited[next] {
				continue
			}
			nd := n.devices[next]
			// Intermediate hops go through RTUs and routers only; other
			// IEDs do not forward traffic.
			if next != mtu && nd.Kind != RTU && nd.Kind != Router {
				continue
			}
			visited[next] = true
			path = append(path, l)
			dfs(next)
			path = path[:len(path)-1]
			visited[next] = false
		}
	}
	dfs(ied)
	n.pathMu.Lock()
	if n.pathMemo == nil {
		n.pathMemo = make(map[pathKey][][]*Link)
	}
	n.pathMemo[key] = out
	n.pathMu.Unlock()
	return out
}

// DefaultMaxPaths caps per-IED path enumeration. SCADA topologies are
// tree-like with a handful of cross links, so this is generous.
const DefaultMaxPaths = 256
