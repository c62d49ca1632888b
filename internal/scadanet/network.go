package scadanet

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"scadaver/internal/secpolicy"
)

// Network is a SCADA communication topology plus the IED→measurement
// assignment (MsrSet_I in the paper).
type Network struct {
	devices map[DeviceID]*Device
	links   []*Link
	msrOf   map[DeviceID][]int // IED -> 1-based measurement IDs
	nextLnk LinkID

	// gen counts the mutations made through the methods, so that
	// Config.Memo can tell a network changed since it derived a value.
	gen atomic.Uint64
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
	n.touch()
	return &cp, nil
}

// touch counts a mutation.
func (n *Network) touch() { n.gen.Add(1) }

// generation returns the number of mutations counted.
func (n *Network) generation() uint64 { return n.gen.Load() }

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
	n.touch()
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
			n.touch()
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

// ReachMTU returns the hop count to the MTU of every device whose
// traffic reaches it: 0 for the MTU, the breadth-first distance for the
// RTUs and routers connected to it through RTUs and routers (IEDs do
// not forward), and for an IED one more than its nearest such
// neighbor. Only devices for which alive returns true and links for
// which usable returns true take part; a nil predicate admits all, so
// ReachMTU(nil, nil) answers a question of topology alone.
func (n *Network) ReachMTU(alive func(*Device) bool, usable func(*Link) bool) map[DeviceID]int {
	mtu := n.MTUID()
	if mtu == 0 {
		return nil
	}
	ok := func(d *Device) bool { return alive == nil || alive(d) }
	adj := make(map[DeviceID][]*Link, len(n.devices))
	for _, l := range n.links {
		if usable == nil || usable(l) {
			adj[l.A] = append(adj[l.A], l)
			adj[l.B] = append(adj[l.B], l)
		}
	}
	hops := map[DeviceID]int{mtu: 0}
	queue := []DeviceID{mtu}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, l := range adj[at] {
			next := l.Other(at)
			if _, seen := hops[next]; seen {
				continue
			}
			nd := n.devices[next]
			if !ok(nd) {
				continue
			}
			hops[next] = hops[at] + 1
			if nd.Kind != IED {
				queue = append(queue, next)
			}
		}
	}
	return hops
}
