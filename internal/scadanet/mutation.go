package scadanet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"scadaver/internal/secpolicy"
)

// Mutation errors. ErrBadDelta covers structurally invalid deltas (an
// op missing its operands, an op on a device kind it cannot apply to);
// ErrUnknownLink covers deltas naming a link the configuration does not
// have. Both are wrapped with %w by Apply so callers classify them with
// errors.Is, exactly like the parser sentinels.
var (
	ErrBadDelta    = errors.New("scadanet: bad mutation delta")
	ErrUnknownLink = errors.New("scadanet: delta references unknown link")
)

// OpKind names one typed mutation operation.
type OpKind string

// The supported mutation operations.
const (
	OpDeviceUp      OpKind = "device-up"
	OpDeviceDown    OpKind = "device-down"
	OpLinkAdd       OpKind = "link-add"
	OpLinkRemove    OpKind = "link-remove"
	OpLinkReprofile OpKind = "link-reprofile"
	OpKeyRotate     OpKind = "key-rotate"
)

// Op is one typed mutation: which operation, and the operands it needs.
// Unused operands stay zero. Profiles uses the textual token format of
// the [security] section ("algo bits algo bits ...").
type Op struct {
	Kind     OpKind   `json:"kind"`
	Device   DeviceID `json:"device,omitempty"`   // device-up / device-down
	Link     LinkID   `json:"link,omitempty"`     // link-remove / link-reprofile / key-rotate
	A        DeviceID `json:"a,omitempty"`        // link-add endpoint
	B        DeviceID `json:"b,omitempty"`        // link-add endpoint
	Profiles []string `json:"profiles,omitempty"` // link-add / link-reprofile: "algo bits ..." tokens
	KeyBits  int      `json:"keyBits,omitempty"`  // key-rotate: new key length
}

func (o Op) String() string {
	switch o.Kind {
	case OpDeviceUp, OpDeviceDown:
		return fmt.Sprintf("%s %d", o.Kind, o.Device)
	case OpLinkAdd:
		s := fmt.Sprintf("%s %d %d", o.Kind, o.A, o.B)
		if len(o.Profiles) > 0 {
			s += " " + strings.Join(o.Profiles, " ")
		}
		return s
	case OpLinkReprofile:
		return fmt.Sprintf("%s %d %s", o.Kind, o.Link, strings.Join(o.Profiles, " "))
	case OpKeyRotate:
		return fmt.Sprintf("%s %d %d", o.Kind, o.Link, o.KeyBits)
	default:
		return fmt.Sprintf("%s %d", o.Kind, o.Link)
	}
}

// Delta is an ordered batch of mutation ops applied atomically: either
// every op applies and the mutated configuration validates, or the
// original configuration is untouched.
type Delta struct {
	Ops []Op `json:"ops"`
}

func (d Delta) String() string {
	parts := make([]string, len(d.Ops))
	for i, op := range d.Ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, "; ")
}

// Dirty is the cone of a delta: the devices and links whose constraints
// a delta-aware encoder must re-encode. Topology reports whether link
// endpoints changed (link-add / link-remove), which additionally
// changes the delivery constraints of the touched links' endpoints.
type Dirty struct {
	Devices  []DeviceID `json:"devices,omitempty"`
	Links    []LinkID   `json:"links,omitempty"`
	Topology bool       `json:"topology,omitempty"`
}

func (d *Dirty) device(id DeviceID) {
	for _, have := range d.Devices {
		if have == id {
			return
		}
	}
	d.Devices = append(d.Devices, id)
}

func (d *Dirty) link(id LinkID) {
	for _, have := range d.Links {
		if have == id {
			return
		}
	}
	d.Links = append(d.Links, id)
}

// Apply applies the delta to a deep clone of the configuration and
// returns the mutated clone plus the dirty device/link set; the
// receiver is never modified. Errors wrap the relevant sentinel
// (ErrBadDelta, ErrUnknownDevice, ErrUnknownLink, or a validation
// sentinel such as ErrNoMTU) with the index of the offending op, and
// leave the receiver as the only valid configuration.
func (c *Config) Apply(d Delta) (*Config, Dirty, error) {
	var dirty Dirty
	if len(d.Ops) == 0 {
		return nil, dirty, fmt.Errorf("%w: empty delta", ErrBadDelta)
	}
	next := c.Clone()
	for i, op := range d.Ops {
		if err := next.apply(op, &dirty); err != nil {
			return nil, Dirty{}, fmt.Errorf("delta op %d (%s): %w", i, op.Kind, err)
		}
	}
	if err := next.Validate(); err != nil {
		return nil, Dirty{}, fmt.Errorf("delta result invalid: %w", err)
	}
	return next, dirty, nil
}

func (c *Config) apply(op Op, dirty *Dirty) error {
	c.forget()
	switch op.Kind {
	case OpDeviceUp, OpDeviceDown:
		dev := c.Net.Device(op.Device)
		if dev == nil {
			return fmt.Errorf("%w: %d", ErrUnknownDevice, op.Device)
		}
		if !dev.FieldDevice() {
			return fmt.Errorf("%w: %s on %v %d (only field devices fail)",
				ErrBadDelta, op.Kind, dev.Kind, dev.ID)
		}
		dev.Down = op.Kind == OpDeviceDown
		dirty.device(dev.ID)
		return nil

	case OpLinkAdd:
		profiles, err := parseOpProfiles(op.Profiles)
		if err != nil {
			return err
		}
		l, err := c.Net.AddLink(op.A, op.B, profiles...)
		if err != nil {
			return err
		}
		dirty.link(l.ID)
		dirty.Topology = true
		return nil

	case OpLinkRemove:
		if !c.Net.RemoveLink(op.Link) {
			return fmt.Errorf("%w: %d", ErrUnknownLink, op.Link)
		}
		dirty.link(op.Link)
		dirty.Topology = true
		return nil

	case OpLinkReprofile:
		l := c.Net.Link(op.Link)
		if l == nil {
			return fmt.Errorf("%w: %d", ErrUnknownLink, op.Link)
		}
		profiles, err := parseOpProfiles(op.Profiles)
		if err != nil {
			return err
		}
		if len(profiles) == 0 {
			return fmt.Errorf("%w: link-reprofile %d without profiles", ErrBadDelta, op.Link)
		}
		l.Profiles = profiles
		dirty.link(l.ID)
		return nil

	case OpKeyRotate:
		l := c.Net.Link(op.Link)
		if l == nil {
			return fmt.Errorf("%w: %d", ErrUnknownLink, op.Link)
		}
		if len(l.Profiles) == 0 {
			return fmt.Errorf("%w: key-rotate %d on a link with no pairwise profiles", ErrBadDelta, op.Link)
		}
		if op.KeyBits <= 0 {
			return fmt.Errorf("%w: key-rotate %d wants positive key bits, got %d", ErrBadDelta, op.Link, op.KeyBits)
		}
		for i := range l.Profiles {
			l.Profiles[i].KeyBits = op.KeyBits
		}
		dirty.link(l.ID)
		return nil

	default:
		return fmt.Errorf("%w: unknown op kind %q", ErrBadDelta, op.Kind)
	}
}

func parseOpProfiles(tokens []string) ([]secpolicy.Profile, error) {
	if len(tokens) == 0 {
		return nil, nil
	}
	profiles, err := secpolicy.ParseProfiles(tokens)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	return profiles, nil
}

// ParseDelta reads the textual delta form used by the CLIs: ops
// separated by semicolons, each in its Op.String() grammar, e.g.
//
//	link-remove 7; device-down 3; link-add 2 9 hmac 128; key-rotate 4 256
func ParseDelta(s string) (Delta, error) {
	var d Delta
	for _, part := range strings.Split(s, ";") {
		fields := strings.Fields(part)
		if len(fields) == 0 {
			continue
		}
		op := Op{Kind: OpKind(strings.ToLower(fields[0]))}
		args := fields[1:]
		atoi := func(what, f string) (int, error) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return 0, fmt.Errorf("%w: bad %s %q in %q", ErrBadDelta, what, f, strings.TrimSpace(part))
			}
			return v, nil
		}
		switch op.Kind {
		case OpDeviceUp, OpDeviceDown:
			if len(args) != 1 {
				return Delta{}, fmt.Errorf("%w: %s wants 'ID', got %q", ErrBadDelta, op.Kind, strings.TrimSpace(part))
			}
			id, err := atoi("device ID", args[0])
			if err != nil {
				return Delta{}, err
			}
			op.Device = DeviceID(id)
		case OpLinkAdd:
			if len(args) < 2 {
				return Delta{}, fmt.Errorf("%w: link-add wants 'A B [algo bits ...]', got %q", ErrBadDelta, strings.TrimSpace(part))
			}
			a, err := atoi("endpoint", args[0])
			if err != nil {
				return Delta{}, err
			}
			b, err := atoi("endpoint", args[1])
			if err != nil {
				return Delta{}, err
			}
			op.A, op.B = DeviceID(a), DeviceID(b)
			op.Profiles = args[2:]
		case OpLinkRemove:
			if len(args) != 1 {
				return Delta{}, fmt.Errorf("%w: link-remove wants 'LINK', got %q", ErrBadDelta, strings.TrimSpace(part))
			}
			id, err := atoi("link ID", args[0])
			if err != nil {
				return Delta{}, err
			}
			op.Link = LinkID(id)
		case OpLinkReprofile:
			if len(args) < 3 {
				return Delta{}, fmt.Errorf("%w: link-reprofile wants 'LINK algo bits ...', got %q", ErrBadDelta, strings.TrimSpace(part))
			}
			id, err := atoi("link ID", args[0])
			if err != nil {
				return Delta{}, err
			}
			op.Link = LinkID(id)
			op.Profiles = args[1:]
		case OpKeyRotate:
			if len(args) != 2 {
				return Delta{}, fmt.Errorf("%w: key-rotate wants 'LINK BITS', got %q", ErrBadDelta, strings.TrimSpace(part))
			}
			id, err := atoi("link ID", args[0])
			if err != nil {
				return Delta{}, err
			}
			bits, err := atoi("key bits", args[1])
			if err != nil {
				return Delta{}, err
			}
			op.Link, op.KeyBits = LinkID(id), bits
		default:
			return Delta{}, fmt.Errorf("%w: unknown op kind %q", ErrBadDelta, fields[0])
		}
		d.Ops = append(d.Ops, op)
	}
	if len(d.Ops) == 0 {
		return Delta{}, fmt.Errorf("%w: empty delta", ErrBadDelta)
	}
	return d, nil
}
