package scadanet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scadaver/internal/powergrid"
	"scadaver/internal/secpolicy"
)

// Config is a complete verifier input: the measurement model (Jacobian),
// the SCADA network, and the resiliency specification — the paper's
// Table II input.
type Config struct {
	Msrs *powergrid.MeasurementSet
	Net  *Network
	K1   int // tolerated IED failures
	K2   int // tolerated RTU failures
	R    int // tolerated corrupted measurements (bad-data analyses)

	memo configMemo // values derived from the whole configuration (see Memo)
}

// configMemo holds the values Memo derived from a configuration, with
// the stamp of the configuration they were derived from.
type configMemo struct {
	mu   sync.Mutex
	at   memoStamp
	vals map[string]string
}

// memoStamp is what Memo can check of a configuration without reading
// it all: the parts it points to, the network's mutation count and the
// resiliency specification.
type memoStamp struct {
	net       *Network
	gen       uint64
	msrs      *powergrid.MeasurementSet
	k1, k2, r int
}

// Memo returns the value compute derives from c for key, calling
// compute only when key has no value since c last changed. The values
// are dropped when the network changes through its methods (AddDevice,
// AddLink, RemoveLink, AssignMeasurements), when Net, Msrs, K1, K2 or R
// is replaced, and on the clone Apply mutates. A direct edit of a
// device's, link's or measurement's fields (Down, Profiles, a Jacobian
// row) is not seen: make it on a Clone. Memo is safe for concurrent
// use; compute runs outside its lock, so concurrent first callers may
// each compute the value.
func (c *Config) Memo(key string, compute func() (string, error)) (string, error) {
	at := memoStamp{c.Net, c.Net.generation(), c.Msrs, c.K1, c.K2, c.R}
	m := &c.memo
	m.mu.Lock()
	if m.at != at {
		m.at, m.vals = at, nil
	}
	v, ok := m.vals[key]
	m.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	if m.at == at {
		if m.vals == nil {
			m.vals = make(map[string]string)
		}
		m.vals[key] = v
	}
	m.mu.Unlock()
	return v, nil
}

// forget drops every value Memo holds for c.
func (c *Config) forget() {
	c.memo.mu.Lock()
	c.memo.vals = nil
	c.memo.mu.Unlock()
}

// ParseConfig reads the textual configuration format (see WriteConfig
// for the grammar, modeled on the paper's Table II input).
func ParseConfig(r io.Reader) (*Config, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	cfg := &Config{Net: NewNetwork(), K1: 1, K2: 1, R: 1}
	var jrows [][]float64
	section := ""
	lineNo := 0

	// %w in format is preserved, so sentinel errors from the network
	// builder (ErrDuplicateDevice, ErrUnknownDevice, ...) stay visible
	// to errors.Is through the line-number prefix.
	fail := func(format string, args ...any) error {
		return fmt.Errorf("config line %d: "+format, append([]any{lineNo}, args...)...)
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			section = strings.ToLower(strings.Trim(line, "[]"))
			continue
		}
		fields := strings.Fields(line)
		switch section {
		case "jacobian":
			row := make([]float64, 0, len(fields))
			for _, f := range fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fail("bad Jacobian entry %q: %v", f, err)
				}
				row = append(row, v)
			}
			jrows = append(jrows, row)
		case "devices":
			if len(fields) != 3 && len(fields) != 2 {
				return nil, fail("device line wants 'kind lo [hi]', got %q", line)
			}
			kind, err := ParseDeviceKind(strings.ToLower(fields[0]))
			if err != nil {
				return nil, fail("%w", err)
			}
			lo, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad device ID %q", fields[1])
			}
			hi := lo
			if len(fields) == 3 {
				if hi, err = strconv.Atoi(fields[2]); err != nil {
					return nil, fail("bad device ID %q", fields[2])
				}
			}
			for id := lo; id <= hi; id++ {
				if _, err := cfg.Net.AddDevice(Device{ID: DeviceID(id), Kind: kind}); err != nil {
					return nil, fail("%w", err)
				}
			}
		case "links":
			if len(fields) != 2 {
				return nil, fail("link line wants 'a b', got %q", line)
			}
			a, err1 := strconv.Atoi(fields[0])
			b, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fail("bad link endpoints %q", line)
			}
			if _, err := cfg.Net.AddLink(DeviceID(a), DeviceID(b)); err != nil {
				return nil, fail("%w", err)
			}
		case "measurements":
			if len(fields) < 2 {
				return nil, fail("measurement line wants 'ied z...', got %q", line)
			}
			ied, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fail("bad IED ID %q", fields[0])
			}
			ids := make([]int, 0, len(fields)-1)
			for _, f := range fields[1:] {
				z, err := strconv.Atoi(f)
				if err != nil {
					return nil, fail("bad measurement ID %q", f)
				}
				ids = append(ids, z)
			}
			if err := cfg.Net.AssignMeasurements(DeviceID(ied), ids...); err != nil {
				return nil, fail("%w", err)
			}
		case "protocols":
			if len(fields) < 2 {
				return nil, fail("protocol line wants 'device proto...', got %q", line)
			}
			id, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fail("bad device ID %q", fields[0])
			}
			d := cfg.Net.Device(DeviceID(id))
			if d == nil {
				return nil, fail("unknown device %d", id)
			}
			for _, p := range fields[1:] {
				d.Protocols = append(d.Protocols, Protocol(strings.ToLower(p)))
			}
		case "security":
			if len(fields) < 4 {
				return nil, fail("security line wants 'a b algo bits ...', got %q", line)
			}
			a, err1 := strconv.Atoi(fields[0])
			b, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fail("bad endpoints %q", line)
			}
			profiles, err := secpolicy.ParseProfiles(fields[2:])
			if err != nil {
				return nil, fail("%w", err)
			}
			l := cfg.Net.LinkBetween(DeviceID(a), DeviceID(b))
			if l == nil {
				return nil, fail("security profile for nonexistent link %d-%d", a, b)
			}
			l.Profiles = append(l.Profiles, profiles...)
		case "down":
			// Out-of-service marks written by mutated configurations
			// (device-down ops). Omitted entirely when nothing is down, so
			// pre-mutation configs keep their canonical text (and thereby
			// their campaign fingerprints) byte-for-byte.
			switch {
			case len(fields) == 2 && fields[0] == "device":
				id, err := strconv.Atoi(fields[1])
				if err != nil {
					return nil, fail("bad device ID %q", fields[1])
				}
				d := cfg.Net.Device(DeviceID(id))
				if d == nil {
					return nil, fail("down mark for unknown device %d", id)
				}
				d.Down = true
			case len(fields) == 3 && fields[0] == "link":
				a, err1 := strconv.Atoi(fields[1])
				b, err2 := strconv.Atoi(fields[2])
				if err1 != nil || err2 != nil {
					return nil, fail("bad link endpoints %q", line)
				}
				l := cfg.Net.LinkBetween(DeviceID(a), DeviceID(b))
				if l == nil {
					return nil, fail("down mark for nonexistent link %d-%d", a, b)
				}
				l.Down = true
			default:
				return nil, fail("down line wants 'device ID' or 'link A B', got %q", line)
			}
		case "resiliency":
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fail("resiliency wants 'k1 k2 [r]', got %q", line)
			}
			k1, err1 := strconv.Atoi(fields[0])
			k2, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fail("bad resiliency spec %q", line)
			}
			cfg.K1, cfg.K2 = k1, k2
			if len(fields) == 3 {
				r, err := strconv.Atoi(fields[2])
				if err != nil {
					return nil, fail("bad r %q", fields[2])
				}
				cfg.R = r
			}
		case "":
			return nil, fail("content before any [section] header: %q", line)
		default:
			return nil, fail("unknown section %q", section)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config read: %w", err)
	}
	if len(jrows) == 0 {
		return nil, fmt.Errorf("config: missing [jacobian] section")
	}
	ms, err := powergrid.FromJacobian(jrows)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	cfg.Msrs = ms
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Validate checks cross-references between the network and the
// measurement model.
func (c *Config) Validate() error {
	if err := c.Net.Validate(); err != nil {
		return err
	}
	for _, d := range c.Net.DevicesOfKind(IED) {
		for _, z := range c.Net.MeasurementsOf(d.ID) {
			if z < 1 || z > c.Msrs.Len() {
				return fmt.Errorf("scadanet: IED %d transmits unknown measurement %d (have %d)",
					d.ID, z, c.Msrs.Len())
			}
		}
	}
	if c.K1 < 0 || c.K2 < 0 || c.R < 0 {
		return fmt.Errorf("scadanet: negative resiliency specification (%d,%d,%d)", c.K1, c.K2, c.R)
	}
	return nil
}

// Clone returns a deep copy of the configuration (the measurement model
// is shared structurally but its rows are copied; the network is fully
// duplicated). Mutating the clone never affects the original.
func (c *Config) Clone() *Config {
	msrs := &powergrid.MeasurementSet{
		System:  c.Msrs.System,
		NStates: c.Msrs.NStates,
		Msrs:    make([]powergrid.Measurement, len(c.Msrs.Msrs)),
	}
	for i, m := range c.Msrs.Msrs {
		m.Row = append([]float64(nil), m.Row...)
		msrs.Msrs[i] = m
	}
	return &Config{
		Msrs: msrs,
		Net:  c.Net.Clone(),
		K1:   c.K1,
		K2:   c.K2,
		R:    c.R,
	}
}

// WriteConfig serializes a Config in the textual format ParseConfig
// reads:
//
//	[jacobian]       one row of floats per measurement
//	[devices]        kind lo [hi]        (ID ranges per device kind)
//	[links]          a b                 (one link per line)
//	[measurements]   ied z1 z2 ...       (IED → measurement IDs)
//	[protocols]      device proto ...    (optional)
//	[security]       a b algo bits ...   (pairwise profiles, optional)
//	[down]           device ID | link a b (out-of-service marks, optional)
//	[resiliency]     k1 k2 [r]
func WriteConfig(w io.Writer, c *Config) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# scadaver configuration: %d states, %d measurements\n", c.Msrs.NStates, c.Msrs.Len())

	fmt.Fprintln(bw, "[jacobian]")
	for _, m := range c.Msrs.Msrs {
		for i, v := range m.Row {
			if i > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%g", v)
		}
		bw.WriteByte('\n')
	}

	fmt.Fprintln(bw, "[devices]")
	for _, kind := range []DeviceKind{IED, RTU, MTU, Router} {
		ids := []int{}
		for _, d := range c.Net.DevicesOfKind(kind) {
			ids = append(ids, int(d.ID))
		}
		sort.Ints(ids)
		// Emit contiguous ranges.
		for i := 0; i < len(ids); {
			j := i
			for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
				j++
			}
			if i == j {
				fmt.Fprintf(bw, "%v %d\n", kind, ids[i])
			} else {
				fmt.Fprintf(bw, "%v %d %d\n", kind, ids[i], ids[j])
			}
			i = j + 1
		}
	}

	fmt.Fprintln(bw, "[links]")
	for _, l := range c.Net.Links() {
		fmt.Fprintf(bw, "%d %d\n", l.A, l.B)
	}

	fmt.Fprintln(bw, "[measurements]")
	for _, d := range c.Net.DevicesOfKind(IED) {
		zs := c.Net.MeasurementsOf(d.ID)
		if len(zs) == 0 {
			continue
		}
		fmt.Fprintf(bw, "%d", d.ID)
		for _, z := range zs {
			fmt.Fprintf(bw, " %d", z)
		}
		bw.WriteByte('\n')
	}

	wroteProto := false
	for _, d := range c.Net.Devices() {
		if len(d.Protocols) == 0 {
			continue
		}
		if !wroteProto {
			fmt.Fprintln(bw, "[protocols]")
			wroteProto = true
		}
		fmt.Fprintf(bw, "%d", d.ID)
		for _, p := range d.Protocols {
			fmt.Fprintf(bw, " %s", p)
		}
		bw.WriteByte('\n')
	}

	wroteSec := false
	for _, l := range c.Net.Links() {
		if len(l.Profiles) == 0 {
			continue
		}
		if !wroteSec {
			fmt.Fprintln(bw, "[security]")
			wroteSec = true
		}
		fmt.Fprintf(bw, "%d %d %s\n", l.A, l.B, secpolicy.FormatProfiles(l.Profiles))
	}

	// Down marks distinguish a mutated configuration from its healthy
	// twin in the canonical text — without them, configurations that
	// differ only in out-of-service state would alias to one campaign
	// fingerprint. The section is omitted when everything is up, keeping
	// the canonical text of unmutated configs unchanged.
	wroteDown := false
	down := func() {
		if !wroteDown {
			fmt.Fprintln(bw, "[down]")
			wroteDown = true
		}
	}
	ids := []int{}
	for _, d := range c.Net.Devices() {
		if d.Down {
			ids = append(ids, int(d.ID))
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		down()
		fmt.Fprintf(bw, "device %d\n", id)
	}
	for _, l := range c.Net.Links() {
		if l.Down {
			down()
			fmt.Fprintf(bw, "link %d %d\n", l.A, l.B)
		}
	}

	fmt.Fprintln(bw, "[resiliency]")
	fmt.Fprintf(bw, "%d %d %d\n", c.K1, c.K2, c.R)
	return bw.Flush()
}
