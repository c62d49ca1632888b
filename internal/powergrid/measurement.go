package powergrid

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"scadaver/internal/matrix"
)

// MsrKind classifies a measurement.
type MsrKind int

// Measurement kinds: line power flow measured at either end, and bus
// power injection (consumption).
const (
	FlowForward MsrKind = iota + 1
	FlowBackward
	Injection
	Custom // parsed from an explicit Jacobian row
)

// String implements fmt.Stringer.
func (k MsrKind) String() string {
	switch k {
	case FlowForward:
		return "flow-fwd"
	case FlowBackward:
		return "flow-bwd"
	case Injection:
		return "injection"
	case Custom:
		return "custom"
	}
	return "unknown"
}

// Measurement is one row of the measurement model: its Jacobian row over
// the state variables (bus angles) plus provenance.
type Measurement struct {
	ID   int // 1-based within its MeasurementSet
	Kind MsrKind
	From int // measured bus (flows: sending end; injection: the bus)
	To   int // flows: receiving end; 0 otherwise
	Row  []float64
}

// String renders a short description.
func (m Measurement) String() string {
	switch m.Kind {
	case FlowForward, FlowBackward:
		return fmt.Sprintf("z%d(%s %d-%d)", m.ID, m.Kind, m.From, m.To)
	case Injection:
		return fmt.Sprintf("z%d(injection %d)", m.ID, m.From)
	}
	return fmt.Sprintf("z%d(custom)", m.ID)
}

// MeasurementSet is an ordered collection of measurements over a common
// state space of NStates bus-angle variables.
type MeasurementSet struct {
	System  *BusSystem // nil for sets parsed from explicit Jacobians
	NStates int
	Msrs    []Measurement

	// UniqueGroups memo. Every analyzer built over this set recomputes
	// the partition otherwise, and the delta path builds one analyzer per
	// mutation over a shared, immutable measurement set — the row
	// canonicalization is the single most expensive part of analyzer
	// construction there. Msrs must not change after the first call.
	uniqueOnce   sync.Once
	uniqueGroups [][]int
}

// FullMeasurementSet builds the maximum measurement set of a bus system:
// a forward and a backward power-flow measurement per line and an
// injection measurement per bus (2L + N rows), in that order.
func FullMeasurementSet(sys *BusSystem) *MeasurementSet {
	n := sys.NBuses
	ms := &MeasurementSet{System: sys, NStates: n}
	id := 1
	for _, br := range sys.Branches {
		fwd := make([]float64, n)
		fwd[br.From-1] = br.Susceptance
		fwd[br.To-1] = -br.Susceptance
		ms.Msrs = append(ms.Msrs, Measurement{ID: id, Kind: FlowForward, From: br.From, To: br.To, Row: fwd})
		id++
		bwd := make([]float64, n)
		bwd[br.To-1] = br.Susceptance
		bwd[br.From-1] = -br.Susceptance
		ms.Msrs = append(ms.Msrs, Measurement{ID: id, Kind: FlowBackward, From: br.To, To: br.From, Row: bwd})
		id++
	}
	for bus := 1; bus <= n; bus++ {
		row := make([]float64, n)
		for _, br := range sys.Branches {
			switch bus {
			case br.From:
				row[br.From-1] += br.Susceptance
				row[br.To-1] -= br.Susceptance
			case br.To:
				row[br.To-1] += br.Susceptance
				row[br.From-1] -= br.Susceptance
			}
		}
		ms.Msrs = append(ms.Msrs, Measurement{ID: id, Kind: Injection, From: bus, Row: row})
		id++
	}
	return ms
}

// FromJacobian builds a measurement set from explicit Jacobian rows (the
// paper's Table II input form). Rows must share a length.
func FromJacobian(rows [][]float64) (*MeasurementSet, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("powergrid: empty Jacobian")
	}
	n := len(rows[0])
	ms := &MeasurementSet{NStates: n}
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("powergrid: Jacobian row %d has %d entries, want %d", i+1, len(r), n)
		}
		row := append([]float64(nil), r...)
		ms.Msrs = append(ms.Msrs, Measurement{ID: i + 1, Kind: Custom, Row: row})
	}
	return ms, nil
}

// Len returns the number of measurements.
func (ms *MeasurementSet) Len() int { return len(ms.Msrs) }

// Jacobian returns the stacked measurement Jacobian.
func (ms *MeasurementSet) Jacobian() *matrix.Matrix {
	rows := make([][]float64, len(ms.Msrs))
	for i, m := range ms.Msrs {
		rows[i] = m.Row
	}
	j, err := matrix.FromRows(rows)
	if err != nil {
		// Rows are constructed with uniform width above.
		panic(fmt.Sprintf("powergrid: internal Jacobian construction: %v", err))
	}
	return j
}

// sparseEps decides which Jacobian entries count as structural
// non-zeros (h_{Z,X} ≠ 0 in the paper).
const sparseEps = 1e-9

// StateSet returns StateSet_Z for measurement index z (0-based): the
// 0-based state indices with non-zero Jacobian entries.
func (ms *MeasurementSet) StateSet(z int) []int {
	var out []int
	for x, v := range ms.Msrs[z].Row {
		if math.Abs(v) > sparseEps {
			out = append(out, x)
		}
	}
	return out
}

// StateSets returns StateSet_Z for every measurement.
func (ms *MeasurementSet) StateSets() [][]int {
	out := make([][]int, len(ms.Msrs))
	for z := range ms.Msrs {
		out[z] = ms.StateSet(z)
	}
	return out
}

// UniqueGroups partitions measurement indices (0-based) into the paper's
// UMsrSet_E groups: two measurements represent the same electrical
// component when their Jacobian rows are equal or exactly opposite
// (forward vs backward flow on one line). Groups are returned in order
// of first appearance. The partition is computed once and memoized
// (measurement sets are immutable after construction); callers must
// treat the returned slices as read-only.
func (ms *MeasurementSet) UniqueGroups() [][]int {
	ms.uniqueOnce.Do(func() { ms.uniqueGroups = ms.uniqueGroupsSlow() })
	return ms.uniqueGroups
}

func (ms *MeasurementSet) uniqueGroupsSlow() [][]int {
	index := map[string]int{} // row key -> its group in out
	var out [][]int
	var key []byte
	for z, m := range ms.Msrs {
		key = appendRowKey(key[:0], m.Row)
		if g, ok := index[string(key)]; ok {
			out[g] = append(out[g], z)
			continue
		}
		index[string(key)] = len(out)
		out = append(out, []int{z})
	}
	return out
}

// appendRowKey appends a Jacobian row's grouping key to dst: every entry
// rounded to sparseEps with the sign canonicalized by the row's first
// structural non-zero, each written as "%.6f,".
func appendRowKey(dst []byte, row []float64) []byte {
	sign := 1.0
	for _, v := range row {
		if math.Abs(v) > sparseEps {
			if v < 0 {
				sign = -1
			}
			break
		}
	}
	for _, v := range row {
		q := math.Round(sign*v/sparseEps) * sparseEps
		if math.Abs(q) <= sparseEps {
			q = 0
		}
		dst = strconv.AppendFloat(dst, q, 'f', 6, 64)
		dst = append(dst, ',')
	}
	return dst
}

// Sample returns a new measurement set keeping roughly percent·Len()/100
// measurements, chosen uniformly at random but always at least one.
// Measurement IDs are renumbered 1..k; provenance fields are preserved.
func (ms *MeasurementSet) Sample(percent float64, rng *rand.Rand) *MeasurementSet {
	if percent >= 100 {
		return ms.clone()
	}
	k := int(math.Ceil(percent / 100 * float64(len(ms.Msrs))))
	if k < 1 {
		k = 1
	}
	idx := rng.Perm(len(ms.Msrs))[:k]
	sort.Ints(idx)
	out := &MeasurementSet{System: ms.System, NStates: ms.NStates}
	for i, z := range idx {
		m := ms.Msrs[z]
		m.ID = i + 1
		m.Row = append([]float64(nil), ms.Msrs[z].Row...)
		out.Msrs = append(out.Msrs, m)
	}
	return out
}

func (ms *MeasurementSet) clone() *MeasurementSet {
	out := &MeasurementSet{System: ms.System, NStates: ms.NStates, Msrs: make([]Measurement, len(ms.Msrs))}
	for i, m := range ms.Msrs {
		m.Row = append([]float64(nil), m.Row...)
		out.Msrs[i] = m
	}
	return out
}

// CoversAllStates reports whether the union of StateSets of the given
// measurement indices (0-based) covers every state.
func (ms *MeasurementSet) CoversAllStates(zs []int) bool {
	covered := make([]bool, ms.NStates)
	count := 0
	for _, z := range zs {
		for _, x := range ms.StateSet(z) {
			if !covered[x] {
				covered[x] = true
				count++
			}
		}
	}
	return count == ms.NStates
}
