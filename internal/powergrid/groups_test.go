package powergrid

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fmtRowKey is the reference row key: fmt.Fprintf("%.6f,") per entry.
func fmtRowKey(row []float64) string {
	sign := 1.0
	for _, v := range row {
		if math.Abs(v) > sparseEps {
			if v < 0 {
				sign = -1
			}
			break
		}
	}
	var sb strings.Builder
	for _, v := range row {
		q := math.Round(sign*v/sparseEps) * sparseEps
		if math.Abs(q) <= sparseEps {
			q = 0
		}
		fmt.Fprintf(&sb, "%.6f,", q)
	}
	return sb.String()
}

// fmtUniqueGroups is the reference grouping: rows keyed by fmtRowKey,
// groups in first-occurrence order.
func fmtUniqueGroups(ms *MeasurementSet) [][]int {
	order := []string{}
	groups := map[string][]int{}
	for z, m := range ms.Msrs {
		k := fmtRowKey(m.Row)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], z)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}

// TestUniqueGroupsMatchFmtKeys: the appended row keys group exactly as
// the fmt-built ones, group for group and in the same order, on the
// full IEEE-14/30/57/118 sets and on sampled subsets of them, and
// appendRowKey writes the same bytes as the fmt verb.
func TestUniqueGroupsMatchFmtKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	for _, sys := range []*BusSystem{IEEE14(), IEEE30(), IEEE57(), IEEE118()} {
		full := FullMeasurementSet(sys)
		sets := []*MeasurementSet{full}
		for _, pct := range []float64{20, 50, 80} {
			sets = append(sets, full.Sample(pct, rng))
		}
		for i, ms := range sets {
			if got, want := ms.uniqueGroupsSlow(), fmtUniqueGroups(ms); !reflect.DeepEqual(got, want) {
				t.Errorf("%s set %d: %d groups, want %d (or a different order)", sys.Name, i, len(got), len(want))
			}
			for _, m := range ms.Msrs {
				if got, want := string(appendRowKey(nil, m.Row)), fmtRowKey(m.Row); got != want {
					t.Fatalf("%s set %d: key %q, want %q", sys.Name, i, got, want)
				}
			}
		}
	}
	odd := []float64{0, math.Copysign(0, -1), 1e-9, -2.5e-7, 0.5, -1, 123456.789, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, row := range [][]float64{odd, odd[1:], odd[3:]} {
		if got, want := string(appendRowKey(nil, row)), fmtRowKey(row); got != want {
			t.Errorf("key of %v: %q, want %q", row, got, want)
		}
	}
}
