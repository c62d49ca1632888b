package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparator needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// compareRecords prints one row per (workload, end-to-end metric): each
// record file's median and quartiles, and the verdict of every later file
// against the first under the metric's bound — worse when its median is
// worse by more than the bound, unresolved when either side's spread
// (IQR over median) exceeds the bound, same otherwise.
func compareRecords(w io.Writer, specPath string, files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("-compare wants a base record file and at least one more")
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	// values[file][workload][metric]
	values := make([]map[string]map[string][]float64, len(files))
	workloadSet := map[string]bool{}
	for i, path := range files {
		recs, err := readRecords(path)
		if err != nil {
			return err
		}
		values[i] = map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			workloadSet[r.Workload] = true
			if values[i][r.Workload] == nil {
				values[i][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				values[i][r.Workload][name] = append(values[i][r.Workload][name], m.Value)
			}
		}
	}
	var wls []string
	for wl := range workloadSet {
		wls = append(wls, wl)
	}
	sort.Strings(wls)

	fmt.Fprintf(w, "%-22s %-20s %6s", "workload", "metric", "bound")
	for i := range files {
		fmt.Fprintf(w, " | %-8s %10s %10s %10s %6s", fmt.Sprintf("[%d] n", i), "q1", "median", "q3", "spread")
	}
	fmt.Fprintln(w, " | verdict vs [0]")
	for _, wl := range wls {
		for _, m := range sp.EndToEnd {
			base := values[0][wl][m.Name]
			fmt.Fprintf(w, "%-22s %-20s %6.2f", wl, m.Name, m.Bound)
			for i := range files {
				xs := values[i][wl][m.Name]
				q1, q2, q3 := quartiles(xs)
				fmt.Fprintf(w, " | %-8d %10.4g %10.4g %10.4g %6.3f", len(xs), q1, q2, q3, spread(xs))
			}
			var verdicts []string
			for i := 1; i < len(files); i++ {
				verdicts = append(verdicts, judge(m, base, values[i][wl][m.Name]))
			}
			fmt.Fprintf(w, " | %v\n", verdicts)
		}
	}
	return nil
}

// judge classifies other against base under the metric's bound.
func judge(m specMetric, base, other []float64) string {
	if len(base) == 0 || len(other) == 0 {
		return "missing"
	}
	_, b, _ := quartiles(base)
	_, o, _ := quartiles(other)
	worse := ratio(o-b, b) // > 0: other is higher
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case spread(base) > m.Bound || spread(other) > m.Bound:
		return "unresolved"
	default:
		return "same"
	}
}
