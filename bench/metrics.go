package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/obs"
)

// measurement is one measured half-run of a workload: its set-up
// repetitions and what its window saw.
type measurement struct {
	workers  int
	setup    []time.Duration // each set-up repetition
	generate []time.Duration // input generation inside each repetition
	passes   int

	wall      time.Duration        // the measured window
	cpu       time.Duration        // process CPU time in the window
	latencies []float64            // ms, one per verdict
	byShape   map[string][]float64 // the same latencies by query shape
	results   []*core.Result

	attempted, failed int
	failures          []string

	reg, creg regDelta    // service/core and coordinator registries over the window
	serve     *serveStats // serve-mutate only

	t0     time.Time
	cpu0   time.Duration
	regs   [2]*obs.Registry
	before [2]obs.Snapshot
	window *obs.Span
}

func newMeasurement(workers int) *measurement {
	return &measurement{workers: workers, byShape: map[string][]float64{}}
}

// begin opens the window; reg and creg (either may be nil) are diffed
// over it, and span (nil = untraced) gets a bench.window child marking it.
func (m *measurement) begin(reg, creg *obs.Registry, span *obs.Span) {
	m.regs = [2]*obs.Registry{reg, creg}
	m.before = [2]obs.Snapshot{reg.Snapshot(), creg.Snapshot()}
	// Collect set-up garbage now, so every window starts from the same
	// heap rather than paying for whatever set-up left behind.
	runtime.GC()
	m.window = span.Start("bench.window")
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *measurement) end() {
	m.wall = time.Since(m.t0)
	m.cpu = cpuTime() - m.cpu0
	m.window.End()
	m.reg = regDelta{m.before[0], m.regs[0].Snapshot()}
	m.creg = regDelta{m.before[1], m.regs[1].Snapshot()}
}

// verdict records one verdict's latency under its query shape (what the
// workload asked: a query, or a configuration and call) and, when the
// call returned one, its core.Result.
func (m *measurement) verdict(shape string, d time.Duration, res *core.Result) {
	m.latencies = append(m.latencies, ms(d))
	m.byShape[shape] = append(m.byShape[shape], ms(d))
	if res != nil {
		m.results = append(m.results, res)
	}
}

func (m *measurement) fail(err error) {
	m.failed++
	m.failures = append(m.failures, err.Error())
}

// report prints what the metrics do not carry: sample counts, the serve
// workload's PATCH latency and load-generator health, and every failure.
func (m *measurement) report(w io.Writer) {
	fmt.Fprintf(w, "  set-up: %d repetitions, median %v\n", len(m.setup), medianDuration(m.setup).Round(time.Microsecond))
	fmt.Fprintf(w, "  %d passes, %d verdicts of %d shapes in %.2f s (p50 %.1f ms, p90 %.1f ms), %d attempted, %d failed\n",
		m.passes, len(m.latencies), len(m.byShape), m.wall.Seconds(),
		percentile(m.latencies, 0.5), percentile(m.latencies, 0.9), m.attempted, m.failed)
	if ss := m.serve; ss != nil {
		fmt.Fprintf(w, "  serve: %d sent, patch p50 %.1f ms p90 %.1f ms (%d patches), late sends %d (max %v), backlog at end %d\n",
			ss.sent, percentile(ss.patchLatency, 0.5), percentile(ss.patchLatency, 0.9), len(ss.patchLatency),
			ss.late, ss.lateMax.Round(time.Microsecond), ss.backlogEnd)
	}
	for i, f := range m.failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(m.failures)-i)
			return
		}
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func (m *measurement) result(ms metricSet, o *oracle) result {
	return result{
		Correct:   m.attempted > 0 && m.failed == 0 && o.mismatches == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   ms,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sumDurations(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// percentile is the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// verdictMS is the typical time to a verdict: each query shape's median
// latency, averaged over the shapes. Unlike one median over the whole
// mix, it does not jump between the mix's clusters of cheap and costly
// shapes, and it ignores a shape's slow outliers.
func (m *measurement) verdictMS() float64 {
	var sum float64
	for _, xs := range m.byShape {
		sum += percentile(xs, 0.5)
	}
	return ratio(sum, float64(len(m.byShape)))
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(m *measurement) metricSet {
	n := float64(len(m.latencies))
	out := metricSet{}
	out.put("verdicts_per_s", "1/s", ratio(n, m.wall.Seconds()))
	out.put("verdict_ms", "ms", m.verdictMS())
	out.put("cpu_ms_per_verdict", "ms", ratio(ms(m.cpu), n))
	out.put("peak_rss_mb", "MB", peakRSSMB())
	out.put("setup_s", "s", medianDuration(m.setup).Seconds())
	return out
}

// regDelta diffs two snapshots of one registry: the series a window
// added, read the way /metrics exports them.
type regDelta struct{ before, after obs.Snapshot }

func labelsMatch(labels, want map[string]string) bool {
	for k, v := range want {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// counter sums the counter family name over series matching want.
func (d regDelta) counter(name string, want map[string]string) float64 {
	return d.counterWhere(name, func(labels map[string]string) bool { return labelsMatch(labels, want) })
}

// counterWhere sums the counter family name over series whose labels
// satisfy keep.
func (d regDelta) counterWhere(name string, keep func(map[string]string) bool) float64 {
	sum := func(s obs.Snapshot) float64 {
		var t float64
		for _, c := range s.Counters {
			if c.Name == name && keep(c.Labels) {
				t += c.Value
			}
		}
		return t
	}
	return sum(d.after) - sum(d.before)
}

// seconds sums the histogram family name (seconds) over series matching
// want.
func (d regDelta) seconds(name string, want map[string]string) float64 {
	sum := func(s obs.Snapshot) float64 {
		var t float64
		for _, h := range s.Histograms {
			if h.Name == name && labelsMatch(h.Labels, want) {
				t += h.Sum
			}
		}
		return t
	}
	return sum(d.after) - sum(d.before)
}

// perLayer computes the per-layer metrics: counts and phase times from
// the untraced half (registry series, core.Result fields, bench-side
// timers), self-time shares from the traced half's spans, and the
// tracing overhead between the two halves.
func perLayer(u, t *measurement, spans []byte, o *oracle) (metricSet, error) {
	out := metricSet{}
	queries := u.reg.counter("scadaver_queries_total", nil)
	perQuery := func(v float64) float64 { return ratio(v, queries) }
	phase := func(p string) float64 {
		return perQuery(u.reg.seconds("scadaver_phase_seconds", map[string]string{"phase": p}) * 1e3)
	}

	var dur, phased, audit time.Duration
	var proof uint64
	var certified int
	for _, r := range u.results {
		dur += r.Duration
		phased += r.Phases.Sum()
		audit += r.Audit
		proof += r.ProofClauses
		if r.Certified {
			certified++
		}
	}
	out.put("core.queries", "count", queries)
	out.put("core.build_ms", "ms", phase("build"))
	out.put("core.encode_ms", "ms", phase("encode"))
	out.put("core.preprocess_ms", "ms", phase("preprocess"))
	out.put("core.solve_ms", "ms", phase("solve"))
	out.put("core.decode_ms", "ms", phase("decode"))
	out.put("core.audit_pct", "%", 100*ratio(float64(audit), float64(dur)))
	out.put("core.phase_cover", "ratio", ratio(float64(phased+audit), float64(dur)))
	// Busy time counts every solver query, including those a call such as
	// MaxResiliencyCombined makes without returning their Results.
	busy := u.reg.seconds("scadaver_phase_seconds", nil) + audit.Seconds()
	out.put("core.runner_busy", "ratio", ratio(busy, u.wall.Seconds()*float64(u.workers)))
	out.put("core.unsolved", "count", u.reg.counter("scadaver_queries_unsolved_total", nil))
	out.put("core.certified", "count", float64(certified))

	solveSec := u.reg.seconds("scadaver_phase_seconds", map[string]string{"phase": "solve"})
	props := u.reg.counter("scadaver_solver_propagations_total", nil)
	out.put("sat.conflicts", "count", perQuery(u.reg.counter("scadaver_solver_conflicts_total", nil)))
	out.put("sat.propagations", "count", perQuery(props))
	out.put("sat.props_per_solve_s", "1/s", ratio(props, solveSec))
	out.put("sat.elim_vars", "count", perQuery(u.reg.counter("scadaver_sat_elim_vars_total", nil)))
	out.put("sat.proof_clauses", "count", ratio(float64(proof), float64(len(u.results))))

	out.put("synth.generate_ms", "ms", ms(medianDuration(u.generate)))

	ss := u.serve
	if ss == nil {
		ss = &serveStats{}
	}
	perPatch := func(v float64) float64 { return ratio(v, float64(ss.patches)) }
	member := sumDurations(ss.memberVerify) + sumDurations(ss.memberPatch)
	front := sumDurations(ss.frontVerify) + sumDurations(ss.frontPatch)
	memberPatch := sumDurations(ss.memberPatch)
	out.put("core.cache.delta_reuse", "count", perPatch(u.reg.counter("scadaver_delta_reuse_total", nil)))
	out.put("core.cache.delta_reencoded", "count", perPatch(u.reg.counter("scadaver_delta_reencoded_total", nil)))
	out.put("core.cache.carried_learnts", "count", perPatch(u.reg.counter("scadaver_carried_learnts_total", nil)))
	out.put("core.cache.evictions", "count", u.reg.counter("scadaver_encoding_cache_evictions_total", nil))
	out.put("core.cache.evolve_pct", "%", 100*ratio(float64(memberPatch-ss.patchReverify), float64(memberPatch)))

	out.put("serve.requests", "count", float64(len(ss.memberVerify)+len(ss.memberPatch)))
	out.put("serve.queue_wait_pct", "%", 100*ratio(u.reg.seconds("scadaver_queue_wait_seconds", nil), member.Seconds()))
	// In serve-mutate every Result the bench saw came from the member.
	out.put("serve.handler_self_pct", "%", 100*ratio(float64(member-dur), float64(member)))
	out.put("serve.patch_pct", "%", 100*ratio(float64(memberPatch), float64(member)))
	out.put("serve.shed", "count", u.reg.counter("scadaver_shed_total", nil))
	out.put("serve.errors", "count", u.reg.counterWhere("scadaver_http_requests_total",
		func(l map[string]string) bool { return !strings.HasPrefix(l["code"], "2") }))
	out.put("cluster.hop_pct", "%", 100*ratio(float64(front-member), float64(front)))
	out.put("cluster.failovers", "count", u.creg.counter("scadaver_cluster_failovers_total", nil))
	out.put("loadgen.sent", "count", float64(ss.sent))
	out.put("loadgen.late", "count", float64(ss.late))
	out.put("loadgen.client_wait_pct", "%", 100*ratio(float64(ss.clientWait), float64(ss.verifyTotal)))
	out.put("loadgen.backlog_end", "count", float64(ss.backlogEnd))

	out.put("oracle.checked", "count", float64(o.checked))
	out.put("oracle.witnesses", "count", float64(o.witnesses))
	out.put("oracle.expected", "count", float64(o.expected))
	out.put("oracle.exhaustive", "count", float64(o.exhaustive))
	out.put("oracle.mismatches", "count", float64(o.mismatches))

	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range self {
		total += v
	}
	for _, layer := range selfLayers {
		out.put("self."+layer+"_pct", "%", 100*ratio(self[layer], total))
	}
	out.put("trace.overhead_pct", "%", 100*(ratio(t.verdictMS(), u.verdictMS())-1))
	return out, nil
}

// selfLayers are the layers the traced half attributes self time to:
// the bench's own calls and client, the cluster coordinator, the
// verification service, core query bookkeeping, and core's phases.
var selfLayers = []string{"bench", "cluster", "serve", "core", "build", "encode", "preprocess", "solve", "decode", "certify"}

type span struct {
	name       string
	parent     uint64
	start, end int64
	ended      bool
}

// selfTimes reads a scadaver-trace/1 JSONL buffer and returns each
// layer's self time in nanoseconds: a span's duration minus the part of
// it its child spans cover, summed per layer, over the spans that began
// inside the bench.window span. Coordinator and member spans do not nest
// (no request id crosses the hop), so the HTTP chain telescopes sums
// instead: client = requests − coordinator, cluster = coordinator −
// member, serve = member − core queries.
func selfTimes(trace []byte) (map[string]float64, error) {
	spans := map[uint64]*span{}
	children := map[uint64][]uint64{}
	dec := json.NewDecoder(bytes.NewReader(trace))
	for {
		var rec struct {
			Ev     string `json:"ev"`
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Name   string `json:"name"`
			T      int64  `json:"tNanos"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("read trace: %w", err)
		}
		switch rec.Ev {
		case "begin":
			spans[rec.ID] = &span{name: rec.Name, parent: rec.Parent, start: rec.T}
			children[rec.Parent] = append(children[rec.Parent], rec.ID)
		case "end":
			if s := spans[rec.ID]; s != nil {
				s.end, s.ended = rec.T, true
			}
		}
	}
	var ws, we int64
	for _, s := range spans {
		if s.name == "bench.window" && s.ended {
			ws, we = s.start, s.end
		}
	}
	dur := map[string]float64{}
	self := map[string]float64{}
	for id, s := range spans {
		if !s.ended || s.start < ws || s.start > we {
			continue
		}
		d := float64(s.end - s.start)
		dur[s.name] += d
		self[s.name] += d - covered(s, children[id], spans)
	}
	clamp := func(v float64) float64 { return max(v, 0) }
	out := map[string]float64{
		"bench": self["bench.verify_all"] + self["bench.boundary"] +
			clamp(dur["bench.request"]-dur["cluster.handler"]),
		"cluster": clamp(dur["cluster.handler"] - dur["serve.handler"]),
		"core":    self["query"],
	}
	if dur["serve.handler"] > 0 {
		out["serve"] = clamp(dur["serve.handler"] - dur["query"])
	}
	for _, p := range []string{"build", "encode", "preprocess", "solve", "decode", "certify"} {
		out[p] = self[p]
	}
	return out, nil
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *span, kids []uint64, spans map[uint64]*span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, id := range kids {
		c := spans[id]
		if c == nil || !c.ended {
			continue
		}
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := int64(math.MinInt64)
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total)
}
