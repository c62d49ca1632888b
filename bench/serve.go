package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scadaver/internal/cluster"
	"scadaver/internal/core"
	"scadaver/internal/obs"
	"scadaver/internal/scadanet"
	"scadaver/internal/serve"
)

const configName = "grid"

// serveShapes is the serve workload's query mix: the three properties at
// combined budgets k = 0..maxK, bad-data detectability with r = 1.
func serveShapes(maxK int) []core.Query {
	var qs []core.Query
	for k := 0; k <= maxK; k++ {
		qs = append(qs,
			core.Query{Property: core.Observability, Combined: true, K: k},
			core.Query{Property: core.SecuredObservability, Combined: true, K: k},
			core.Query{Property: core.BadDataDetectability, Combined: true, K: k, R: 1},
		)
	}
	return qs
}

// patchPair is one reversible mutation: apply, then revert, so the served
// configuration returns to its base state every second PATCH.
type patchPair struct{ apply, revert scadanet.Delta }

// patchPairs picks the serve workload's mutations deterministically from
// the base configuration: device-down/device-up of three IEDs spread over
// the ID range, and a key rotation to 256 bits and back on up to two
// secured links whose profiles share one key length.
func patchPairs(cfg *scadanet.Config) []patchPair {
	var out []patchPair
	ieds := cfg.Net.DevicesOfKind(scadanet.IED)
	ids := make([]scadanet.DeviceID, len(ieds))
	for i, d := range ieds {
		ids[i] = d.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, frac := range []int{1, 2, 3} {
		if len(ids) == 0 {
			break
		}
		id := ids[frac*len(ids)/4]
		out = append(out, patchPair{
			apply:  scadanet.Delta{Ops: []scadanet.Op{{Kind: scadanet.OpDeviceDown, Device: id}}},
			revert: scadanet.Delta{Ops: []scadanet.Op{{Kind: scadanet.OpDeviceUp, Device: id}}},
		})
	}
	rotations := 0
	for _, l := range cfg.Net.Links() {
		if rotations == 2 || len(l.Profiles) == 0 {
			continue
		}
		bits := l.Profiles[0].KeyBits
		uniform := bits != 256
		for _, p := range l.Profiles {
			uniform = uniform && p.KeyBits == bits
		}
		if !uniform {
			continue
		}
		out = append(out, patchPair{
			apply:  scadanet.Delta{Ops: []scadanet.Op{{Kind: scadanet.OpKeyRotate, Link: l.ID, KeyBits: 256}}},
			revert: scadanet.Delta{Ops: []scadanet.Op{{Kind: scadanet.OpKeyRotate, Link: l.ID, KeyBits: bits}}},
		})
		rotations++
	}
	return out
}

// handlerTimes is bench middleware around a service handler: it times
// every /v1/verify and PATCH request (and spans it when tracing).
type handlerTimes struct {
	name   string
	parent *obs.Span

	mu     sync.Mutex
	verify []time.Duration
	patch  []time.Duration
}

func routeOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/verify":
		return "verify"
	case r.Method == http.MethodPatch:
		return "patch"
	}
	return ""
}

func (t *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		if route == "" {
			next.ServeHTTP(w, r)
			return
		}
		sp := t.parent.Start(t.name, obs.A("route", route))
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		sp.End()
		t.mu.Lock()
		if route == "verify" {
			t.verify = append(t.verify, d)
		} else {
			t.patch = append(t.patch, d)
		}
		t.mu.Unlock()
	})
}

// take returns the recorded times and starts a new recording.
func (t *handlerTimes) take() (verify, patch []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	verify, patch = t.verify, t.patch
	t.verify, t.patch = nil, nil
	return verify, patch
}

// serveStack is the system under test of serve-mutate: an in-process
// verification service behind a one-member cluster coordinator, both on
// loopback HTTP, and the clients that load it.
type serveStack struct {
	srv    *serve.Server
	coord  *cluster.Coordinator
	member *httptest.Server
	front  *httptest.Server
	reg    *obs.Registry // service and core series
	creg   *obs.Registry // coordinator series

	memberTimes, frontTimes *handlerTimes
	client, patchClient     *http.Client
	span, memberSpan        *obs.Span
}

func newServeStack(e *env, cfg *scadanet.Config, span *obs.Span) (*serveStack, error) {
	st := &serveStack{reg: obs.NewRegistry(), creg: obs.NewRegistry(), span: span, memberSpan: span.Start("serve.member")}
	errLog := log.New(e.log, "serve: ", 0)
	var err error
	st.srv, err = serve.New(serve.Options{
		Configs:         map[string]*scadanet.Config{configName: cfg},
		Workers:         e.workers,
		Presimplify:     true,
		DefaultBudget:   core.QueryBudget{Deadline: queryDeadline},
		MaxBudget:       core.QueryBudget{Deadline: queryDeadline},
		Metrics:         st.reg,
		Faults:          e.faults,
		AnalyzerOptions: []core.Option{core.WithTrace(st.memberSpan)},
		ErrorLog:        errLog,
	})
	if err != nil {
		return nil, err
	}
	st.memberTimes = &handlerTimes{name: "serve.handler", parent: span}
	st.member = httptest.NewServer(st.memberTimes.wrap(st.srv.Handler()))
	st.coord, err = cluster.New(cluster.Options{
		Members:        []cluster.Member{{Name: "m1", URL: st.member.URL}},
		AttemptTimeout: queryDeadline,
		Metrics:        st.creg,
		ErrorLog:       errLog,
	})
	if err != nil {
		st.member.Close()
		st.srv.Drain(context.Background()) //nolint:errcheck // nothing admitted yet
		return nil, err
	}
	st.frontTimes = &handlerTimes{name: "cluster.handler", parent: span}
	st.front = httptest.NewServer(st.frontTimes.wrap(st.coord.Handler()))

	// At most nproc connections carry the load, so a backlog waits in
	// the client, where the load generator measures it.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = e.workers
	tr.MaxIdleConnsPerHost = e.workers
	st.client = &http.Client{Transport: tr}
	st.patchClient = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	return st, nil
}

func (st *serveStack) close() {
	st.front.Close()
	st.coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.srv.Drain(ctx) //nolint:errcheck // a forced drain still stops every worker
	st.member.Close()
	st.memberSpan.End()
	st.client.CloseIdleConnections()
	st.patchClient.CloseIdleConnections()
}

// call is one /v1/verify request of the load generator.
type call struct {
	q       core.Query
	at      time.Duration // due, relative to the window's start
	due     time.Time
	sent    time.Time
	gotConn atomic.Int64 // unix nanos; set by the client trace
	done    time.Time
	res     *core.Result
	err     error
}

func (st *serveStack) verify(c *call) {
	sp := st.span.Start("bench.request", obs.A("route", "verify"))
	defer sp.End()
	body, err := json.Marshal(serve.VerifyRequest{
		Config: configName, Query: c.q,
		Budget: serve.BudgetSpec{DeadlineMS: queryDeadline.Milliseconds()},
	})
	if err != nil {
		c.err = err
		return
	}
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { c.gotConn.Store(time.Now().UnixNano()) },
	})
	var vr serve.VerifyResponse
	c.err = st.do(ctx, st.client, http.MethodPost, "/v1/verify", body, &vr)
	c.done = time.Now()
	c.res = vr.Result
	if c.err == nil && c.res == nil {
		c.err = fmt.Errorf("%v: response without a result", c.q)
	}
}

// patch is one PATCH /v1/configs request of the operator loop.
type patch struct {
	delta scadanet.Delta
	due   time.Time
	sent  time.Time
	done  time.Time
	ev    serve.MutationEvent
	err   error
}

func (st *serveStack) patch(p *patch) {
	sp := st.span.Start("bench.request", obs.A("route", "patch"))
	defer sp.End()
	body, err := json.Marshal(serve.PatchRequest{
		Ops: p.delta.Ops, K: 1,
		Budget: serve.BudgetSpec{DeadlineMS: queryDeadline.Milliseconds()},
	})
	if err != nil {
		p.err = err
		return
	}
	p.err = st.do(context.Background(), st.patchClient, http.MethodPatch, "/v1/configs/"+configName, body, &p.ev)
	p.done = time.Now()
}

func (st *serveStack) do(ctx context.Context, client *http.Client, method, path string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, st.front.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// serveStats is what the serve workload measures beyond verdict latency.
type serveStats struct {
	memberVerify, memberPatch []time.Duration
	frontVerify, frontPatch   []time.Duration

	patchLatency  []float64     // ms from due time
	patchReverify time.Duration // Σ Result.Duration of PATCH re-verifications
	patches       int

	sent, late  int
	lateMax     time.Duration
	clientWait  time.Duration // Σ due → connection
	verifyTotal time.Duration // Σ due → response
	backlogEnd  int
}

// lateLimit flags a send the generator issued this late as invalid load.
const lateLimit = 50 * time.Millisecond

// runServe is serve-mutate-ieee57: untimed set-up and warm-up, then an
// open-loop Poisson /v1/verify load at the scale's rate plus one
// reversible PATCH every patchEvery, each request timed from its due time.
func runServe(e *env, budget time.Duration, span *obs.Span) (*measurement, error) {
	m := newMeasurement(e.workers)
	shapes := serveShapes(e.scale.maxK)
	var st *serveStack
	var base *input
	type warm struct {
		in *input
		c  *call
	}
	var warmups []warm
	for rep := range serveSetupReps {
		runtime.GC()
		t0 := time.Now()
		cfgs, gen, err := loadPool(e.scale.serve)
		if err != nil {
			return nil, err
		}
		s, err := newServeStack(e, cfgs[0], span)
		if err != nil {
			return nil, err
		}
		calls := make([]call, len(shapes))
		for i, q := range shapes {
			calls[i].q = q
			s.verify(&calls[i])
		}
		m.setup = append(m.setup, time.Since(t0))
		m.generate = append(m.generate, gen)
		ins, err := inputs(e.scale.serve, cfgs)
		if err != nil {
			s.close()
			return nil, err
		}
		for i := range calls {
			warmups = append(warmups, warm{ins[0], &calls[i]})
		}
		if rep < serveSetupReps-1 {
			s.close()
			continue
		}
		st, base = s, ins[0]
	}
	defer st.close()

	rng := e.rng("serve-mutate-ieee57")
	calls := arrivals(rng, shapes, e.scale.rate, budget)
	// The operator applies and reverts the pairs in consecutive shuffled
	// rounds, so every run exercises each pair about equally often.
	pairs := patchPairs(base.cfg)
	var patches []patch
	for i := 0; time.Duration(len(patches)+2)*e.scale.patchEvery <= budget && len(pairs) > 0; i++ {
		if i%len(pairs) == 0 {
			rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		}
		p := pairs[i%len(pairs)]
		patches = append(patches, patch{delta: p.apply}, patch{delta: p.revert})
	}

	st.memberTimes.take()
	st.frontTimes.take()
	m.begin(st.reg, st.creg, span)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// The operator: one PATCH at a time, each sent at its due time or
		// when the previous one returned, so the service applies them in
		// the order the bench tracks them.
		defer wg.Done()
		for j := range patches {
			p := &patches[j]
			p.due = start.Add(time.Duration(j+1) * e.scale.patchEvery)
			time.Sleep(time.Until(p.due))
			p.sent = time.Now()
			st.patch(p)
		}
	}()
	var inflight atomic.Int64
	for i := range calls {
		c := &calls[i]
		c.due = start.Add(c.at)
		time.Sleep(time.Until(c.due))
		c.sent = time.Now()
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			st.verify(c)
		}()
	}
	time.Sleep(time.Until(start.Add(budget)))
	backlog := int(inflight.Load())
	wg.Wait()
	m.end()

	ss := &serveStats{backlogEnd: backlog, sent: len(calls), patches: len(patches)}
	ss.memberVerify, ss.memberPatch = st.memberTimes.take()
	ss.frontVerify, ss.frontPatch = st.frontTimes.take()
	m.serve = ss

	for _, w := range warmups {
		m.attempted++
		if w.c.err != nil {
			m.fail(fmt.Errorf("warm-up %v: %w", w.c.q, w.c.err))
			continue
		}
		if err := e.oracle.verdict([]*input{w.in}, w.c.q, w.c.res); err != nil {
			m.fail(fmt.Errorf("warm-up: %w", err))
		}
	}

	// Replay the patches on the bench's own copy of the configuration to
	// know every state the service went through and when it could have
	// been live: state s+1 from patch s's send, state s until patch s
	// returned.
	states := []*input{base}
	var from, until []time.Time
	byFP := map[string]*input{base.fp: base}
	for j := range patches {
		p := &patches[j]
		m.attempted++
		if p.err != nil {
			m.fail(fmt.Errorf("patch %s: %w", p.delta, p.err))
			continue
		}
		ss.patchLatency = append(ss.patchLatency, ms(p.done.Sub(p.due)))
		// A PATCH answers with the re-verified verdicts of the new version,
		// so it is a verdict too, of its own shape per mutation kind: its
		// latency is part of verdict_ms, which a slower write path moves.
		m.verdict("PATCH "+string(p.delta.Ops[0].Kind), p.done.Sub(p.due), nil)
		next, _, err := states[len(states)-1].cfg.Apply(p.delta)
		if err != nil {
			return nil, fmt.Errorf("replay patch %s: %w", p.delta, err)
		}
		in, err := newInput(fmt.Sprintf("%s+%s", base.name, p.delta), next)
		if err != nil {
			return nil, err
		}
		if have, ok := byFP[in.fp]; ok {
			in = have
		}
		byFP[in.fp] = in
		states = append(states, in)
		from = append(from, p.sent)
		until = append(until, p.done)
		if p.ev.Version != len(states) {
			m.fail(fmt.Errorf("patch %s published version %d, want %d", p.delta, p.ev.Version, len(states)))
		}
		for _, v := range p.ev.Verdicts {
			if v.Result == nil {
				m.fail(fmt.Errorf("patch %s: verdict %v without a result", p.delta, v.Query))
				continue
			}
			ss.patchReverify += v.Result.Duration
			m.results = append(m.results, v.Result)
			if err := e.oracle.verdict([]*input{in}, v.Query, v.Result); err != nil {
				m.fail(fmt.Errorf("patch %s: %w", p.delta, err))
			}
		}
	}

	for i := range calls {
		c := &calls[i]
		m.attempted++
		late := c.sent.Sub(c.due)
		ss.lateMax = max(ss.lateMax, late)
		if late > lateLimit {
			ss.late++
		}
		if c.err != nil {
			m.fail(fmt.Errorf("verify %v: %w", c.q, c.err))
			continue
		}
		lat := c.done.Sub(c.due)
		m.verdict(c.q.String(), lat, c.res)
		ss.verifyTotal += lat
		if g := c.gotConn.Load(); g != 0 {
			ss.clientWait += time.Unix(0, g).Sub(c.due)
		}
		// A verify reads the configuration once, at some instant between
		// its send and its response: accept the verdict of any state live
		// then.
		var cands []*input
		for s := range states {
			if (s == 0 || !from[s-1].After(c.done)) && (s == len(states)-1 || !until[s].Before(c.sent)) {
				cands = append(cands, states[s])
			}
		}
		if err := e.oracle.verdict(cands, c.q, c.res); err != nil {
			m.fail(err)
		}
	}
	return m, nil
}

// arrivals draws the open-loop schedule: rate × budget requests at
// uniformly random instants of the window (a Poisson process conditioned
// on its count), asking the query shapes in consecutive shuffled rounds.
// Fixing the count and the mix leaves the seed only the burstiness to
// vary.
func arrivals(rng *rand.Rand, shapes []core.Query, rate float64, budget time.Duration) []call {
	at := make([]time.Duration, int(rate*budget.Seconds()))
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(budget))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	round := append([]core.Query(nil), shapes...)
	calls := make([]call, len(at))
	for i := range calls {
		if i%len(round) == 0 {
			rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		}
		calls[i].q, calls[i].at = round[i%len(round)], at[i]
	}
	return calls
}
