package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/powergrid"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

func testConfig(t testing.TB) *scadanet.Config {
	t.Helper()
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.Case5(), Seed: 7, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// newTestServer boots a small service over one synthetic config named
// "grid" and returns it with an httptest frontend. The cleanup closes
// the frontend, then drains the service.
func newTestServer(t testing.TB, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{
		Configs:        map[string]*scadanet.Config{"grid": testConfig(t)},
		QueueDepth:     8,
		Workers:        4,
		DefaultBudget:  core.QueryBudget{Deadline: 5 * time.Second},
		MaxBudget:      core.QueryBudget{Deadline: 10 * time.Second, Retries: 1},
		RequestTimeout: 30 * time.Second,
		ErrorLog:       log.New(io.Discard, "", 0),
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t testing.TB, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVerifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	q := core.Query{Property: core.Observability, Combined: true, K: 0}

	resp := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Config: "grid", Query: q})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	got := decodeBody[VerifyResponse](t, resp)
	if got.Result == nil {
		t.Fatal("response has no result")
	}

	a, err := core.NewAnalyzer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Status != want.Status || got.Resilient != want.Resilient() {
		t.Fatalf("served verdict (%v, resilient=%v) != direct verdict (%v, resilient=%v)",
			got.Result.Status, got.Resilient, want.Status, want.Resilient())
	}
}

func TestVerifyRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, nil)
	q := core.Query{Property: core.Observability, Combined: true, K: 0}

	cases := []struct {
		name string
		body any
		raw  string
		code int
	}{
		{name: "unknown config", body: VerifyRequest{Config: "nope", Query: q}, code: http.StatusNotFound},
		{name: "malformed JSON", raw: `{"config": "grid",`, code: http.StatusBadRequest},
		{name: "unknown field", raw: `{"config": "grid", "querry": {}}`, code: http.StatusBadRequest},
		{name: "negative budget deadline", body: VerifyRequest{Config: "grid", Query: q,
			Budget: BudgetSpec{DeadlineMS: -5}}, code: http.StatusBadRequest},
		{name: "negative budget retries", body: VerifyRequest{Config: "grid", Query: q,
			Budget: BudgetSpec{DeadlineMS: 100, Retries: -1}}, code: http.StatusBadRequest},
		{name: "invalid query", body: VerifyRequest{Config: "grid",
			Query: core.Query{Property: core.Observability, Combined: true, K: -1}}, code: http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			if tc.raw != "" {
				var err error
				resp, err = http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				resp = postJSON(t, ts.URL+"/v1/verify", tc.body)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.code, body)
			}
			var e errorBody
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error envelope missing (err=%v, body=%+v)", err, e)
			}
		})
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const maxK = 2

	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Config: "grid", Property: core.Observability, MaxK: maxK,
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	got := decodeBody[SweepResponse](t, resp)
	if len(got.Results) != maxK+1 {
		t.Fatalf("results = %d, want %d", len(got.Results), maxK+1)
	}

	a, err := core.NewAnalyzer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := a.NewSweep(core.Observability, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sw.VerifyRange(maxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got.Results[k].Status != want[k].Status {
			t.Fatalf("k=%d: served status %v != direct %v", k, got.Results[k].Status, want[k].Status)
		}
	}
}

func TestSweepRejectsOutOfRangeK(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Config: "grid", Property: core.Observability, MaxK: s.opts.MaxSweepK + 1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// readStream splits an enumerate response into threat-vector lines and
// the trailer (nil when the stream was truncated).
func readStream(t testing.TB, resp *http.Response) ([]core.ThreatVector, *EnumerateTrailer) {
	t.Helper()
	defer resp.Body.Close()
	var vectors []core.ThreatVector
	var trailer *EnumerateTrailer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if trailer != nil {
			t.Fatalf("line after trailer: %s", line)
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if _, isTrailer := probe["done"]; isTrailer {
			trailer = &EnumerateTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var v core.ThreatVector
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatal(err)
		}
		vectors = append(vectors, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vectors, trailer
}

func vectorKeys(vs []core.ThreatVector) map[string]bool {
	keys := make(map[string]bool, len(vs))
	for _, v := range vs {
		raw, _ := json.Marshal(v)
		keys[string(raw)] = true
	}
	return keys
}

func TestEnumerateEndpointStreamsJSONL(t *testing.T) {
	_, ts := newTestServer(t, nil)
	q := core.Query{Property: core.Observability, Combined: true, K: 2}

	resp := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{Config: "grid", Query: q, Max: 16})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	vectors, trailer := readStream(t, resp)
	if trailer == nil {
		t.Fatal("stream has no trailer")
	}
	if !trailer.Done || trailer.Vectors != len(vectors) {
		t.Fatalf("trailer = %+v with %d streamed vectors", trailer, len(vectors))
	}

	a, err := core.NewAnalyzer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.EnumerateThreats(q, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(vectors) != len(want) {
		t.Fatalf("streamed %d vectors, direct enumeration found %d", len(vectors), len(want))
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody[readyzBody](t, resp)
	if resp.StatusCode != http.StatusOK || !body.Ready || body.Draining || body.BreakerOpen {
		t.Fatalf("readyz = %d %+v", resp.StatusCode, body)
	}
	if len(body.Reasons) != 0 {
		t.Fatalf("ready probe carries unready reasons %v", body.Reasons)
	}
	if body.QueueCap != 8 {
		t.Fatalf("queueCap = %d, want 8", body.QueueCap)
	}
}

func TestMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	q := core.Query{Property: core.Observability, Combined: true, K: 0}
	postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Config: "grid", Query: q}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{"scadaver_http_requests_total", "scadaver_queue_depth", "scadaver_breaker_open"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, raw)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("/metrics.json Content-Type = %q", ct)
	}
	var snap struct {
		Counters []json.RawMessage `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Counters) == 0 {
		t.Fatal("/metrics.json snapshot has no counters")
	}
}

func TestDrainShedsAndTurnsUnready(t *testing.T) {
	s, ts := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody[readyzBody](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !body.Draining {
		t.Fatalf("readyz after drain = %d %+v", resp.StatusCode, body)
	}
	if len(body.Reasons) != 1 || body.Reasons[0] != "drain in progress" {
		t.Fatalf("draining readyz reasons = %v, want [drain in progress]", body.Reasons)
	}

	q := core.Query{Property: core.Observability, Combined: true, K: 0}
	resp = postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Config: "grid", Query: q})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verify after drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}

	// Liveness is unaffected: the process is healthy, just not ready.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d", resp.StatusCode)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted empty options (no configs)")
	}
	if _, err := New(Options{
		Configs:       map[string]*scadanet.Config{"grid": testConfig(t)},
		DefaultBudget: core.QueryBudget{Deadline: -time.Second},
	}); err == nil {
		t.Fatal("New accepted a negative default budget deadline")
	}
	if _, err := New(Options{
		Configs:   map[string]*scadanet.Config{"grid": testConfig(t)},
		MaxBudget: core.QueryBudget{Retries: -2},
	}); err == nil {
		t.Fatal("New accepted a negative max budget retry count")
	}
}

func TestDeriveBudgetClampsToServerCeiling(t *testing.T) {
	s, _ := newTestServer(t, nil)

	// Absent budget takes the default.
	b, err := s.deriveBudget(core.QueryBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Deadline != s.opts.DefaultBudget.Deadline {
		t.Fatalf("default deadline = %v, want %v", b.Deadline, s.opts.DefaultBudget.Deadline)
	}

	// A client budget above the ceiling is clamped down...
	b, err = s.deriveBudget(core.QueryBudget{Deadline: time.Hour, Retries: 50})
	if err != nil {
		t.Fatal(err)
	}
	if b.Deadline != s.opts.MaxBudget.Deadline || b.Retries != s.opts.MaxBudget.Retries {
		t.Fatalf("clamped budget = %+v, want ceiling %+v", b, s.opts.MaxBudget)
	}

	// ...and a tighter one passes through.
	b, err = s.deriveBudget(core.QueryBudget{Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if b.Deadline != time.Second {
		t.Fatalf("tight deadline = %v, want 1s", b.Deadline)
	}
}

func TestRequestDeadlineBounds(t *testing.T) {
	s, _ := newTestServer(t, nil)

	// Escalating attempts are summed, so the request deadline covers
	// every retry of an escalating budget.
	d := s.requestDeadline(core.QueryBudget{Deadline: time.Second, Retries: 1}, 1)
	if d < 3*time.Second { // 1s + 2s escalated, plus grace
		t.Fatalf("requestDeadline = %v, want >= 3s for 1s+retry", d)
	}
	// The whole-request ceiling always wins.
	if d := s.requestDeadline(core.QueryBudget{Deadline: time.Hour}, 10); d > s.opts.RequestTimeout {
		t.Fatalf("requestDeadline = %v exceeds RequestTimeout %v", d, s.opts.RequestTimeout)
	}
	// An unbounded budget falls back to the ceiling.
	if d := s.requestDeadline(core.QueryBudget{}, 1); d != s.opts.RequestTimeout {
		t.Fatalf("unbounded requestDeadline = %v, want %v", d, s.opts.RequestTimeout)
	}
}
