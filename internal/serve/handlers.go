package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/faultinject"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
)

// BudgetSpec is the wire form of a per-request verification budget.
// Every field is optional; absent budgets take the server default, and
// all budgets are clamped by the server's MaxBudget ceiling.
type BudgetSpec struct {
	DeadlineMS int64  `json:"deadlineMs,omitempty"`
	Conflicts  uint64 `json:"conflicts,omitempty"`
	Retries    int    `json:"retries,omitempty"`
}

func (b BudgetSpec) toBudget() core.QueryBudget {
	return core.QueryBudget{
		Deadline:  time.Duration(b.DeadlineMS) * time.Millisecond,
		Conflicts: b.Conflicts,
		Retries:   b.Retries,
	}
}

// VerifyRequest is the body of POST /v1/verify.
type VerifyRequest struct {
	Config string     `json:"config"`
	Query  core.Query `json:"query"`
	Budget BudgetSpec `json:"budget"`
}

// VerifyResponse is the body of a successful POST /v1/verify. On a
// certifying service (Options.Certify) the attestation fields report
// whether the verdict was independently checked, how many derived
// proof clauses the in-process checker accepted, and the audit
// overhead in milliseconds; they are zero otherwise. The cluster
// coordinator relays member bodies verbatim, so the attestation of the
// member that solved the query reaches the client unchanged.
type VerifyResponse struct {
	Resilient    bool         `json:"resilient"`
	Result       *core.Result `json:"result"`
	Certified    bool         `json:"certified,omitempty"`
	ProofClauses uint64       `json:"proofClauses,omitempty"`
	AuditMs      float64      `json:"auditMs,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: verify every combined
// budget k = 0..MaxK of the property (core.Sweep: each budget on its own
// clone of the structure's cached snapshot). A
// RequestID (with a checkpoint directory configured) makes the sweep
// resumable: each finished budget is journaled, and a retry of the same
// ID — on this node, or on a node the checkpoint was handed off to —
// re-solves only the budgets the journal does not already hold.
type SweepRequest struct {
	Config    string        `json:"config"`
	Property  core.Property `json:"property"`
	MaxK      int           `json:"maxK"`
	R         int           `json:"r,omitempty"`
	KL        int           `json:"kl,omitempty"`
	RequestID string        `json:"requestId,omitempty"`
	Budget    BudgetSpec    `json:"budget"`
}

// SweepResponse is the body of a successful POST /v1/sweep. Resumed
// counts the budgets recovered from the request's checkpoint rather
// than solved.
type SweepResponse struct {
	Results []*core.Result `json:"results"`
	Resumed int            `json:"resumed,omitempty"`
	// Certification attestation (Options.Certify): Certified only when
	// every solved budget was certified (budgets resumed from a
	// checkpoint re-use their recorded attestation); ProofClauses and
	// AuditMs aggregate over the sweep.
	Certified    bool    `json:"certified,omitempty"`
	ProofClauses uint64  `json:"proofClauses,omitempty"`
	AuditMs      float64 `json:"auditMs,omitempty"`
}

// EnumerateRequest is the body of POST /v1/enumerate. The response is
// streamed as JSONL: one ThreatVector per line as it is discovered,
// then one EnumerateTrailer line — a stream without a trailer was
// truncated. A RequestID (with a checkpoint directory configured)
// makes the request resumable: a retry with the same ID replays the
// checkpointed vectors and continues the search.
type EnumerateRequest struct {
	Config    string     `json:"config"`
	Query     core.Query `json:"query"`
	Max       int        `json:"max,omitempty"`
	RequestID string     `json:"requestId,omitempty"`
	Budget    BudgetSpec `json:"budget"`
}

// EnumerateTrailer is the final JSONL line of a complete enumeration
// stream.
type EnumerateTrailer struct {
	Done    bool `json:"done"`
	Vectors int  `json:"vectors"`
	Resumed int  `json:"resumed,omitempty"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg}) //nolint:errcheck // client gone
}

// account records one finished request into the per-route metrics —
// request count, latency histogram — and the SLO breach counter when a
// threshold is armed and exceeded. Every handler exit path funnels
// through it, streaming responses included.
func (s *Server) account(route string, start time.Time, codeLabel string) {
	elapsed := time.Since(start)
	s.reg.Inc("scadaver_http_requests_total", map[string]string{
		"route": route, "code": codeLabel,
	})
	s.reg.ObserveDuration("scadaver_http_request_seconds",
		map[string]string{"route": route}, elapsed)
	if t := s.opts.SLOThreshold; t > 0 && elapsed > t {
		s.reg.Inc("scadaver_slo_breach_total", map[string]string{"route": route})
		s.opts.ErrorLog.Printf("serve: SLO breach route=%s code=%s dur=%s threshold=%s",
			route, codeLabel, elapsed, t)
	}
}

// respond writes one JSON response and accounts the request metrics.
func (s *Server) respond(w http.ResponseWriter, route string, start time.Time, code int, body any) {
	s.account(route, start, strconv.Itoa(code))
	if msg, ok := body.(error); ok {
		writeJSONError(w, code, msg.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if body != nil {
		json.NewEncoder(w).Encode(body) //nolint:errcheck // client gone
	}
}

// decode parses one JSON request body, bounded to keep a hostile
// client from ballooning the heap.
func decode(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// lookupConfig resolves a request's named configuration — the
// currently published version, so verification always sees the latest
// successfully re-verified mutation.
func (s *Server) lookupConfig(name string) (*scadanet.Config, error) {
	sc, ok := s.configs[name]
	if !ok {
		return nil, fmt.Errorf("unknown config %q", name)
	}
	return sc.cur.Load().cfg, nil
}

// classify maps a finished job's error to an HTTP status — panic →
// 500, deadline → 504, drain → 503 — and settles the job's breaker
// accounting: service-health failures feed the window, client-caused
// outcomes release the admission slot without a sample. Every admitted
// job must reach exactly one Record or Cancel, or a half-open probe
// slot would leak and the breaker could never close again; error paths
// settle here, success paths Record in their handler.
func (s *Server) classify(j *job) (int, error) {
	var pe *core.PanicError
	switch {
	case errors.As(j.err, &pe):
		s.brk.Record(true)
		return http.StatusInternalServerError, fmt.Errorf("internal: request %d failed in the verification worker", j.id)
	case errors.Is(j.err, context.DeadlineExceeded):
		s.brk.Record(true)
		return http.StatusGatewayTimeout, fmt.Errorf("request deadline exceeded before a verdict")
	case errors.Is(j.err, context.Canceled):
		s.brk.Cancel()
		if s.draining.Load() {
			return http.StatusServiceUnavailable, fmt.Errorf("server is draining")
		}
		return 499, fmt.Errorf("client closed request") // nginx's 499; never actually received
	case errors.Is(j.err, core.ErrBadQuery), errors.Is(j.err, core.ErrBadBudget):
		s.brk.Cancel()
		return http.StatusBadRequest, j.err
	case errors.Is(j.err, scadanet.ErrBadDelta), errors.Is(j.err, scadanet.ErrUnknownDevice),
		errors.Is(j.err, scadanet.ErrUnknownLink), errors.Is(j.err, scadanet.ErrNoMTU),
		errors.Is(j.err, scadanet.ErrMultipleMTU), errors.Is(j.err, scadanet.ErrNotIED):
		// A semantically invalid delta is the client's fault: the prior
		// configuration version stays live and the breaker sees nothing.
		s.brk.Cancel()
		return http.StatusUnprocessableEntity, j.err
	case errors.Is(j.err, faultinject.ErrInjected):
		// An injected mid-stream disconnect is a client fault, exactly
		// like the real disconnect it models.
		s.brk.Cancel()
		return 499, j.err
	case j.err != nil:
		s.brk.Record(true)
		return http.StatusInternalServerError, j.err
	}
	return http.StatusOK, nil
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const route = "verify"
	var req VerifyRequest
	if err := decode(r, &req); err != nil {
		s.respond(w, route, start, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	cfg, err := s.lookupConfig(req.Config)
	if err != nil {
		s.respond(w, route, start, http.StatusNotFound, err)
		return
	}
	budget, err := s.deriveBudget(req.Budget.toBudget())
	if err != nil {
		s.respond(w, route, start, http.StatusBadRequest, err)
		return
	}

	var out core.Outcome
	run := func(ctx context.Context) error {
		runner := core.NewRunner(1, s.analyzerOptions(budget)...)
		outs, err := runner.VerifyAllCollect(ctx, cfg, []core.Query{req.Query})
		if err != nil {
			return err
		}
		out = outs[0]
		return nil
	}
	j, release, ok := s.admit(w, r, route, s.requestDeadline(budget, 1), run)
	if !ok {
		return
	}
	defer release()
	<-j.done

	if j.err == nil && out.Err != nil {
		j.err = out.Err
	}
	if j.err == nil && out.Result == nil {
		// The campaign was interrupted before the query was decided.
		j.err = j.ctx.Err()
		if j.err == nil {
			j.err = context.Canceled
		}
	}
	if code, err := s.classify(j); err != nil {
		s.respond(w, route, start, code, err)
		return
	}
	s.brk.Record(out.Result.Status == sat.Unsolved)
	s.respond(w, route, start, http.StatusOK, VerifyResponse{
		Resilient:    out.Result.Resilient(),
		Result:       out.Result,
		Certified:    out.Result.Certified,
		ProofClauses: out.Result.ProofClauses,
		AuditMs:      durationMs(out.Result.Audit),
	})
}

// durationMs renders an audit duration as fractional milliseconds for
// the attestation fields.
func durationMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const route = "sweep"
	var req SweepRequest
	if err := decode(r, &req); err != nil {
		s.respond(w, route, start, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	cfg, err := s.lookupConfig(req.Config)
	if err != nil {
		s.respond(w, route, start, http.StatusNotFound, err)
		return
	}
	if req.MaxK < 0 || req.MaxK > s.opts.MaxSweepK {
		s.respond(w, route, start, http.StatusBadRequest,
			fmt.Errorf("maxK %d outside [0,%d]", req.MaxK, s.opts.MaxSweepK))
		return
	}
	budget, err := s.deriveBudget(req.Budget.toBudget())
	if err != nil {
		s.respond(w, route, start, http.StatusBadRequest, err)
		return
	}
	// The sweep fingerprint covers everything that shapes the campaign —
	// property, budgets, range — so a requestId reused for a different
	// sweep conflicts (409) instead of resuming the wrong one.
	ck, err := s.openRequestCheckpoint(req.RequestID, cfg, core.CheckpointKindCampaign,
		req.Property, req.R, req.KL, req.MaxK)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, core.ErrCheckpointMismatch) {
			code = http.StatusConflict
		}
		s.respond(w, route, start, code, err)
		return
	}
	resumed := len(ck.Entries())

	var results []*core.Result
	run := func(ctx context.Context) error {
		opts := append(s.analyzerOptions(budget), core.WithInterrupt(func() bool {
			return ctx.Err() != nil
		}))
		a, err := core.NewAnalyzer(cfg, opts...)
		if err != nil {
			return err
		}
		sw, err := a.NewSweep(req.Property, req.R, req.KL)
		if err != nil {
			return err
		}
		results, err = sw.VerifyRange(req.MaxK, ck)
		return err
	}
	j, release, ok := s.admit(w, r, route, s.requestDeadline(budget, req.MaxK+1), run)
	if !ok {
		return
	}
	defer release()
	<-j.done

	// An interrupted sweep degrades its remaining budgets to Unsolved
	// results rather than erroring; surface the interruption as the
	// request-level verdict.
	if j.err == nil && j.ctx.Err() != nil && anyInterrupted(results) {
		j.err = j.ctx.Err()
	}
	if code, err := s.classify(j); err != nil {
		s.respond(w, route, start, code, err)
		return
	}
	s.brk.Record(anyUnsolved(results))
	resp := SweepResponse{Results: results, Resumed: resumed, Certified: len(results) > 0}
	for _, res := range results {
		if res == nil {
			continue
		}
		if !res.Certified {
			resp.Certified = false
		}
		resp.ProofClauses += res.ProofClauses
		resp.AuditMs += durationMs(res.Audit)
	}
	s.respond(w, route, start, http.StatusOK, resp)
}

func anyUnsolved(results []*core.Result) bool {
	for _, res := range results {
		if res != nil && res.Status == sat.Unsolved {
			return true
		}
	}
	return false
}

func anyInterrupted(results []*core.Result) bool {
	for _, res := range results {
		if res != nil && res.Status == sat.Unsolved && res.FailureReason == core.ReasonInterrupted {
			return true
		}
	}
	return false
}

// requestIDPattern keeps enumeration request IDs filesystem-safe; the
// checkpoint path is <CheckpointDir>/<RequestID>.ckpt and nothing else.
var requestIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// openRequestCheckpoint opens the resumable checkpoint for one request
// ID, fingerprinted over the configuration and the campaign-shaping
// extras so an ID reused for a different campaign is rejected instead
// of silently resumed.
func (s *Server) openRequestCheckpoint(id string, cfg *scadanet.Config, kind string, extra ...any) (*core.Checkpoint, error) {
	if id == "" || s.opts.CheckpointDir == "" {
		return nil, nil
	}
	if !requestIDPattern.MatchString(id) {
		return nil, fmt.Errorf("invalid requestId %q", id)
	}
	// The encoding version participates in the fingerprint: a checkpoint
	// journaled under an older CNF encoding is rejected (409) rather than
	// resumed against clauses with different meaning.
	fp, err := core.CampaignFingerprint(cfg, kind, append(extra, core.EncodingVersion)...)
	if err != nil {
		return nil, err
	}
	ck, err := core.OpenCheckpoint(filepath.Join(s.opts.CheckpointDir, id+".ckpt"), kind, fp)
	if err != nil {
		return nil, err
	}
	ck.UseFaults(s.opts.Faults)
	return ck, nil
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const route = "enumerate"
	var req EnumerateRequest
	if err := decode(r, &req); err != nil {
		s.respond(w, route, start, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	cfg, err := s.lookupConfig(req.Config)
	if err != nil {
		s.respond(w, route, start, http.StatusNotFound, err)
		return
	}
	budget, err := s.deriveBudget(req.Budget.toBudget())
	if err != nil {
		s.respond(w, route, start, http.StatusBadRequest, err)
		return
	}
	maxVectors := req.Max
	if maxVectors <= 0 || maxVectors > s.opts.MaxEnumerate {
		maxVectors = s.opts.MaxEnumerate
	}
	ck, err := s.openRequestCheckpoint(req.RequestID, cfg, core.CheckpointKindEnumerate, req.Query)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, core.ErrCheckpointMismatch) {
			code = http.StatusConflict
		}
		s.respond(w, route, start, code, err)
		return
	}
	resumed := len(ck.Entries())

	// The stream is written from the worker goroutine while this
	// handler blocks on the job — single-writer, so this is safe. Once
	// the first vector is out the status line is immutable; a later
	// failure truncates the stream (no trailer line) instead.
	flusher, _ := w.(http.Flusher)
	streamed := false
	count := 0
	run := func(ctx context.Context) error {
		opts := append(s.analyzerOptions(budget), core.WithInterrupt(func() bool {
			return ctx.Err() != nil
		}))
		a, err := core.NewAnalyzer(cfg, opts...)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		_, err = a.EnumerateThreatsStream(req.Query, maxVectors, ck, func(v core.ThreatVector) error {
			if err := s.opts.Faults.BeforeStreamItem(); err != nil {
				return fmt.Errorf("client disconnected mid-stream: %w", err)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if !streamed {
				streamed = true
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
			}
			if err := enc.Encode(v); err != nil {
				return err
			}
			count++
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			// The enumeration stopped because the request was cancelled
			// (solves degraded to interrupted-unsolved), not because the
			// threat space is exhausted; the stream must not claim done.
			return err
		}
		if !streamed {
			streamed = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		return enc.Encode(EnumerateTrailer{Done: true, Vectors: count, Resumed: resumed})
	}
	j, release, ok := s.admit(w, r, route, s.requestDeadline(budget, maxVectors), run)
	if !ok {
		return
	}
	defer release()
	<-j.done

	code, cerr := s.classify(j)
	if cerr == nil {
		s.brk.Record(false)
		s.account(route, start, strconv.Itoa(http.StatusOK))
		return
	}
	if streamed {
		// The status line is out; the truncated stream (no trailer) is
		// the error signal. Metrics still record the true outcome.
		s.account(route, start, strconv.Itoa(code)+"-truncated")
		return
	}
	s.respond(w, route, start, code, cerr)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"ok":true}`)
}

// readyzBody is the /readyz response, exposing the load signals an
// operator (or autoscaler) steers by. Reasons names each dependency
// that is holding readiness down — an unready probe an operator cannot
// diagnose from its body is a page, not a signal.
type readyzBody struct {
	Ready       bool     `json:"ready"`
	Reasons     []string `json:"reasons,omitempty"`
	Draining    bool     `json:"draining"`
	BreakerOpen bool     `json:"breakerOpen"`
	QueueDepth  int      `json:"queueDepth"`
	QueueCap    int      `json:"queueCap"`
	Inflight    int64    `json:"inflight"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := readyzBody{
		Ready:       s.Ready(),
		Draining:    s.draining.Load(),
		BreakerOpen: s.brk.Open(),
		QueueDepth:  s.q.depth(),
		QueueCap:    s.q.capacity(),
		Inflight:    s.inflight.Load(),
	}
	if body.Draining {
		body.Reasons = append(body.Reasons, "drain in progress")
	}
	if body.BreakerOpen {
		body.Reasons = append(body.Reasons, "breaker open")
	}
	code := http.StatusOK
	if !body.Ready {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // client gone
}
