package serve

// Live configuration mutation (DESIGN.md §16): PATCH /v1/configs/{name}
// applies a typed delta to a served configuration under the admission
// pipeline, evolves the delta-aware encoding cache instead of discarding
// it, re-verifies the core properties on warm snapshots, and atomically
// publishes the new version. GET /v1/subscribe streams the resulting
// re-verification verdicts as JSONL to any number of watchers, with
// bounded fan-out: a slow subscriber loses the oldest undelivered event
// (counted in scadaver_subscribe_dropped_total), never the stream; a
// subscriber beyond the cap is shed with 503.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/obs"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
)

// servedConfig is one named configuration's versioned slot: the current
// immutable version (atomically swapped by PATCH), the per-config patch
// mutex that serializes mutations, and the subscriber hub.
type servedConfig struct {
	name    string
	patchMu sync.Mutex // serializes PATCHes; queries never take it
	cur     atomic.Pointer[configVersion]
	hub     *mutationHub
}

// configVersion is one immutable published configuration version.
type configVersion struct {
	cfg     *scadanet.Config
	version int
}

// PatchRequest is the body of PATCH /v1/configs/{name}: the typed
// mutation ops (and/or the CLI's textual delta grammar), the failure
// budget k and bad-data resiliency r the re-verification runs at, and a
// per-request solve budget.
type PatchRequest struct {
	Ops    []scadanet.Op `json:"ops,omitempty"`
	Delta  string        `json:"delta,omitempty"` // textual alternative: "link-remove 7; device-down 3"
	K      int           `json:"k,omitempty"`     // re-verify device budget (default 1)
	R      int           `json:"r,omitempty"`     // bad-data resiliency (default 1)
	Budget BudgetSpec    `json:"budget"`
}

// MutationVerdict is one property's re-verification outcome after a
// mutation.
type MutationVerdict struct {
	Property  core.Property `json:"property"`
	Query     core.Query    `json:"query"`
	Resilient bool          `json:"resilient"`
	Status    sat.Status    `json:"status"`
	Result    *core.Result  `json:"result,omitempty"`
}

// MutationEvent is both the PATCH response body and the JSONL event
// streamed to /v1/subscribe watchers: which version the mutation
// published, the delta and its dirty cone, what the delta-aware cache
// reused versus re-encoded, and the fresh verdicts. The subscribe
// stream's greeting line is the same shape with only Config and Version
// set.
type MutationEvent struct {
	Config   string             `json:"config"`
	Version  int                `json:"version"`
	Delta    string             `json:"delta,omitempty"`
	Dirty    scadanet.Dirty     `json:"dirty,omitempty"`
	Mutation core.MutationStats `json:"mutation"`
	Verdicts []MutationVerdict  `json:"verdicts,omitempty"`
}

// mutationHub fans one configuration's mutation events out to its
// subscribers. Publishing never blocks on a slow consumer: each
// subscriber has a small buffer, and overflow drops that subscriber's
// oldest undelivered event.
type mutationHub struct {
	config string
	max    int
	reg    *obs.Registry

	mu   sync.Mutex
	subs map[int64]chan MutationEvent
	next int64
}

func newMutationHub(config string, max int, reg *obs.Registry) *mutationHub {
	return &mutationHub{config: config, max: max, reg: reg, subs: make(map[int64]chan MutationEvent)}
}

// subscriberBuffer is the per-subscriber event backlog; beyond it the
// oldest event is dropped for that subscriber.
const subscriberBuffer = 16

func (h *mutationHub) subscribe() (int64, chan MutationEvent, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) >= h.max {
		return 0, nil, fmt.Errorf("subscriber cap %d reached for config %q", h.max, h.config)
	}
	h.next++
	id := h.next
	ch := make(chan MutationEvent, subscriberBuffer)
	h.subs[id] = ch
	h.reg.SetGauge("scadaver_subscribers", map[string]string{"config": h.config}, float64(len(h.subs)))
	return id, ch, nil
}

func (h *mutationHub) unsubscribe(id int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, id)
	h.reg.SetGauge("scadaver_subscribers", map[string]string{"config": h.config}, float64(len(h.subs)))
}

// publish delivers the event to every subscriber, dropping each
// laggard's oldest undelivered event to make room — the stream stays
// live and bounded; completeness is the price a slow client pays.
func (h *mutationHub) publish(ev MutationEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- ev:
			continue
		default:
		}
		select {
		case <-ch:
			h.reg.Inc("scadaver_subscribe_dropped_total", map[string]string{"config": h.config})
		default:
		}
		select {
		case ch <- ev:
		default:
		}
	}
}

// reverifyQueries is the battery a successful PATCH re-verifies on the
// mutated configuration: the three core properties at the requested
// device budget (and bad-data resiliency).
func reverifyQueries(k, r int) []core.Query {
	return []core.Query{
		{Property: core.Observability, Combined: true, K: k},
		{Property: core.SecuredObservability, Combined: true, K: k},
		{Property: core.BadDataDetectability, Combined: true, K: k, R: r},
	}
}

func (s *Server) handlePatchConfig(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const route = "patch"
	sc := s.configs[r.PathValue("name")]
	if sc == nil {
		s.respond(w, route, start, http.StatusNotFound,
			fmt.Errorf("unknown config %q", r.PathValue("name")))
		return
	}
	var req PatchRequest
	if err := decode(r, &req); err != nil {
		s.respond(w, route, start, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	delta := scadanet.Delta{Ops: req.Ops}
	if req.Delta != "" {
		parsed, err := scadanet.ParseDelta(req.Delta)
		if err != nil {
			s.respond(w, route, start, http.StatusUnprocessableEntity, err)
			return
		}
		delta.Ops = append(delta.Ops, parsed.Ops...)
	}
	if req.K < 0 || req.R < 0 {
		s.respond(w, route, start, http.StatusBadRequest,
			fmt.Errorf("negative re-verification budget (k=%d, r=%d)", req.K, req.R))
		return
	}
	k, rr := req.K, req.R
	if k == 0 {
		k = 1
	}
	if rr == 0 {
		rr = 1
	}
	budget, err := s.deriveBudget(req.Budget.toBudget())
	if err != nil {
		s.respond(w, route, start, http.StatusBadRequest, err)
		return
	}

	var ev MutationEvent
	run := func(ctx context.Context) error {
		// One mutation at a time per config: the apply → cache evolve →
		// re-verify → publish pipeline is atomic with respect to other
		// PATCHes. Queries are lock-free throughout — they keep cloning
		// the current version's snapshots until the swap below.
		sc.patchMu.Lock()
		defer sc.patchMu.Unlock()
		cur := sc.cur.Load()
		next, dirty, err := cur.cfg.Apply(delta)
		if err != nil {
			return err
		}
		ms, err := s.cache.Mutate(cur.cfg, next, s.analyzerOptions(budget)...)
		if err != nil {
			return err
		}
		queries := reverifyQueries(k, rr)
		runner := core.NewRunner(1, s.analyzerOptions(budget)...)
		outs, err := runner.VerifyAllCollect(ctx, next, queries)
		if err != nil {
			return err
		}
		verdicts := make([]MutationVerdict, 0, len(outs))
		for i, out := range outs {
			if out.Err != nil {
				return out.Err
			}
			if out.Result == nil {
				if err := ctx.Err(); err != nil {
					return err
				}
				return context.Canceled
			}
			verdicts = append(verdicts, MutationVerdict{
				Property:  queries[i].Property,
				Query:     queries[i],
				Resilient: out.Result.Resilient(),
				Status:    out.Result.Status,
				Result:    out.Result,
			})
		}
		// Publish: the version swap is the commit point. A failure
		// anywhere above leaves the prior version live and the cache
		// lineage already evolved under the new fingerprint — harmless,
		// since entries are content-addressed.
		nv := &configVersion{cfg: next, version: cur.version + 1}
		sc.cur.Store(nv)
		ev = MutationEvent{
			Config:   sc.name,
			Version:  nv.version,
			Delta:    delta.String(),
			Dirty:    dirty,
			Mutation: ms,
			Verdicts: verdicts,
		}
		s.reg.Inc("scadaver_mutations_total", map[string]string{"config": sc.name})
		sc.hub.publish(ev)
		return nil
	}
	j, release, ok := s.admit(w, r, route, s.requestDeadline(budget, len(reverifyQueries(k, rr))), run)
	if !ok {
		return
	}
	defer release()
	<-j.done

	if code, err := s.classify(j); err != nil {
		s.respond(w, route, start, code, err)
		return
	}
	s.brk.Record(false)
	s.respond(w, route, start, http.StatusOK, ev)
}

// handleSubscribe streams a configuration's mutation events as JSONL.
// Like the introspection routes it bypasses admission — a watcher must
// be able to observe re-verification exactly when the service is busy —
// but unlike them it is capped (MaxSubscribers per config, 503 beyond)
// and individually bounded (drop-oldest on a slow consumer). The first
// line is a greeting carrying the currently published version; every
// later line is one MutationEvent.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const route = "subscribe"
	name := r.URL.Query().Get("config")
	sc := s.configs[name]
	if sc == nil {
		s.respond(w, route, start, http.StatusNotFound, fmt.Errorf("unknown config %q", name))
		return
	}
	id, ch, err := sc.hub.subscribe()
	if err != nil {
		s.reg.Inc("scadaver_shed_total", map[string]string{"reason": "subscribers"})
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		s.respond(w, route, start, http.StatusServiceUnavailable, err)
		return
	}
	defer sc.hub.unsubscribe(id)

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(ev MutationEvent) error {
		if err := s.opts.Faults.BeforeStreamItem(); err != nil {
			return err
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := emit(MutationEvent{Config: sc.name, Version: sc.cur.Load().version}); err != nil {
		s.account(route, start, "499-truncated")
		return
	}
	for {
		select {
		case ev := <-ch:
			if err := emit(ev); err != nil {
				s.account(route, start, "499-truncated")
				return
			}
		case <-r.Context().Done():
			s.account(route, start, "200")
			return
		case <-s.baseCtx.Done():
			// Drain: end the stream cleanly; the client reconnects to a
			// healthy node.
			s.account(route, start, "200")
			return
		}
	}
}
