// Command scada-served is the long-running verification service: it
// loads one or more named SCADA configurations and serves resiliency
// verification over HTTP/JSON with admission control, load shedding,
// and graceful degradation (see internal/serve and DESIGN.md §10).
//
// Usage:
//
//	scada-served -addr :8080 -config grid=testdata/case5bus.scada \
//	    [-config NAME=PATH ...] [-queue 64] [-workers 8] \
//	    [-deadline 10s] [-max-deadline 30s] [-checkpoint-dir /var/lib/scadaver] \
//	    [-breaker-threshold 0.5] [-drain-timeout 20s]
//
// Endpoints:
//
//	POST /v1/verify     one resiliency query        → JSON result
//	POST /v1/sweep      combined budgets k = 0..K   → JSON results
//	POST /v1/enumerate  threat vectors              → JSONL stream (resumable by requestId)
//	PATCH /v1/configs/{name}  apply a mutation delta → re-verify and publish, JSON verdicts
//	GET  /v1/subscribe  ?config=NAME                → JSONL stream of re-verification verdicts
//	GET  /v1/queries    live + recent query introspection → JSON
//	GET  /v1/queries/{id}/watch  one query's progress → JSONL stream
//	GET  /healthz       liveness
//	GET  /readyz        readiness (drain + breaker + load signals)
//	GET  /metrics       Prometheus text exposition
//	GET  /metrics.json  JSON metrics export
//	GET  /debug/pprof/  live profiling
//
// Overload sheds with 429 Retry-After at the bounded admission queue;
// a sustained unsolved/panic rate opens a breaker that turns /readyz
// unready; SIGTERM drains gracefully — stop accepting, finish or
// deadline-cancel in-flight solves, then exit.
//
// Clustering (see internal/cluster and DESIGN.md §14): with
// -coordinator the process fronts a fleet of member nodes instead of
// solving itself — it consistent-hashes campaigns across the members
// named by -member NAME=URL (or joining at runtime via
// POST /v1/cluster/join), fails requests over when a member dies, and
// carries in-flight enumeration checkpoints to the new owner. A member
// started with -join URL announces itself to that coordinator once it
// is listening, advertising -advertise (default: its bound address).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"scadaver/internal/cluster"
	"scadaver/internal/core"
	"scadaver/internal/scadanet"
	"scadaver/internal/serve"
	"scadaver/internal/version"
)

// configFlags collects repeated -config NAME=PATH (or bare PATH)
// values.
type configFlags []string

func (c *configFlags) String() string { return strings.Join(*c, ", ") }
func (c *configFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

// loadConfigs parses every -config value into a named configuration.
// A bare PATH takes the file's base name (without extension) as its
// name.
func loadConfigs(specs []string) (map[string]*scadanet.Config, error) {
	out := make(map[string]*scadanet.Config, len(specs))
	for _, spec := range specs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			path = spec
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		if name == "" || path == "" {
			return nil, fmt.Errorf("bad -config %q: want NAME=PATH or PATH", spec)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate config name %q", name)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		cfg, err := scadanet.ParseConfig(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("config %q: %w", name, err)
		}
		out[name] = cfg
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "scada-served:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until SIGTERM/SIGINT, then drains.
// ready, when non-nil, receives the bound listen address once the
// service is accepting (tests listen on :0 and need the real port).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("scada-served", flag.ContinueOnError)
	var configs configFlags
	fs.Var(&configs, "config", "NAME=PATH of a .scada configuration to serve (repeatable; bare PATH names it after the file)")
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		queueDepth   = fs.Int("queue", 64, "admission queue depth; excess load is shed with 429")
		workers      = fs.Int("workers", 0, "verification worker-pool size (0 = GOMAXPROCS)")
		deadline     = fs.Duration("deadline", 10*time.Second, "default per-solve deadline for requests without a budget")
		maxDeadline  = fs.Duration("max-deadline", 30*time.Second, "server-enforced per-solve deadline ceiling")
		maxRetries   = fs.Int("max-retries", 2, "server-enforced retry ceiling per query")
		reqTimeout   = fs.Duration("request-timeout", 60*time.Second, "whole-request wall-clock ceiling (queue wait included)")
		maxEnumerate = fs.Int("max-enumerate", 256, "max threat vectors per /v1/enumerate request")
		maxSweepK    = fs.Int("max-sweep-k", 64, "max budget range per /v1/sweep request")
		brkWindow    = fs.Int("breaker-window", 32, "breaker rolling-window size (request outcomes)")
		brkThreshold = fs.Float64("breaker-threshold", 0.5, "unsolved/panic rate that opens the breaker")
		brkCooldown  = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before probing")
		ckptDir      = fs.String("checkpoint-dir", "", "directory for resumable /v1/enumerate checkpoints (empty = disabled)")
		sloThresh    = fs.Duration("slo", 0, "latency SLO threshold: slower requests count scadaver_slo_breach_total and slow queries log their flight record (0 = disabled)")
		queryHistory = fs.Int("query-history", 0, "completed queries retained by GET /v1/queries (0 = default 64)")
		presimp      = fs.Bool("presimplify", false, "preprocess each structural CNF before search (amortized via the shared encoding cache)")
		certify      = fs.Bool("certify", false, "certify every verdict (proof-logged solves checked in-process, sat-model audits, quarantine on divergence); responses carry certified/proofClauses/auditMs attestation")
		cacheEntries = fs.Int("cache-entries", 0, "encoding-cache entry cap, LRU-evicted beyond it (0 = default 256)")
		maxSubs      = fs.Int("max-subscribers", 0, "concurrent GET /v1/subscribe watchers per config; excess shed with 503 (0 = default 64)")
		drainTimeout = fs.Duration("drain-timeout", 20*time.Second, "grace for in-flight solves on SIGTERM before they are cancelled")
		showVersion  = fs.Bool("version", false, "print version and exit")
	)
	var members memberFlags
	fs.Var(&members, "member", "NAME=URL of a cluster member (repeatable; coordinator mode)")
	var (
		coordMode = fs.Bool("coordinator", false, "run as a cluster coordinator fronting -member nodes instead of solving locally")
		replicas  = fs.Int("replicas", 2, "coordinator replica-walk depth for failover ordering")
		attempts  = fs.Int("attempts", 3, "coordinator forward attempts per request before giving up")
		heartbeat = fs.Duration("heartbeat", time.Second, "coordinator member health-probe cadence")
		joinURL   = fs.String("join", "", "coordinator URL to announce this member to once listening")
		advertise = fs.String("advertise", "", "URL this member advertises when joining (default: its bound address)")
		nodeName  = fs.String("node-name", "", "member name used when joining (default: derived from the bound address)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(out, version.String())
		return nil
	}
	if len(configs) == 0 && !*coordMode {
		fs.Usage()
		return fmt.Errorf("at least one -config is required")
	}
	named, err := loadConfigs(configs)
	if err != nil {
		return err
	}
	if *coordMode {
		return runCoordinator(coordinatorParams{
			addr: *addr, members: members, configs: named,
			replicas: *replicas, attempts: *attempts, heartbeat: *heartbeat,
		}, out, ready)
	}

	srv, err := serve.New(serve.Options{
		Configs:          named,
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		DefaultBudget:    core.QueryBudget{Deadline: *deadline},
		MaxBudget:        core.QueryBudget{Deadline: *maxDeadline, Retries: *maxRetries},
		RequestTimeout:   *reqTimeout,
		MaxEnumerate:     *maxEnumerate,
		MaxSweepK:        *maxSweepK,
		BreakerWindow:    *brkWindow,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		CheckpointDir:    *ckptDir,
		SLOThreshold:     *sloThresh,
		QueryHistory:     *queryHistory,
		Presimplify:      *presimp,
		CacheEntries:     *cacheEntries,
		MaxSubscribers:   *maxSubs,
		Certify:          *certify,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(out, "scada-served: serving %d config(s) on %s\n", len(named), ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *joinURL != "" {
		name, adv := *nodeName, *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		if name == "" {
			name = "node-" + strings.NewReplacer(":", "-", ".", "-").Replace(ln.Addr().String())
		}
		go announceJoin(ctx, *joinURL, cluster.Member{Name: name, URL: adv}, out)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (readyz unready, new work shed),
	// finish or deadline-cancel in-flight solves, then close the
	// listener. Checkpoints are flushed per entry; metrics live at
	// /metrics until the very end.
	fmt.Fprintln(out, "scada-served: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := shutdownHTTP(httpSrv, shutdownGrace); err != nil && drainErr == nil {
		drainErr = err
	}
	<-errCh // Serve has returned http.ErrServerClosed
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	if drainErr != nil {
		fmt.Fprintln(out, "scada-served: drain deadline reached; in-flight solves were cancelled")
	}
	fmt.Fprintln(out, "scada-served: drained, exiting")
	return nil
}

// memberFlags collects repeated -member NAME=URL values.
type memberFlags []cluster.Member

func (m *memberFlags) String() string {
	names := make([]string, len(*m))
	for i, mem := range *m {
		names[i] = mem.Name
	}
	return strings.Join(names, ", ")
}

func (m *memberFlags) Set(v string) error {
	name, memberURL, ok := strings.Cut(v, "=")
	if !ok || name == "" || memberURL == "" {
		return fmt.Errorf("bad -member %q: want NAME=URL", v)
	}
	*m = append(*m, cluster.Member{Name: name, URL: memberURL})
	return nil
}

type coordinatorParams struct {
	addr      string
	members   []cluster.Member
	configs   map[string]*scadanet.Config
	replicas  int
	attempts  int
	heartbeat time.Duration
}

// runCoordinator serves the cluster coordinator until SIGTERM/SIGINT.
// Configs are optional here: they only enable checkpoint-carrying
// handoff fingerprints — without them a failover restarts the campaign
// on the new owner.
func runCoordinator(p coordinatorParams, out io.Writer, ready chan<- string) error {
	coord, err := cluster.New(cluster.Options{
		Members:           p.members,
		Configs:           p.configs,
		Replicas:          p.replicas,
		Attempts:          p.attempts,
		HeartbeatInterval: p.heartbeat,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	fmt.Fprintf(out, "scada-served: coordinating %d member(s) on %s\n", len(p.members), ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "scada-served: coordinator shutting down")
	if err := shutdownHTTP(httpSrv, shutdownGrace); err != nil {
		return err
	}
	<-errCh
	fmt.Fprintln(out, "scada-served: coordinator exited")
	return nil
}

// shutdownGrace bounds how long a shutting-down server waits for its
// open connections to go idle.
const shutdownGrace = 5 * time.Second

// shutdownHTTP stops srv: it closes the listeners, then waits up to
// grace for open connections to go idle, and closes those still open at
// the deadline instead of failing. A deadline is no error here: net/http
// counts a connection accepted but not yet read as active for five
// seconds, so a client that connected just before the signal would
// otherwise turn a clean exit into context.DeadlineExceeded.
func shutdownHTTP(srv *http.Server, grace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return srv.Close()
	}
	return err
}

// announceJoin registers this member with the coordinator, retrying
// until it succeeds or the process is shutting down — the coordinator
// may well start after its members.
func announceJoin(ctx context.Context, coordURL string, m cluster.Member, out io.Writer) {
	body, err := json.Marshal(m)
	if err != nil {
		fmt.Fprintf(out, "scada-served: join announce: %v\n", err)
		return
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			strings.TrimSuffix(coordURL, "/")+"/v1/cluster/join", bytes.NewReader(body))
		if err != nil {
			fmt.Fprintf(out, "scada-served: join announce: %v\n", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				fmt.Fprintf(out, "scada-served: joined cluster at %s as %s\n", coordURL, m.Name)
				return
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		fmt.Fprintf(out, "scada-served: join announce failed (%v), retrying\n", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}
}
