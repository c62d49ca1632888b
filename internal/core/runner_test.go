package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// campaignQueries is a representative mixed campaign: every property,
// combined and split budgets, over one topology.
func campaignQueries(maxK int) []Query {
	var qs []Query
	for k := 0; k <= maxK; k++ {
		qs = append(qs,
			Query{Property: Observability, Combined: true, K: k},
			Query{Property: SecuredObservability, Combined: true, K: k},
			Query{Property: BadDataDetectability, Combined: true, K: k, R: 1},
			Query{Property: Observability, K1: k, K2: 1},
		)
	}
	return qs
}

func synthConfig(t testing.TB, sys *powergrid.BusSystem, seed int64, hierarchy int) *scadanet.Config {
	t.Helper()
	cfg, err := synth.Generate(synth.Params{Bus: sys, Seed: seed, Hierarchy: hierarchy, SecureFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRunnerMatchesSerial asserts the determinism contract: a parallel
// campaign returns, index by index, exactly the results of the serial
// one — same status, same minimized threat vector.
func TestRunnerMatchesSerial(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	queries := campaignQueries(3)

	serial := make([]*Result, len(queries))
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if serial[i], err = a.Verify(q); err != nil {
			t.Fatal(err)
		}
	}

	parallel, err := NewRunner(8).VerifyAll(context.Background(), cfg, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if parallel[i] == nil {
			t.Fatalf("query %d: missing parallel result", i)
		}
		if parallel[i].Status != serial[i].Status {
			t.Fatalf("query %v: parallel %v != serial %v", queries[i], parallel[i].Status, serial[i].Status)
		}
		got, want := fmt.Sprint(parallel[i].Vector), fmt.Sprint(serial[i].Vector)
		if got != want {
			t.Fatalf("query %v: parallel vector %s != serial %s", queries[i], got, want)
		}
		if parallel[i].Stats.Solves == 0 {
			t.Fatalf("query %v: per-solve stats not populated: %+v", queries[i], parallel[i].Stats)
		}
	}
}

// TestRunnerSharedTopologyRace drives many concurrent workers over one
// shared Config; under -race this pins the ownership rule (solvers are
// private, the topology is read-only).
func TestRunnerSharedTopologyRace(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE30(), 5, 2)
	queries := campaignQueries(2)
	results, err := NewRunner(16).VerifyAll(context.Background(), cfg, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("query %d: nil result", i)
		}
		if res.Status == sat.Unsolved {
			t.Fatalf("query %v: unsolved without budget or cancellation", queries[i])
		}
	}
}

// TestRunnerCancellation cancels a long campaign mid-flight and expects
// a prompt return with the context error and nil entries for abandoned
// queries.
func TestRunnerCancellation(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE57(), 57003, 3)
	queries := campaignQueries(8)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, err := NewRunner(4).VerifyAll(ctx, cfg, queries)
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: an uninterrupted ieee57 campaign takes far longer.
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	nils := 0
	for _, res := range results {
		if res == nil {
			nils++
		} else if res.Status == sat.Unsolved {
			t.Fatal("interrupted solves must be dropped, not reported as unsolved")
		}
	}
	if nils == 0 {
		t.Fatal("cancellation abandoned no queries; campaign finished before cancel")
	}
}

// TestRunnerPreCancelled asserts a cancelled context does no work. A
// dispatch that only races the cancellation against the send hands a
// job to a worker that already waits on the job channel, so the
// campaign runs one worker per query (the early workers are ready
// while the later ones start) and is repeated.
func TestRunnerPreCancelled(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := campaignQueries(15)
	for run := 0; run < 200; run++ {
		results, err := NewRunner(len(queries)).VerifyAll(ctx, cfg, queries)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v", run, err)
		}
		for i, res := range results {
			if res != nil {
				t.Fatalf("run %d: query %d ran despite pre-cancelled context", run, i)
			}
		}
	}
}

// TestRunnerErrorStopsCampaign asserts the first task error aborts the
// run and is returned.
func TestRunnerErrorStopsCampaign(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 1, 1)
	queries := campaignQueries(2)
	queries[3] = Query{Property: Property(99)} // invalid
	_, err := NewRunner(4).VerifyAll(context.Background(), cfg, queries)
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadQuery", err)
	}
}

// TestRunnerRunEach checks the generic pool: per-worker setup runs once
// per worker and every index is processed exactly once.
func TestRunnerRunEach(t *testing.T) {
	const n = 100
	var setups, done atomic.Int64
	seen := make([]atomic.Int64, n)
	r := NewRunner(7)
	err := r.RunEach(context.Background(), n, func(context.Context) (func(int) error, error) {
		setups.Add(1)
		return func(i int) error {
			seen[i].Add(1)
			done.Add(1)
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := done.Load(); got != n {
		t.Fatalf("tasks done = %d, want %d", got, n)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d processed %d times", i, seen[i].Load())
		}
	}
	if s := setups.Load(); s < 1 || s > 7 {
		t.Fatalf("setups = %d, want 1..7", s)
	}
}

// TestDispatchOrderLeadsWithSnapshots: a campaign dispatches the first
// pending query of every snapshot (snapshotKeyOf) before any other,
// then the rest in input order.
func TestDispatchOrderLeadsWithSnapshots(t *testing.T) {
	obs0 := Query{Property: Observability, Combined: true, K: 0}
	obs1 := Query{Property: Observability, Combined: true, K: 1}
	split := Query{Property: Observability, K1: 1, K2: 1}
	links := Query{Property: Observability, Combined: true, K: 1, KL: 1}
	sec := Query{Property: SecuredObservability, Combined: true, K: 1}
	bad := Query{Property: BadDataDetectability, Combined: true, K: 1, R: 1}
	queries := []Query{obs0, obs1, split, links, sec, obs1, bad, sec}

	cases := []struct {
		name string
		done []bool
		want []int
	}{
		{"fresh", nil, []int{0, 3, 4, 6, 1, 2, 5, 7}},
		{"resumed", []bool{true, false, false, false, true, false, false, false}, []int{1, 3, 6, 7, 0, 2, 4, 5}},
	}
	for _, c := range cases {
		if got := dispatchOrder(queries, c.done); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: order %v, want %v", c.name, got, c.want)
		}
	}
}
