package core_test

import (
	"fmt"
	"os"
	"testing"

	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// checkerState is what the replay test compares of two checkers.
type checkerState struct {
	Steps, Additions int
	Empty            bool
	Err              string
}

func stateOf(ck *drat.Checker) checkerState {
	if ck == nil {
		return checkerState{Err: "no checker"}
	}
	return checkerState{ck.Steps(), ck.Additions(), ck.Empty(), fmt.Sprint(ck.Err())}
}

// sameVerdict fails the test unless the replayed path's result got
// matches the online reference's want on everything certification
// reports, and the search behind them (status and witness).
func sameVerdict(t *testing.T, where string, got, want *core.Result) {
	t.Helper()
	if got.Status != want.Status || fmt.Sprint(got.Vector) != fmt.Sprint(want.Vector) {
		t.Fatalf("%s: %v %v, online %v %v", where, got.Status, got.Vector, want.Status, want.Vector)
	}
	if got.Certified != want.Certified || got.Quarantined != want.Quarantined ||
		got.CertifyError != want.CertifyError || got.ProofClauses != want.ProofClauses {
		t.Fatalf("%s: certified=%v quarantined=%v proof=%d err=%q, online certified=%v quarantined=%v proof=%d err=%q",
			where, got.Certified, got.Quarantined, got.ProofClauses, got.CertifyError,
			want.Certified, want.Quarantined, want.ProofClauses, want.CertifyError)
	}
	if !got.Certified {
		t.Fatalf("%s: healthy verdict not certified: %s", where, got.CertifyError)
	}
	if got.Status != sat.Unsat && got.ProofReplayed != 0 {
		t.Fatalf("%s: %v verdict replayed %d proof steps", where, got.Status, got.ProofReplayed)
	}
}

// TestCertifyReplayMatchesOnline holds replayed certification — proofs
// logged at solve time and checked only for Unsat verdicts — to the
// online checking it replaced, kept as a test reference (OnlineSweep).
// On case5 and IEEE-14, for every k-sweep query shape, three routes must
// agree with the reference verdict by verdict: Verify on a certified
// cache, Verify uncached, and a Sweep (cached and uncached) whose
// VerifyRange(0..4) is followed by the split budgets and k = 0 again, so
// Unsat budgets come after Sat ones and must catch the checker up with
// the steps those logged. Status, witness, Certified, CertifyError and
// ProofClauses must match; an Unsat verdict's checker must match the
// online one on Steps, Additions, Empty and Err; a Sat verdict must
// replay nothing, and a Sat Verify must not even create a checker.
func TestCertifyReplayMatchesOnline(t *testing.T) {
	f, err := os.Open("../../testdata/case5bus.scada")
	if err != nil {
		t.Fatal(err)
	}
	case5, err := scadanet.ParseConfig(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ieee14, err := synth.Generate(synth.Params{Bus: powergrid.IEEE14(), Seed: 41, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	shapes := experiments.SweepQueries(2)
	newPair := func(t *testing.T, cfg *scadanet.Config, cached bool) (got, ref *core.Analyzer) {
		t.Helper()
		for _, a := range []**core.Analyzer{&got, &ref} {
			opts := []core.Option{core.WithPresimplify(true), core.WithCertification(true)}
			if cached {
				opts = append(opts, core.WithEncodingCache(core.NewEncodingCache()))
			}
			var err error
			if *a, err = core.NewAnalyzer(cfg, opts...); err != nil {
				t.Fatal(err)
			}
		}
		return got, ref
	}
	for _, sys := range []struct {
		name string
		cfg  *scadanet.Config
	}{{"case5", case5}, {"ieee14", ieee14}} {
		for _, cached := range []bool{true, false} {
			route := map[bool]string{true: "cached", false: "uncached"}[cached]
			t.Run(sys.name+"/verify-"+route, func(t *testing.T) {
				got, ref := newPair(t, sys.cfg, cached)
				for _, q := range shapes {
					res, ck, err := got.VerifyChecked(q)
					if err != nil {
						t.Fatal(err)
					}
					want, wck, err := ref.OnlineVerify(q)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprint(q)
					sameVerdict(t, where, res, want)
					if res.Status != sat.Unsat {
						if ck != nil {
							t.Fatalf("%s: %v verdict created a checker", where, res.Status)
						}
						continue
					}
					if g, w := stateOf(ck), stateOf(wck); g != w {
						t.Fatalf("%s: replayed checker %+v, online %+v", where, g, w)
					}
					if res.ProofReplayed == 0 {
						t.Fatalf("%s: Unsat verdict replayed nothing", where)
					}
				}
			})
			t.Run(sys.name+"/sweep-"+route, func(t *testing.T) {
				got, ref := newPair(t, sys.cfg, cached)
				catchUps := 0
				seen := map[string]bool{}
				for _, shape := range shapes {
					probe := core.Query{Property: shape.Property, Combined: true, R: shape.R, KL: shape.KL}
					if seen[fmt.Sprint(probe)] {
						continue
					}
					seen[fmt.Sprint(probe)] = true
					sw, err := got.NewSweep(probe.Property, probe.R, probe.KL)
					if err != nil {
						t.Fatal(err)
					}
					rsw, err := ref.NewOnlineSweep(probe.Property, probe.R, probe.KL)
					if err != nil {
						t.Fatal(err)
					}
					// The sweep's checker starts from the snapshot's prelude
					// when it forks one; its steps then grow by exactly what
					// each Unsat verdict replays.
					steps := 0
					if cached {
						pre, err := got.SnapshotPrelude(probe)
						if err != nil {
							t.Fatal(err)
						}
						if pre != nil {
							steps = pre.Steps()
						}
					}
					const maxK = 4
					results, err := sw.VerifyRange(maxK, nil)
					if err != nil {
						t.Fatal(err)
					}
					var last checkerState
					check := func(q core.Query, res *core.Result) {
						t.Helper()
						want, wck := rsw.Verify(q)
						where := fmt.Sprint(q)
						sameVerdict(t, where, res, want)
						steps += int(res.ProofReplayed)
						if res.Status == sat.Unsat {
							last = stateOf(wck)
							if steps != wck.Steps() {
								t.Fatalf("%s: replayed checker at %d steps, online at %d", where, steps, wck.Steps())
							}
						}
					}
					for k, res := range results {
						q := probe
						q.K = k
						check(q, res)
					}
					if g := stateOf(sw.Checker()); last != (checkerState{}) && g != last {
						t.Fatalf("%v: replayed checker %+v after VerifyRange, online %+v", probe, g, last)
					}
					// Split budgets and k = 0 again, after the Sat budgets.
					var after []core.Query
					for _, q := range shapes {
						if !q.Combined && q.Property == probe.Property && q.R == probe.R && q.KL == probe.KL {
							after = append(after, q)
						}
					}
					prev := results[maxK].Status
					for _, q := range append(after, probe) {
						var res *core.Result
						if q.Combined {
							res, err = sw.VerifyK(q.K)
						} else {
							res, err = sw.VerifySplit(q.K1, q.K2)
						}
						if err != nil {
							t.Fatal(err)
						}
						check(q, res)
						if res.Status == sat.Unsat {
							if prev == sat.Sat {
								catchUps++
							}
							if g := stateOf(sw.Checker()); g != last {
								t.Fatalf("%v: replayed checker %+v, online %+v", q, g, last)
							}
						}
						prev = res.Status
					}
				}
				if catchUps == 0 {
					t.Fatal("no Unsat budget followed a Sat one: the catch-up went untested")
				}
			})
		}
	}
}
