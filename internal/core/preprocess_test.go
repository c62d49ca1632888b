package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
	"scadaver/internal/synth"
)

// snapshotDigest hashes what a presimplified snapshot hands every query:
// its clause database as WriteDIMACS prints it (clause order included),
// its eliminated-variable set, its root-assigned literals and the
// preprocessing counters that produced it. The model a budget-free solve
// of a clone reconstructs is hashed too: it reads the elimination stack,
// which the clause database alone does not show.
func snapshotDigest(t *testing.T, s *sat.Solver) string {
	t.Helper()
	h := fnv.New64a()
	if err := s.WriteDIMACS(h); err != nil {
		t.Fatal(err)
	}
	for v := sat.Var(0); int(v) < s.NumVars(); v++ {
		if s.Eliminated(v) {
			fmt.Fprintf(h, "e%d ", v)
		}
		if val := s.Value(v); val != sat.Unknown {
			fmt.Fprintf(h, "a%d=%v ", v, val)
		}
	}
	st := s.Stats()
	fmt.Fprintf(h, "elim=%d sub=%d str=%d failed=%d", st.ElimVars, st.SubsumedClauses, st.StrengthenedClauses, st.FailedLits)
	c := s.Clone()
	fmt.Fprintf(h, " %v ", c.Solve())
	for _, b := range c.Model() {
		fmt.Fprintf(h, "%t", b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSnapshotSimplifyGolden pins the simplified CNF of every snapshot
// structure the k-sweep campaign uses (observability, secured
// observability, bad-data detectability with r = 1) on one IEEE-14 and
// one IEEE-57 configuration. The digests were recorded before the
// bounded-variable-elimination kernel was rewritten for speed; a
// preprocessing change that alters the emitted formula must fail here
// and bump EncodingVersion.
func TestSnapshotSimplifyGolden(t *testing.T) {
	cases := []struct {
		bus  *powergrid.BusSystem
		seed int64
		want map[string]string // encoding key suffix → digest
	}{
		{powergrid.IEEE14(), 14007, map[string]string{
			"observability/r0":          "389b3a0eddf42c40",
			"secured-observability/r0":  "3eb743ea75a8c21f",
			"bad-data-detectability/r1": "e5ce414435a2e7df",
		}},
		{powergrid.IEEE57(), 57007, map[string]string{
			"observability/r0":          "1e21f134bf90af88",
			"secured-observability/r0":  "89add4980aadd5ad",
			"bad-data-detectability/r1": "b198c503cd49e3ba",
		}},
	}
	for _, tc := range cases {
		if testing.Short() && tc.bus.Name != "ieee14" {
			continue
		}
		cfg, err := synth.Generate(synth.Params{Bus: tc.bus, Seed: tc.seed, Hierarchy: 2, SecureFraction: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache()))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, q := range experiments.SweepQueries(4) {
			key := fmt.Sprintf("%v/r%d", q.Property, q.R)
			if _, ok := got[key]; ok {
				continue
			}
			enc, err := a.SnapshotEncoder(q)
			if err != nil {
				t.Fatal(err)
			}
			got[key] = snapshotDigest(t, enc.Solver())
		}
		for key, d := range got {
			if tc.want[key] != d {
				t.Errorf("%s seed %d %s: digest %s, want %s", tc.bus.Name, tc.seed, key, d, tc.want[key])
			}
		}
	}
}

// BenchmarkSimplifyIEEE57 times the one-off preprocessing of a snapshot:
// each iteration runs Simplify on a fresh clone of the IEEE-57 (seed
// 57007) observability encoding as the cache builds it, before
// preprocessing. The clone is made with the timer stopped.
func BenchmarkSimplifyIEEE57(b *testing.B) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE57(), Seed: 57007, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true))
	if err != nil {
		b.Fatal(err)
	}
	enc := a.StructureEncoder(core.Query{Property: core.Observability, Combined: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := enc.Clone()
		b.StartTimer()
		if !c.Simplify() {
			b.Fatal("snapshot refuted by preprocessing")
		}
	}
}

// BenchmarkCloneIEEE57 times the per-query copy of a shared snapshot:
// each iteration clones the presimplified IEEE-57 (seed 57007)
// observability snapshot encoder, solver included, as the encoding
// cache does for every query it serves.
func BenchmarkCloneIEEE57(b *testing.B) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE57(), Seed: 57007, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache()))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := a.SnapshotEncoder(core.Query{Property: core.Observability, Combined: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := enc.Clone(); c.Solver().NumVars() != enc.Solver().NumVars() {
			b.Fatal("clone lost variables")
		}
	}
}

// proofStep is one recorded proof step.
type proofStep struct {
	op   sat.ProofOp
	lits []sat.Lit
}

// proofRecorder records a proof stream for replay.
type proofRecorder struct{ steps []proofStep }

func (r *proofRecorder) Step(op sat.ProofOp, lits []sat.Lit) {
	r.steps = append(r.steps, proofStep{op, append([]sat.Lit(nil), lits...)})
}

// certifiedIEEE57 returns a certifying, presimplifying analyzer with a
// plain encoding cache over the IEEE-57 (seed 57007) configuration, and
// the observability query its snapshot serves.
func certifiedIEEE57(b *testing.B) (*core.Analyzer, core.Query) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE57(), Seed: 57007, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true), core.WithCertification(true), core.WithEncodingCache(core.NewEncodingCache()))
	if err != nil {
		b.Fatal(err)
	}
	return a, core.Query{Property: core.Observability, Combined: true}
}

// BenchmarkDRATPreludeIEEE57 times the one-off check of a certified
// snapshot's derivation: each iteration replays the recorded IEEE-57
// (seed 57007) observability prelude stream — encoding, negated property
// and Simplify — into a fresh checker.
func BenchmarkDRATPreludeIEEE57(b *testing.B) {
	a, q := certifiedIEEE57(b)
	rec := &proofRecorder{}
	a.RecordPrelude(q, rec)
	pre, err := a.SnapshotPrelude(q)
	if err != nil || pre == nil {
		b.Fatalf("no shared prelude: %v", err)
	}
	if len(rec.steps) != pre.Steps() {
		b.Fatalf("recorded %d steps, the snapshot's prelude checked %d", len(rec.steps), pre.Steps())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck := drat.New()
		for _, st := range rec.steps {
			ck.Step(st.op, st.lits)
		}
		if ck.Err() != nil {
			b.Fatal(ck.Err())
		}
	}
}

// BenchmarkCheckerCloneIEEE57 times the per-query fork of a certified
// snapshot's prelude: each iteration clones the shared IEEE-57 (seed
// 57007) observability prelude checker, as every certified query on
// that snapshot does.
func BenchmarkCheckerCloneIEEE57(b *testing.B) {
	a, q := certifiedIEEE57(b)
	pre, err := a.SnapshotPrelude(q)
	if err != nil || pre == nil {
		b.Fatalf("no shared prelude: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := pre.Clone(); c.Live() != pre.Live() {
			b.Fatal("clone lost clauses")
		}
	}
}

// BenchmarkAuditSatIEEE57 times the Sat audit of one certified verdict:
// each iteration audits the IEEE-57 (seed 57007) observability query at
// the smallest violated budget, solved on a clone of the certified,
// presimplified snapshot, as the certified k-sweep audits every Sat
// verdict.
func BenchmarkAuditSatIEEE57(b *testing.B) {
	a, q := certifiedIEEE57(b)
	for ; q.K <= 32; q.K++ {
		enc, res, err := a.SatEncoder(q)
		if err != nil {
			b.Fatal(err)
		}
		if enc == nil {
			continue
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.AuditSat(q, enc, res); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatal("no violated budget up to K=32")
}

// BenchmarkCertifiedVerifyIEEE57 times one certified Verify on the warm
// IEEE-57 (seed 57007) observability snapshot, certified prelude
// included: sat at the smallest violated budget, whose audit evaluates
// the model, and unsat at k = 0, whose audit checks the proof. The
// snapshot is built before the clock starts, so an iteration is a clone,
// a solve, decoding and the certification.
func BenchmarkCertifiedVerifyIEEE57(b *testing.B) {
	a, unsatQ := certifiedIEEE57(b)
	satQ := unsatQ
	for {
		res, err := a.Verify(satQ)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status == sat.Sat {
			break
		}
		if satQ.K++; satQ.K > 32 {
			b.Fatal("no violated budget up to K=32")
		}
	}
	for _, c := range []struct {
		name string
		q    core.Query
		want sat.Status
	}{{"sat", satQ, sat.Sat}, {"unsat", unsatQ, sat.Unsat}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := a.Verify(c.q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != c.want || !res.Certified {
					b.Fatalf("%v: %v certified=%v (%s), want %v certified", c.q, res.Status, res.Certified, res.CertifyError, c.want)
				}
			}
		})
	}
}
