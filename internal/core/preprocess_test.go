package core_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
	"scadaver/internal/synth"
)

// snapshotDigest hashes what a presimplified snapshot hands every query:
// its simplified CNF (writeCNF) and the model a budget-free solve of a
// clone reconstructs. The model reads the elimination stack, which the
// clause database alone does not show, and the saved phases the solve
// starts from.
func snapshotDigest(t *testing.T, s *sat.Solver) string {
	t.Helper()
	h := fnv.New64a()
	writeCNF(t, h, s)
	c := s.Clone()
	fmt.Fprintf(h, " %v ", c.Solve())
	for _, b := range c.Model() {
		fmt.Fprintf(h, "%t", b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// cnfDigest hashes a presimplified snapshot's CNF alone (writeCNF), with
// no solve: it moves only when the simplified formula does.
func cnfDigest(t *testing.T, s *sat.Solver) string {
	t.Helper()
	h := fnv.New64a()
	writeCNF(t, h, s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeCNF writes a snapshot's clause database as WriteDIMACS prints it
// (clause order included), its eliminated-variable set, its
// root-assigned literals and the preprocessing counters that produced
// it.
func writeCNF(t *testing.T, h io.Writer, s *sat.Solver) {
	t.Helper()
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
}

// sweepSnapshotDigests builds, on a presimplifying analyzer over the
// synthesized configuration of bus and seed, every snapshot structure
// SweepQueries(4) uses, and digests each by its encoding key suffix.
func sweepSnapshotDigests(t *testing.T, bus *powergrid.BusSystem, seed int64, digest func(*testing.T, *sat.Solver) string) map[string]string {
	t.Helper()
	cfg, err := synth.Generate(synth.Params{Bus: bus, Seed: seed, Hierarchy: 2, SecureFraction: 0.9})
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
		got[key] = digest(t, enc.Solver())
	}
	return got
}

// TestSnapshotSimplifyGolden pins the simplified CNF of every snapshot
// structure the k-sweep campaign uses (observability, secured
// observability, bad-data detectability with r = 1) on one IEEE-14 and
// one IEEE-57 configuration. The digests were recorded for
// EncodingVersion 4 (one-sided totalizers); an encoding or
// preprocessing change that alters the emitted formula must fail here
// and bump EncodingVersion. A preprocessing change that keeps the CNF
// (TestSnapshotCNFGolden) can still move the saved phases, and with
// them the model of the clone solve.
func TestSnapshotSimplifyGolden(t *testing.T) {
	cases := []struct {
		bus  *powergrid.BusSystem
		seed int64
		want map[string]string // encoding key suffix → digest
	}{
		{powergrid.IEEE14(), 14007, map[string]string{
			"observability/r0":          "7032eb19233ee6d1",
			"secured-observability/r0":  "e28456eab55be1ca",
			"bad-data-detectability/r1": "4b0717e2a58a8c38",
		}},
		{powergrid.IEEE57(), 57007, map[string]string{
			"observability/r0":          "2a0fc68e172738cb",
			"secured-observability/r0":  "a81e5aee7d2cd216",
			"bad-data-detectability/r1": "354ca481b64c1f64",
		}},
	}
	for _, tc := range cases {
		if testing.Short() && tc.bus.Name != "ieee14" {
			continue
		}
		for key, d := range sweepSnapshotDigests(t, tc.bus, tc.seed, snapshotDigest) {
			if tc.want[key] != d {
				t.Errorf("%s seed %d %s: digest %s, want %s", tc.bus.Name, tc.seed, key, d, tc.want[key])
			}
		}
	}
}

// TestSnapshotCNFGolden pins the simplified CNF alone (cnfDigest) of the
// snapshots TestSnapshotSimplifyGolden covers, plus those of IEEE-57
// seed 57009, the campaign's richest mesh. It solves nothing, so a preprocessing change that keeps
// the formula but moves saved phases (and with them the model a solve
// finds) passes here and fails only TestSnapshotSimplifyGolden.
func TestSnapshotCNFGolden(t *testing.T) {
	cases := []struct {
		bus  *powergrid.BusSystem
		seed int64
		want map[string]string // encoding key suffix → digest
	}{
		{powergrid.IEEE14(), 14007, map[string]string{
			"observability/r0":          "787c52f4e3fe83c1",
			"secured-observability/r0":  "ca5a66facb159ed6",
			"bad-data-detectability/r1": "1c266a4aa2b74835",
		}},
		{powergrid.IEEE57(), 57007, map[string]string{
			"observability/r0":          "207a90647e22bf67",
			"secured-observability/r0":  "75311971d5b8ac1e",
			"bad-data-detectability/r1": "e6c9704b16ebe2a6",
		}},
		{powergrid.IEEE57(), 57009, map[string]string{
			"observability/r0":          "a777531cbf51d63c",
			"secured-observability/r0":  "c9cabb095a4b29b1",
			"bad-data-detectability/r1": "c62057857c0db05a",
		}},
	}
	for _, tc := range cases {
		if testing.Short() && tc.bus.Name != "ieee14" {
			continue
		}
		for key, d := range sweepSnapshotDigests(t, tc.bus, tc.seed, cnfDigest) {
			if tc.want[key] != d {
				t.Errorf("%s seed %d %s: digest %s, want %s", tc.bus.Name, tc.seed, key, d, tc.want[key])
			}
		}
	}
}

// TestPhasesCoverSimplifyTime checks that no query loses preprocessing
// time from its phases: on a plain and on a delta-aware cache, every
// k-sweep query's Phases.Preprocess is at least its Stats.SimplifyTime.
// The snapshot-building query carries the snapshot's one-off Simplify in
// both, and a delta query adds its own root probing to both. Each phase
// timer encloses the solver's own, so this is an ordering, not a
// wall-clock bound.
func TestPhasesCoverSimplifyTime(t *testing.T) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE14(), Seed: 14007, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []bool{false, true} {
		var copts []core.CacheOption
		if delta {
			copts = append(copts, core.CacheWithDelta())
		}
		a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache(copts...)))
		if err != nil {
			t.Fatal(err)
		}
		timed := 0
		for _, q := range experiments.SweepQueries(4) {
			res, err := a.Verify(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.SimplifyTime > 0 {
				timed++
			}
			if res.Phases.Preprocess < res.Stats.SimplifyTime {
				t.Errorf("delta=%v %v: preprocess phase %v < Simplify time %v", delta, q, res.Phases.Preprocess, res.Stats.SimplifyTime)
			}
		}
		if timed == 0 {
			t.Errorf("delta=%v: no query reports Simplify time", delta)
		}
	}
}

// BenchmarkSimplifyIEEE57 times the one-off preprocessing of a snapshot:
// each iteration runs Simplify on a fresh clone of the IEEE-57 (seed
// 57007) observability encoding as the cache builds it, before
// preprocessing. The clone is made with the timer stopped.
func BenchmarkSimplifyIEEE57(b *testing.B) { benchmarkSimplify(b, 57007) }

// BenchmarkSimplifyPathRichIEEE57 is BenchmarkSimplifyIEEE57 on the
// path-rich IEEE-57 seed 57009, where variable elimination attempts and
// failed-literal probing carry most of Simplify; seed 57007 does little
// elimination.
func BenchmarkSimplifyPathRichIEEE57(b *testing.B) { benchmarkSimplify(b, 57009) }

func benchmarkSimplify(b *testing.B, seed int64) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE57(), Seed: seed, Hierarchy: 2, SecureFraction: 0.9})
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

// BenchmarkObservabilitySnapshotIEEE118 times what building the
// IEEE-118 (seed 118000) observability snapshot costs the encoder and
// preprocessing layers: each iteration encodes the structure and the
// negated property, as the cache builds it, and runs Simplify on it. It
// reports the encoding's variables and clauses before Simplify, per
// op: the unique-measurement count's cardinality encoding carries most
// of both.
func BenchmarkObservabilitySnapshotIEEE118(b *testing.B) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE118(), Seed: 118000, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true))
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{Property: core.Observability, Combined: true}
	var vars, clauses int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := a.StructureEncoder(q)
		vars += enc.Solver().NumVars()
		clauses += enc.Solver().Stats().Clauses
		if !enc.Simplify() {
			b.Fatal("snapshot refuted by preprocessing")
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(vars)/n, "vars/op")
	b.ReportMetric(float64(clauses)/n, "clauses/op")
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

// BenchmarkCloneBudgetIEEE57 times the per-query set-up of a cached
// query: each iteration takes a clone of the presimplified IEEE-57
// (seed 57007) observability snapshot as Verify does and asserts a k = 2
// failure budget on it, the work every query does before its solve.
func BenchmarkCloneBudgetIEEE57(b *testing.B) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE57(), Seed: 57007, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache()))
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{Property: core.Observability, Combined: true, K: 2}
	enc, err := a.SnapshotEncoder(q)
	if err != nil {
		b.Fatal(err)
	}
	budget := a.BudgetFormula(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := a.QueryClone(q, budget)
		if err != nil {
			b.Fatal(err)
		}
		c.Assert(budget)
		if c.Solver().NumVars() <= enc.Solver().NumVars() {
			b.Fatal("budget added no variables")
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

// BenchmarkBoundaryUnsatIEEE118 times the query the paper's Fig. 5
// boundary search spends its time on: the k = 2 observability Verify on
// IEEE-118 (seed 118000), which holds, through a presimplified encoding
// cache. The snapshot is built before the clock starts, so an iteration
// is a clone, the failure budget's counter and the Unsat search. It
// reports the solver's variables and clauses as the query sees them,
// and its conflicts and propagations, per op: the encoder's share shows
// in the first two, and the search it buys in the last two.
func BenchmarkBoundaryUnsatIEEE118(b *testing.B) {
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.IEEE118(), Seed: 118000, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalyzer(cfg, core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache()))
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{Property: core.Observability, Combined: true, K: 2}
	if _, err := a.SnapshotEncoder(q); err != nil {
		b.Fatal(err)
	}
	var vars, clauses int
	var conflicts, props uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.Verify(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != sat.Unsat {
			b.Fatalf("%v: %v, want unsat", q, res.Status)
		}
		vars += res.Stats.MaxVars
		clauses += res.Stats.Clauses
		conflicts += res.Stats.Conflicts
		props += res.Stats.Propagations
	}
	n := float64(b.N)
	b.ReportMetric(float64(vars)/n, "vars/op")
	b.ReportMetric(float64(clauses)/n, "clauses/op")
	b.ReportMetric(float64(conflicts)/n, "conflicts/op")
	b.ReportMetric(float64(props)/n, "props/op")
}
