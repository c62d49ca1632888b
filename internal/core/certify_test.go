package core

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"scadaver/internal/faultinject"
	"scadaver/internal/logic"
	"scadaver/internal/obs"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
	"scadaver/internal/scadanet"
)

// boundaryQueries probes the combined observability boundary of cfg
// with a plain analyzer and returns one Unsat query (the largest
// resilient budget) and one Sat query (the smallest violated budget).
func boundaryQueries(t *testing.T, cfg *scadanet.Config, p Property, r int) (unsatQ, satQ Query) {
	t.Helper()
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 32; k++ {
		q := Query{Property: p, Combined: true, K: k, R: r}
		res, err := a.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Status {
		case sat.Sat:
			if k == 0 {
				t.Fatalf("%v violated at k=0: no unsat boundary query", p)
			}
			return Query{Property: p, Combined: true, K: k - 1, R: r}, q
		case sat.Unsat:
			continue
		default:
			t.Fatalf("boundary probe unsolved at k=%d", k)
		}
	}
	t.Fatalf("%v never violated within k<32", p)
	return
}

// TestCertifiedVerifyMatchesUncertified is the no-divergence contract:
// with certification on, every decided verdict (and witness vector)
// must be identical to the uncertified analyzer's, carry Certified with
// an empty CertifyError, and never enter quarantine. Unsat verdicts
// must come with a non-empty checked proof.
func TestCertifiedVerifyMatchesUncertified(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	var queries []Query
	for k := 0; k <= 3; k++ {
		queries = append(queries,
			Query{Property: Observability, Combined: true, K: k},
			Query{Property: SecuredObservability, Combined: true, K: k},
			Query{Property: BadDataDetectability, Combined: true, K: k, R: 1},
			Query{Property: Observability, K1: k, K2: 1},
			Query{Property: Observability, Combined: true, K: k, KL: 1},
		)
	}
	plain, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	// Certification must compose with the cache (forking the snapshot's
	// prelude checker per query) and preprocessing (proof-logging it).
	cert, err := NewAnalyzer(cfg, WithCertification(true), WithPresimplify(true),
		WithEncodingCache(NewEncodingCache()), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	for _, q := range queries {
		want, err := plain.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cert.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("%v: certified status %v, uncertified %v", q, got.Status, want.Status)
		}
		decided++
		if !got.Certified {
			t.Fatalf("%v: decided verdict not certified: %q", q, got.CertifyError)
		}
		if got.Quarantined || got.CertifyError != "" {
			t.Fatalf("%v: spurious divergence: quarantined=%v err=%q", q, got.Quarantined, got.CertifyError)
		}
		if got.Status == sat.Unsat && got.ProofClauses == 0 {
			t.Fatalf("%v: unsat certified with an empty proof", q)
		}
		if got.Status == sat.Sat {
			// Preprocessing may surface a different — equally minimal —
			// witness than the plain analyzer (the documented cache/
			// presimplify contract), so validate the certified vector
			// rather than demanding bit-equality.
			if got.Vector == nil {
				t.Fatalf("%v: sat without a vector", q)
			}
			f := Failures{Devices: map[scadanet.DeviceID]bool{}, Links: map[scadanet.LinkID]bool{}}
			for _, id := range got.Vector.Devices() {
				f.Devices[id] = true
			}
			for _, id := range got.Vector.Links {
				f.Links[id] = true
			}
			if !cert.violatedUnder(q, f) {
				t.Fatalf("%v: certified vector %v does not violate the property", q, got.Vector)
			}
		}
		if !strings.Contains(got.String(), "[certified]") {
			t.Fatalf("%v: String() misses the certification marker: %s", q, got)
		}
	}
	if n := reg.Counter("scadaver_certify_checked_total", map[string]string{"property": "observability"}); n == 0 {
		t.Fatal("scadaver_certify_checked_total not incremented")
	}
	for _, name := range []string{"scadaver_certify_failed_total", "scadaver_certify_divergence_total", "scadaver_certify_quarantine_total"} {
		for _, prop := range []string{"observability", "secured-observability", "bad-data-detectability"} {
			if n := reg.Counter(name, map[string]string{"property": prop}); n != 0 {
				t.Fatalf("%s{property=%s} = %v on a clean campaign", name, prop, n)
			}
		}
	}
	_ = decided
}

// TestCertifiedSweep covers the assumption-based proof path: a
// certified sweep shares one proof stream across all budgets, and each
// per-k Unsat is certified via RUP-ness of its negated budget
// assumption rather than the empty clause.
func TestCertifiedSweep(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	plainA, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plainSw, err := plainA.NewSweep(Observability, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	certA, err := NewAnalyzer(cfg, WithCertification(true), WithPresimplify(true))
	if err != nil {
		t.Fatal(err)
	}
	certSw, err := certA.NewSweep(Observability, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const maxK = 4
	want, err := plainSw.VerifyRange(maxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := certSw.VerifyRange(maxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= maxK; k++ {
		if got[k].Status != want[k].Status {
			t.Fatalf("k=%d: certified %v, uncertified %v", k, got[k].Status, want[k].Status)
		}
		if !got[k].Certified || got[k].Quarantined {
			t.Fatalf("k=%d: certified=%v quarantined=%v (%q)", k, got[k].Certified, got[k].Quarantined, got[k].CertifyError)
		}
	}
}

// TestCertifyIEEE57BoundaryUnsat is the acceptance criterion of the
// certification work: the IEEE-57 resiliency-boundary UNSAT — the
// verdict the whole analysis hinges on — must produce a proof that
// internal/sat/drat checks in-process, through preprocessing and
// everything else the production configuration enables.
func TestCertifyIEEE57BoundaryUnsat(t *testing.T) {
	if testing.Short() {
		t.Skip("IEEE-57 boundary solve in -short mode")
	}
	cfg := synthConfig(t, powergrid.IEEE57(), 41, 2)
	probe, err := NewAnalyzer(cfg, WithPresimplify(true), WithEncodingCache(NewEncodingCache()))
	if err != nil {
		t.Fatal(err)
	}
	kstar, err := probe.MaxResiliencyCombined(Observability, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(cfg, WithCertification(true), WithPresimplify(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify(Query{Property: Observability, Combined: true, K: kstar})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("boundary query at k*=%d: got %v, want unsat", kstar, res.Status)
	}
	if !res.Certified || res.Quarantined {
		t.Fatalf("boundary unsat not certified: certified=%v quarantined=%v err=%q",
			res.Certified, res.Quarantined, res.CertifyError)
	}
	if res.ProofClauses == 0 {
		t.Fatal("boundary unsat proof has no derived clauses")
	}
	t.Logf("ieee57 boundary k*=%d certified: %d proof clauses, audit %v", kstar, res.ProofClauses, res.Audit)
}

// TestChaosCertifyFlippedVerdict injects an inverted solve verdict —
// in both directions — and demands certification catches it: without
// certification the wrong answer is believed (proving the fault is
// real); with it the audit diverges, the query is quarantined, and the
// pristine re-solve restores the true verdict.
func TestChaosCertifyFlippedVerdict(t *testing.T) { testCertifyFlippedVerdict(t, false) }

// TestChaosCertifyCachedFlippedVerdict is TestChaosCertifyFlippedVerdict
// on the shared-snapshot path: the certified query forks the snapshot's
// prelude checker and checks only its own suffix, and a flip in either
// direction must still be caught there.
func TestChaosCertifyCachedFlippedVerdict(t *testing.T) { testCertifyFlippedVerdict(t, true) }

func testCertifyFlippedVerdict(t *testing.T, cached bool) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	unsatQ, satQ := boundaryQueries(t, cfg, Observability, 0)
	for _, tc := range []struct {
		name string
		q    Query
		want sat.Status
	}{
		{"unsat-reported-sat", unsatQ, sat.Unsat},
		{"sat-reported-unsat", satQ, sat.Sat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Uncertified leg: the flip escapes undetected.
			faults := faultinject.New(1).FlipVerdict(0)
			plain, err := NewAnalyzer(cfg, WithFaults(faults))
			if err != nil {
				t.Fatal(err)
			}
			res, err := plain.Verify(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == tc.want {
				t.Fatalf("verdict flip did not fire: still %v", res.Status)
			}
			if res.Certified {
				t.Fatal("uncertified analyzer claims certification")
			}
			if faults.Counts().VerdictFlips != 1 {
				t.Fatalf("VerdictFlips = %d, want 1", faults.Counts().VerdictFlips)
			}

			// Certified leg: the flip must be caught and quarantined.
			faults = faultinject.New(1).FlipVerdict(0)
			reg := obs.NewRegistry()
			opts, cache := certOptions(cached, WithFaults(faults), WithMetrics(reg))
			cert, err := NewAnalyzer(cfg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err = cert.Verify(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			requirePrelude(t, cache)
			if faults.Counts().VerdictFlips != 1 {
				t.Fatalf("VerdictFlips = %d, want 1", faults.Counts().VerdictFlips)
			}
			if res.Status != tc.want {
				t.Fatalf("quarantine did not restore the verdict: got %v, want %v", res.Status, tc.want)
			}
			if !res.Quarantined || !res.Certified {
				t.Fatalf("flip not quarantined+re-certified: quarantined=%v certified=%v err=%q",
					res.Quarantined, res.Certified, res.CertifyError)
			}
			if res.CertifyError == "" {
				t.Fatal("quarantined result records no divergence cause")
			}
			pl := map[string]string{"property": "observability"}
			if reg.Counter("scadaver_certify_quarantine_total", pl) != 1 ||
				reg.Counter("scadaver_certify_divergence_total", pl) != 1 ||
				reg.Counter("scadaver_certify_failed_total", pl) != 1 {
				t.Fatalf("quarantine counters wrong: q=%v d=%v f=%v",
					reg.Counter("scadaver_certify_quarantine_total", pl),
					reg.Counter("scadaver_certify_divergence_total", pl),
					reg.Counter("scadaver_certify_failed_total", pl))
			}
		})
	}
}

// TestChaosCertifyCorruptedModel injects a corrupted witness — one
// element dropped from an inclusion-minimal threat vector, so the
// reported vector no longer violates the property — and demands the
// sat-model audit catches it and the quarantine re-solve reports a
// genuine witness.
func TestChaosCertifyCorruptedModel(t *testing.T) { testCertifyCorruptedModel(t, false) }

// TestChaosCertifyCachedCorruptedModel is TestChaosCertifyCorruptedModel
// on the shared-snapshot path.
func TestChaosCertifyCachedCorruptedModel(t *testing.T) { testCertifyCorruptedModel(t, true) }

func testCertifyCorruptedModel(t *testing.T, cached bool) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	_, satQ := boundaryQueries(t, cfg, Observability, 0)

	faults := faultinject.New(1).CorruptModel(0)
	opts, cache := certOptions(cached, WithFaults(faults))
	cert, err := NewAnalyzer(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.Verify(satQ)
	if err != nil {
		t.Fatal(err)
	}
	requirePrelude(t, cache)
	if faults.Counts().ModelCorruptions != 1 {
		t.Fatalf("ModelCorruptions = %d, want 1", faults.Counts().ModelCorruptions)
	}
	if !res.Quarantined || !res.Certified || res.Status != sat.Sat {
		t.Fatalf("corrupted witness not quarantined+re-certified: quarantined=%v certified=%v status=%v err=%q",
			res.Quarantined, res.Certified, res.Status, res.CertifyError)
	}
	// The final vector must be a genuine witness again.
	f := Failures{Devices: map[scadanet.DeviceID]bool{}, Links: map[scadanet.LinkID]bool{}}
	for _, id := range res.Vector.Devices() {
		f.Devices[id] = true
	}
	for _, id := range res.Vector.Links {
		f.Links[id] = true
	}
	if !cert.violatedUnder(satQ, f) {
		t.Fatalf("quarantined vector %v does not violate %v", res.Vector, satQ)
	}
}

// TestAuditSatRejectsBadModel drives the model half of the Sat audit
// directly, on the Sat query of testCertifyCorruptedModel, on a private
// cache and on a shared presimplified one. The solver's model passes unchanged; a model
// that flips a pairing term against its configured value, flips a link
// the query fixes up (KL = 0), or lacks a device's availability term
// must be refused with a cause naming that variable.
func TestAuditSatRejectsBadModel(t *testing.T) {
	for _, cached := range []bool{false, true} {
		cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
		_, satQ := boundaryQueries(t, cfg, Observability, 0)
		opts, _ := certOptions(cached)
		a, err := NewAnalyzer(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		enc, res, err := a.SatEncoder(satQ)
		if err != nil {
			t.Fatal(err)
		}
		if enc == nil {
			t.Fatalf("cached=%v: %v is not sat", cached, satQ)
		}
		model := enc.Model()
		if err := a.auditSat(satQ, model, res); err != nil {
			t.Fatalf("cached=%v: solver model refused: %v", cached, err)
		}

		var pair, link string
		for _, l := range cfg.Net.Links() {
			if pair == "" {
				pair = fmt.Sprintf("Pair_%d", l.ID)
			}
			if link == "" && !l.Down {
				link = fmt.Sprintf("Link_%d", l.ID)
			}
		}
		node := fmt.Sprintf("Node_%d", a.fieldIEDs[0].ID)
		edits := []struct {
			name string
			edit func(logic.Model)
		}{
			{pair, func(m logic.Model) { m[pair] = !m[pair] }},
			{link, func(m logic.Model) { m[link] = !m[link] }},
			{node, func(m logic.Model) { delete(m, node) }},
		}
		for _, e := range edits {
			m := make(logic.Model, len(model))
			for k, v := range model {
				m[k] = v
			}
			if _, ok := m[e.name]; !ok {
				t.Fatalf("cached=%v: %s not in the solver model", cached, e.name)
			}
			e.edit(m)
			err := a.auditSat(satQ, m, res)
			if err == nil {
				t.Fatalf("cached=%v: model with %s edited passed the audit", cached, e.name)
			}
			if !regexp.MustCompile(`\b` + e.name + `\b`).MatchString(err.Error()) {
				t.Fatalf("cached=%v: edit of %s refused with a cause not naming it: %v", cached, e.name, err)
			}
		}
	}
}

// TestChaosCertifyDroppedProofStep truncates the proof stream of the
// certified solve on the analyzer's private cache (every derived
// addition of the query's suffix from the first one on is lost) and
// demands the unsat verdict is refused, quarantined, and re-proved from
// a pristine solve whose stream is intact.
func TestChaosCertifyDroppedProofStep(t *testing.T) { testCertifyDroppedProofStep(t, false) }

// TestChaosCertifyCachedDroppedProofStep is TestChaosCertifyDroppedProofStep
// on the shared-snapshot path, where the fault can only truncate the
// query's own suffix: the prelude was checked when the snapshot was
// built. The IEEE-14 observability boundary query needs about 20
// conflicts on the presimplified snapshot, so its suffix derives clauses
// for the fault to drop.
func TestChaosCertifyCachedDroppedProofStep(t *testing.T) { testCertifyDroppedProofStep(t, true) }

func testCertifyDroppedProofStep(t *testing.T, cached bool) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	unsatQ, _ := boundaryQueries(t, cfg, Observability, 0)

	faults := faultinject.New(1).DropProofStep(0)
	opts, cache := certOptions(cached, WithFaults(faults))
	cert, err := NewAnalyzer(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.Verify(unsatQ)
	if err != nil {
		t.Fatal(err)
	}
	requirePrelude(t, cache)
	if faults.Counts().DroppedProofSteps == 0 {
		t.Fatal("proof-truncation fault never fired")
	}
	if res.Status != sat.Unsat {
		t.Fatalf("got %v, want unsat", res.Status)
	}
	if !res.Quarantined || !res.Certified {
		t.Fatalf("truncated proof not quarantined+re-certified: quarantined=%v certified=%v err=%q",
			res.Quarantined, res.Certified, res.CertifyError)
	}
	if res.ProofClauses == 0 {
		t.Fatal("quarantine re-proof has no derived clauses")
	}
}

// certOptions returns a certified analyzer's options for one chaos leg:
// the analyzer's private cache, or — cached — a shared presimplified
// cache (WithEncodingCache + WithPresimplify). The cache is returned so
// the test can confirm the query really ran on a shared prelude.
func certOptions(cached bool, extra ...Option) ([]Option, *EncodingCache) {
	opts := append([]Option{WithCertification(true)}, extra...)
	if !cached {
		return opts, nil
	}
	c := NewEncodingCache()
	return append(opts, WithEncodingCache(c), WithPresimplify(true)), c
}

// requirePrelude fails the test unless c holds snapshots and every one
// kept its prelude checker (a nil cache — the analyzer's private one —
// passes).
func requirePrelude(t *testing.T, c *EncodingCache) {
	t.Helper()
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 {
		t.Fatal("no snapshot was built")
	}
	for key, e := range c.entries {
		if e.prelude == nil {
			t.Fatalf("snapshot %s shares no prelude", key)
		}
	}
}

// TestChaosCertifyCachedPreludeRefused covers the sharing guard: a
// snapshot whose build checker rejected a step, or accepted a RAT
// addition, is not shared for certification, and its queries still get
// the correct certified verdict from a private copy of the snapshot,
// proof-logged from clause one — not a quarantine. The taints are applied to a copy of a real IEEE-14
// prelude, on variables past the snapshot's own.
func TestChaosCertifyCachedPreludeRefused(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	unsatQ, satQ := boundaryQueries(t, cfg, Observability, 0)
	for _, tc := range []struct {
		name  string
		taint func(ck *drat.Checker, x, y sat.Var)
	}{
		{"rejected-step", func(ck *drat.Checker, x, y sat.Var) {
			// (¬x) is neither RUP nor RAT over (x y), (x ¬y).
			ck.Step(sat.ProofInput, []sat.Lit{sat.PosLit(x), sat.PosLit(y)})
			ck.Step(sat.ProofInput, []sat.Lit{sat.PosLit(x), sat.NegLit(y)})
			ck.Step(sat.ProofAdd, []sat.Lit{sat.NegLit(x)})
		}},
		{"rat-step", func(ck *drat.Checker, x, _ sat.Var) {
			// (x) is RAT but not RUP: no clause mentions x.
			ck.Step(sat.ProofAdd, []sat.Lit{sat.PosLit(x)})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewEncodingCache()
			reg := obs.NewRegistry()
			a, err := NewAnalyzer(cfg, WithCertification(true), WithPresimplify(true),
				WithEncodingCache(cache), WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Verify(unsatQ); err != nil {
				t.Fatal(err)
			}
			requirePrelude(t, cache)
			for _, e := range cache.entries {
				ck := e.prelude.Clone()
				nv := sat.Var(e.enc.Solver().NumVars())
				tc.taint(ck, nv, nv+1)
				if ck.Err() == nil && ck.RATs() == 0 {
					t.Fatal("taint left the checker clean")
				}
				if e.prelude = sharedPrelude(ck); e.prelude != nil {
					t.Fatal("tainted prelude shared")
				}
			}
			for _, want := range []struct {
				q      Query
				status sat.Status
			}{{unsatQ, sat.Unsat}, {satQ, sat.Sat}} {
				res, err := a.Verify(want.q)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != want.status || !res.Certified || res.Quarantined {
					t.Fatalf("%v: status %v certified=%v quarantined=%v (%q), want certified %v",
						want.q, res.Status, res.Certified, res.Quarantined, res.CertifyError, want.status)
				}
				if res.Status == sat.Unsat && res.ProofClauses == 0 {
					t.Fatalf("%v: unsat certified with an empty proof", want.q)
				}
			}
			if n := reg.Counter("scadaver_certify_quarantine_total", map[string]string{"property": "observability"}); n != 0 {
				t.Fatalf("refused prelude quarantined %v queries", n)
			}
		})
	}
}

// TestCertifiedEnumerationSharesUncertifiedSnapshot checks that threat
// enumeration, which is not certified, takes the uncertified snapshot on
// a certifying analyzer: it builds no proof-logged snapshot, and an
// uncertified analyzer on the same cache reuses its entry.
func TestCertifiedEnumerationSharesUncertifiedSnapshot(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	_, satQ := boundaryQueries(t, cfg, Observability, 0)
	cache := NewEncodingCache()
	certified, err := NewAnalyzer(cfg, WithCertification(true), WithPresimplify(true), WithEncodingCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewAnalyzer(cfg, WithPresimplify(true), WithEncodingCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	want, err := certified.EnumerateThreats(satQ, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plain.EnumerateThreats(satQ, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("enumerated %d vectors certified, %d uncertified", len(want), len(got))
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache holds %d snapshots, want the one uncertified snapshot", n)
	}
	for key, e := range cache.entries {
		if e.prelude != nil || strings.HasSuffix(key, "|cert") {
			t.Fatalf("enumeration built certified snapshot %s", key)
		}
	}
}
