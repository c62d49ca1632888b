package core

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"weak"

	"scadaver/internal/obs"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
)

// cacheModes enumerates the four optimization configurations whose
// externally visible behaviour must coincide with the cold reference
// (ColdVerify, ColdEnumerate): a private or a shared cache, with and
// without preprocessing.
func cacheModes() []struct {
	name string
	opts func() []Option
} {
	return []struct {
		name string
		opts func() []Option
	}{
		{"private", func() []Option { return nil }},
		{"cache", func() []Option { return []Option{WithEncodingCache(NewEncodingCache())} }},
		{"presimplify", func() []Option { return []Option{WithPresimplify(true)} }},
		{"cache+presimplify", func() []Option {
			return []Option{WithEncodingCache(NewEncodingCache()), WithPresimplify(true)}
		}},
	}
}

// sortedVectors canonicalizes an enumerated threat space for set
// comparison (enumeration order is not part of the contract; the set
// is).
func sortedVectors(t *testing.T, vs []ThreatVector) string {
	t.Helper()
	keys := make([]string, len(vs))
	for i, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	b, err := json.Marshal(keys)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCacheAndPresimplifyPreserveVerdicts is the end-to-end equivalence
// gate for the optimization pipeline: on synthetic IEEE-14 and IEEE-30
// systems, every core property verdict must equal the cold reference's
// with a private or shared encoding cache and preprocessing on or off,
// across combined, split, link-budget and bad-data queries.
func TestCacheAndPresimplifyPreserveVerdicts(t *testing.T) {
	systems := []struct {
		name string
		bus  *powergrid.BusSystem
		seed int64
	}{
		{"ieee14", powergrid.IEEE14(), 7},
		{"ieee30", powergrid.IEEE30(), 11},
	}
	var queries []Query
	for k := 0; k <= 2; k++ {
		queries = append(queries,
			Query{Property: Observability, Combined: true, K: k},
			Query{Property: SecuredObservability, Combined: true, K: k},
			Query{Property: BadDataDetectability, Combined: true, K: k, R: 1},
			Query{Property: Observability, K1: k, K2: 1},
			Query{Property: Observability, Combined: true, K: k, KL: 1},
		)
	}
	for _, sys := range systems {
		cfg := synthConfig(t, sys.bus, sys.seed, 2)
		ref, err := NewAnalyzer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]sat.Status, len(queries))
		for i, q := range queries {
			want[i] = ref.ColdVerify(q).Status
		}
		for _, mode := range cacheModes() {
			a, err := NewAnalyzer(cfg, mode.opts()...)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				res, err := a.Verify(q)
				if err != nil {
					t.Fatalf("%s/%s %v: %v", sys.name, mode.name, q, err)
				}
				if res.Status != want[i] {
					t.Errorf("%s/%s %v: status %v, cold %v",
						sys.name, mode.name, q, res.Status, want[i])
				}
			}
		}
	}
}

// TestCacheAndPresimplifyPreserveEnumeration: the full minimal
// threat-vector set (an order-independent antichain) must equal the
// cold reference's in every optimization mode, byte for byte after
// canonical sorting.
func TestCacheAndPresimplifyPreserveEnumeration(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 7, 2)
	queries := []Query{
		{Property: Observability, Combined: true, K: 2},
		{Property: SecuredObservability, K1: 1, K2: 1},
		{Property: BadDataDetectability, Combined: true, K: 1, R: 1},
	}
	ref, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want := sortedVectors(t, ref.ColdEnumerate(q))
		for _, mode := range cacheModes() {
			a, err := NewAnalyzer(cfg, mode.opts()...)
			if err != nil {
				t.Fatal(err)
			}
			vs, err := a.EnumerateThreats(q, 0)
			if err != nil {
				t.Fatalf("%s %v: %v", mode.name, q, err)
			}
			if got := sortedVectors(t, vs); got != want {
				t.Errorf("%s %v: threat set diverged\n got %s\nwant %s", mode.name, q, got, want)
			}
		}
	}
}

// TestCacheSweepAgreesWithVerify: resiliency boundaries computed by the
// galloping search must not move under caching/preprocessing: each
// equals the largest budget the cold reference proves resilient.
func TestCacheSweepAgreesWithVerify(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 19, 2)
	ref, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := -1
	for ref.ColdVerify(Query{Property: SecuredObservability, Combined: true, K: want + 1}).Status == sat.Unsat {
		want++
	}
	for _, mode := range cacheModes() {
		a, err := NewAnalyzer(cfg, mode.opts()...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.MaxResiliencyCombined(SecuredObservability, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: max resiliency %d, cold %d", mode.name, got, want)
		}
	}
}

// TestEncodingCacheSingleflight: analyzers sharing one cache build each
// distinct structure exactly once, even when they race, and distinct
// (property, r, kl) structures get distinct entries.
func TestEncodingCacheSingleflight(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 7, 2)
	cache := NewEncodingCache()
	q := Query{Property: Observability, Combined: true, K: 1}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := NewAnalyzer(cfg, WithEncodingCache(cache), WithPresimplify(true))
			if err != nil {
				errs <- err
				return
			}
			if _, err := a.Verify(q); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 1 {
		t.Fatalf("cache entries after identical concurrent queries: %d, want 1", got)
	}

	a, err := NewAnalyzer(cfg, WithEncodingCache(cache), WithPresimplify(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{Property: SecuredObservability, Combined: true, K: 1},
		{Property: Observability, Combined: true, K: 1, KL: 1},
		{Property: BadDataDetectability, Combined: true, K: 1, R: 1},
	} {
		if _, err := a.Verify(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Len(); got != 4 {
		t.Fatalf("cache entries after three new structures: %d, want 4", got)
	}
	// Same structure, different budget: no new entry.
	if _, err := a.Verify(Query{Property: Observability, K1: 2, K2: 0}); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 4 {
		t.Fatalf("cache entries after budget-only variation: %d, want 4", got)
	}
}

// TestSnapshotKeyIgnoresUnreadR: only bad-data detectability's
// violation reads R, so observability queries with different R share
// one snapshot, while bad-data detectability keeps one per R.
func TestSnapshotKeyIgnoresUnreadR(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 7, 2)
	for _, tc := range []struct {
		property Property
		rs       []int
		want     int
	}{
		{Observability, []int{0, 3}, 1},
		{BadDataDetectability, []int{1, 2}, 2},
	} {
		cache := NewEncodingCache()
		a, err := NewAnalyzer(cfg, WithEncodingCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tc.rs {
			if _, err := a.Verify(Query{Property: tc.property, Combined: true, K: 1, R: r}); err != nil {
				t.Fatal(err)
			}
		}
		if got := cache.Len(); got != tc.want {
			t.Errorf("%v with R %v: %d cache entries, want %d", tc.property, tc.rs, got, tc.want)
		}
	}
}

// TestCacheRunnerEquivalence: a parallel campaign over a shared cache
// reproduces, index by index, the cold reference's statuses on
// the repo's standard campaign query mix.
func TestCacheRunnerEquivalence(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 41, 2)
	queries := campaignQueries(2)

	serial := make([]*Result, len(queries))
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		serial[i] = a.ColdVerify(q)
	}

	cache := NewEncodingCache()
	parallel, err := NewRunner(8, WithEncodingCache(cache), WithPresimplify(true)).
		VerifyAll(context.Background(), cfg, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if parallel[i].Status != serial[i].Status {
			t.Errorf("query %v: parallel cached %v, cold %v",
				queries[i], parallel[i].Status, serial[i].Status)
		}
	}
	if cache.Len() == 0 {
		t.Fatal("campaign did not populate the shared cache")
	}
}

// TestCachePreprocessAccounting: the query that builds a snapshot
// reports the preprocessing phase and counters; cache hits do not
// re-pay them.
func TestCachePreprocessAccounting(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 7, 2)
	a, err := NewAnalyzer(cfg, WithEncodingCache(NewEncodingCache()), WithPresimplify(true))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Property: SecuredObservability, Combined: true, K: 1}
	first, err := a.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Phases.Preprocess <= 0 {
		t.Errorf("builder query Preprocess = %v, want > 0", first.Phases.Preprocess)
	}
	if first.Stats.SimplifyTime <= 0 || first.Stats.ElimVars == 0 {
		t.Errorf("builder query preprocessing stats missing: %+v", first.Stats)
	}
	second, err := a.Verify(Query{Property: SecuredObservability, Combined: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Phases.Preprocess != 0 {
		t.Errorf("cache-hit query Preprocess = %v, want 0", second.Phases.Preprocess)
	}
	if second.Stats.SimplifyTime != 0 || second.Stats.ElimVars != 0 {
		t.Errorf("cache-hit query repeated preprocessing stats: %+v", second.Stats)
	}
}

// TestPreprocessMetricsExported: a preprocessing verification exports
// the sat_elim_vars counter, the sat_simplify_seconds histogram, and a
// preprocess series in the phase histogram — and a plain verification
// exports none of them, keeping non-preprocessing dashboards unchanged.
func TestPreprocessMetricsExported(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 7, 2)
	reg := obs.NewRegistry()
	// Cache + presimplify: the builder query carries the snapshot's
	// preprocessing counters, so variable elimination is observable even
	// when the per-query instance would be fully decided by propagation.
	a, err := NewAnalyzer(cfg, WithMetrics(reg), WithPresimplify(true),
		WithEncodingCache(NewEncodingCache()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Verify(Query{Property: SecuredObservability, Combined: true, K: 1}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var elim float64
	foundElim := false
	for _, c := range snap.Counters {
		if c.Name == "scadaver_sat_elim_vars_total" {
			foundElim, elim = true, c.Value
		}
	}
	if !foundElim || elim <= 0 {
		t.Errorf("scadaver_sat_elim_vars_total missing or zero (found=%v value=%v)", foundElim, elim)
	}
	foundSimp, foundPhase := false, false
	for _, h := range snap.Histograms {
		if h.Name == "scadaver_sat_simplify_seconds" {
			foundSimp = true
		}
		if h.Name == "scadaver_phase_seconds" && h.Labels["phase"] == "preprocess" {
			foundPhase = true
		}
	}
	if !foundSimp {
		t.Error("scadaver_sat_simplify_seconds histogram missing")
	}
	if !foundPhase {
		t.Error(`scadaver_phase_seconds{phase="preprocess"} series missing`)
	}

	plain := obs.NewRegistry()
	b, err := NewAnalyzer(cfg, WithMetrics(plain))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Verify(Query{Property: SecuredObservability, Combined: true, K: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range plain.Snapshot().Counters {
		if c.Name == "scadaver_sat_elim_vars_total" {
			t.Error("plain verification exported preprocessing counters")
		}
	}
	for _, h := range plain.Snapshot().Histograms {
		if h.Name == "scadaver_sat_simplify_seconds" ||
			(h.Name == "scadaver_phase_seconds" && h.Labels["phase"] == "preprocess") {
			t.Errorf("plain verification exported %s{%v}", h.Name, h.Labels)
		}
	}
}

// TestFingerprintMemoFollowsVersions: the per-request analyzers the
// service builds over one configuration version hash it once (the
// fingerprint is memoized on the configuration); every mutation gives
// the mutated version its own, new fingerprint; an edit through the
// network's methods is seen; and the cache keeps no superseded version
// alive, so no memo outlives its version.
func TestFingerprintMemoFollowsVersions(t *testing.T) {
	cache := NewEncodingCache(CacheWithDelta())
	opts := []Option{WithEncodingCache(cache), WithPresimplify(true)}
	q := Query{Property: Observability, Combined: true, K: 1}
	analyzer := func(c *scadanet.Config) *Analyzer {
		t.Helper()
		a, err := NewAnalyzer(c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	verify := func(c *scadanet.Config) {
		t.Helper()
		if _, err := analyzer(c).Verify(q); err != nil {
			t.Fatal(err)
		}
	}
	// memoized checks that c's fingerprint is memoized on c and is the
	// one a fresh hash gives, and returns it.
	memoized := func(c *scadanet.Config) string {
		t.Helper()
		a := analyzer(c)
		want, err := CampaignFingerprint(c, "encoding", a.policy)
		if err != nil {
			t.Fatal(err)
		}
		key, err := a.fingerprintKey()
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Memo(key, func() (string, error) { return "", errors.New("not memoized") })
		if err != nil || got != want {
			t.Fatalf("memo holds %q (%v), want %s", got, err, want)
		}
		return got
	}
	cur := synthConfig(t, powergrid.IEEE14(), 7, 2)
	var victim scadanet.DeviceID
	for _, d := range cur.Net.DevicesOfKind(scadanet.IED) {
		if !d.Down {
			victim = d.ID
			break
		}
	}
	patch := func(i int) *scadanet.Config {
		t.Helper()
		op := scadanet.OpDeviceDown
		if i%2 == 1 {
			op = scadanet.OpDeviceUp
		}
		next, _, err := cur.Apply(scadanet.Delta{Ops: []scadanet.Op{{Kind: op, Device: victim}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cache.Mutate(cur, next, opts...); err != nil {
			t.Fatal(err)
		}
		return next
	}

	verify(cur)
	verify(cur)
	prev := memoized(cur)
	var gone []weak.Pointer[scadanet.Config]
	for i := 0; i < 6; i++ {
		gone = append(gone, weak.Make(cur))
		cur = patch(i)
		verify(cur)
		verify(cur)
		fp := memoized(cur)
		if fp == prev {
			t.Fatalf("mutation %d kept fingerprint %s", i+1, fp)
		}
		prev = fp
	}
	runtime.GC()
	for i, w := range gone {
		if w.Value() != nil {
			t.Errorf("version %d is still alive after %d mutations", i+1, len(gone))
		}
	}

	before := memoized(cur)
	if !cur.Net.RemoveLink(cur.Net.Links()[0].ID) {
		t.Fatal("no link to remove")
	}
	verify(cur)
	if after := memoized(cur); after == before {
		t.Errorf("removing a link in place kept fingerprint %s", after)
	}
}

// TestBudgetPastDeviceCountReservesNoRoom: a failure budget at or past
// the number of field devices is the constant true, so its clone
// reserves no room, however large K is (a client may send any K), and
// the query is decided as at K equal to the device count.
func TestBudgetPastDeviceCountReservesNoRoom(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE57(), 57007, 2)
	a, err := NewAnalyzer(cfg, WithPresimplify(true))
	if err != nil {
		t.Fatal(err)
	}
	devices := len(a.fieldIEDs) + len(a.fieldRTUs)
	cloneBytes := func(q Query) uint64 {
		t.Helper()
		budget := a.budgetFormula(q)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, _, err := a.snapshot(q, budget, false, nil, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	obs := Query{Property: Observability, Combined: true}
	cloneBytes(obs) // builds the snapshot
	small := obs
	small.K = 2
	base, withRoom := cloneBytes(obs), cloneBytes(small)
	if withRoom <= base {
		t.Fatalf("a K=2 clone took %d bytes, a K=0 clone %d: the room does not show", withRoom, base)
	}
	const maxInt = int(^uint(0) >> 1)
	for _, q := range []Query{
		{Property: Observability, Combined: true, K: maxInt},
		{Property: Observability, K1: maxInt, K2: 1 << 40},
		{Property: SecuredObservability, Combined: true, K: devices},
	} {
		none := q
		none.K, none.K1, none.K2 = 0, 0, 0
		cloneBytes(none) // builds the snapshot
		if got, base := cloneBytes(q), cloneBytes(none); got > base+base/50 {
			t.Errorf("%v: clone took %d bytes, at K=0 %d", q, got, base)
		}
		res, err := a.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		at := q
		at.K, at.K1, at.K2 = min(q.K, devices), min(q.K1, devices), min(q.K2, devices)
		want, err := a.Verify(at)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != want.Status {
			t.Errorf("%v: %v, but %v at K=%d", q, res.Status, want.Status, devices)
		}
	}
}

// TestPolicyKeysTheEncodingCache: two analyzers that differ only in
// their security policy, on one shared encoding cache, must not share a
// secured-observability snapshot. Each verdict must match a fresh
// analyzer's under its own policy, whichever policy builds first.
func TestPolicyKeysTheEncodingCache(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 7, 2)
	q := Query{Property: SecuredObservability, Combined: true, K: 0}
	policies := map[string]*secpolicy.Policy{
		"default": secpolicy.Default(),
		"none":    secpolicy.NewPolicy(nil, nil), // grants nothing
	}
	verify := func(p *secpolicy.Policy, opts ...Option) sat.Status {
		t.Helper()
		a, err := NewAnalyzer(cfg, append(opts, WithPolicy(p))...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := a.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		return r.Status
	}
	fresh := map[string]sat.Status{}
	for name, p := range policies {
		fresh[name] = verify(p)
	}
	if fresh["default"] == fresh["none"] {
		t.Fatalf("both policies give %v: the configuration does not tell them apart", fresh["default"])
	}
	for _, order := range [][2]string{{"default", "none"}, {"none", "default"}} {
		cache := NewEncodingCache()
		for _, name := range order {
			if got := verify(policies[name], WithEncodingCache(cache)); got != fresh[name] {
				t.Errorf("%s after %s on a shared cache: %v, fresh analyzer %v", name, order[0], got, fresh[name])
			}
		}
	}
}
