package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"scadaver/internal/logic"
	"scadaver/internal/obs"
	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
	"scadaver/internal/scadanet"
)

// EncodingVersion identifies the CNF encoding scheme — the clause shapes
// emitted by encodeStructure/violationFormula and the preprocessing
// applied on top of them (sat.Solver.Simplify). It participates in every
// encoding-cache key and in the verification service's enumeration
// checkpoint fingerprint, so bump it whenever the emitted clauses change
// meaning: stale snapshots and resumed enumerations are then rejected
// instead of silently mixed with the new encoding.
const EncodingVersion = 4

// WithPresimplify enables CNF preprocessing before search: after a
// query's constraints are encoded, the solver runs unit propagation to
// fixpoint, failed-literal probing, subsumption/self-subsuming
// resolution, and bounded variable elimination over the anonymous
// Tseitin auxiliaries (named variables are frozen — see
// logic.Encoder.Simplify). Verdicts are unchanged; the search starts on
// a smaller, stronger formula. Combined with WithEncodingCache the cost
// is paid once per structure and amortized across every query that
// shares it.
func WithPresimplify(on bool) Option {
	return func(a *Analyzer) { a.presimplify = on }
}

// WithEncodingCache shares a content-addressed cache of structural
// encodings across analyzers; an analyzer built without it gets a
// private cache. Every query — Verify, Sweep and threat enumeration —
// clones a ready (and, under WithPresimplify, pre-simplified) solver
// snapshot from the cache and encodes only its failure budget on the
// clone. The cache is safe for concurrent use — Runner workers and
// service handlers share one instance — and concurrent requests for
// the same snapshot build it exactly once (per-entry singleflight).
//
// Entries are found by the configuration's fingerprint, which is
// memoized on the configuration (scadanet.Config.Memo). Changes made
// through the network's methods or by replacing a top-level field are
// seen; a direct edit of a device's or link's fields (Down, Profiles)
// is not, so make it on a Clone and build the analyzer over the clone.
func WithEncodingCache(c *EncodingCache) Option {
	return func(a *Analyzer) { a.cache = c }
}

// EncodingCache holds immutable solver snapshots of structural
// encodings, keyed by content: a fingerprint of the configuration,
// security policy, the query's structure-relevant fields
// (property, corrupted-measurement budget, link budget), whether
// preprocessing ran, and EncodingVersion. Entries are built once under
// a per-entry sync.Once and never mutated afterwards; consumers receive
// private clones (logic.Encoder.Clone), so any number of goroutines may
// hit one entry concurrently.
type EncodingCache struct {
	mu      sync.Mutex
	entries map[string]*encodingEntry
	tick    uint64 // LRU clock, under mu

	limit int           // max entries (0 = unbounded)
	reg   *obs.Registry // eviction/delta counters (nil = none)
	delta bool          // delta-aware mode (guarded groups + Mutate)
}

// CacheOption configures an EncodingCache at construction.
type CacheOption func(*EncodingCache)

// CacheWithLimit bounds the cache to n entries, evicting the least
// recently used snapshot when a new structure would exceed the bound
// (n <= 0 keeps the cache unbounded). Queries holding a clone of an
// evicted snapshot are unaffected; the next request for that structure
// rebuilds it. Evictions increment
// scadaver_encoding_cache_evictions_total when a registry is attached.
func CacheWithLimit(n int) CacheOption {
	return func(c *EncodingCache) { c.limit = n }
}

// CacheWithMetrics attaches a metrics registry for the cache-level
// counter families: scadaver_encoding_cache_evictions_total, and in
// delta mode scadaver_delta_reuse_total,
// scadaver_delta_reencoded_total and scadaver_carried_learnts_total.
func CacheWithMetrics(reg *obs.Registry) CacheOption {
	return func(c *EncodingCache) { c.reg = reg }
}

// CacheWithDelta switches the cache to delta-aware snapshots (see
// delta.go): structural encodings are built as activation-literal
// guarded groups, and Mutate evolves them in place under configuration
// deltas instead of discarding them. Plain caches (the default) keep
// the original monolithic snapshot layout byte-for-byte.
func CacheWithDelta() CacheOption {
	return func(c *EncodingCache) { c.delta = true }
}

// encodingEntry is one built snapshot: the base encoder (structure +
// negated property asserted, optionally simplified; the failure budget
// is NOT included), plus the preprocessing counters and duration its
// construction accrued, reported once by the query that built it. A
// certified snapshot (see snapshot) also keeps its prelude:
// the proof checker that watched the snapshot being built, from the
// encoder's first clause through Simplify. It stays nil when the checker
// rejected a step or accepted a RAT addition, and the snapshot's queries
// then encode a private copy proof-logged from clause one. An
// uncertified entry of a delta-aware cache also carries its evolvable
// deltaState (atomically published; cleared when a mutation moves the
// lineage to the successor fingerprint's entry) and the harvest
// variable bound of the sealed snapshot the entry serves.
type encodingEntry struct {
	once    sync.Once
	enc     *logic.Encoder
	pre     sat.Stats
	prelude *drat.Checker

	delta      atomic.Pointer[deltaState]
	harvestMax int

	lastUsed uint64 // LRU tick, under the cache mutex
}

// claimDelta hands the entry's pending mutation counters to the first
// query consuming an evolved snapshot (false for plain entries, or when
// a prior query already claimed them).
func (e *encodingEntry) claimDelta() (MutationStats, bool) {
	if st := e.delta.Load(); st != nil {
		return st.claim()
	}
	return MutationStats{}, false
}

// NewEncodingCache returns an empty cache, ready to be shared across
// analyzers and goroutines.
func NewEncodingCache(opts ...CacheOption) *EncodingCache {
	c := &EncodingCache{entries: make(map[string]*encodingEntry)}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Len reports how many distinct structural encodings the cache holds.
func (c *EncodingCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *EncodingCache) entry(key string) *encodingEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &encodingEntry{}
		c.entries[key] = e
		c.evictLocked(key)
	}
	c.tick++
	e.lastUsed = c.tick
	return e
}

// evictLocked enforces the entry cap after an insert, dropping the
// least recently used entry other than the one just added. Callers
// hold c.mu.
func (c *EncodingCache) evictLocked(justAdded string) {
	for c.limit > 0 && len(c.entries) > c.limit {
		victim := ""
		var oldest uint64
		for key, e := range c.entries {
			if key == justAdded {
				continue
			}
			if victim == "" || e.lastUsed < oldest {
				victim, oldest = key, e.lastUsed
			}
		}
		if victim == "" {
			return
		}
		delete(c.entries, victim)
		c.reg.Inc("scadaver_encoding_cache_evictions_total", nil)
	}
}

// Mutate evolves the cache under a configuration delta: every delta-
// aware entry keyed to the old configuration's fingerprint is diffed
// against the mutated configuration (content-signature driven — see
// deltaGroupSpecs), its dirty groups retired and re-encoded, its learnt
// stash pruned and re-imported, and the evolved state republished under
// the new configuration's fingerprint so subsequent queries on the
// mutated configuration hit warm snapshots. The superseded entries keep
// serving their (still valid) old-configuration snapshots, but lose
// evolvability: a lineage moves forward, never forks.
//
// aopts must carry the same analyzer options the querying analyzers use
// (policy, presimplify, faults) — they shape both the
// fingerprint and the group inventory. On a no-op delta (identical
// canonical configurations, e.g. a key rotation to the same bits) the
// entries are reused verbatim and counted as full reuse.
func (c *EncodingCache) Mutate(old, next *scadanet.Config, aopts ...Option) (MutationStats, error) {
	var total MutationStats
	if c == nil || !c.delta {
		return total, nil
	}
	oldA, err := NewAnalyzer(old, aopts...)
	if err != nil {
		return total, fmt.Errorf("core: mutate (old config): %w", err)
	}
	nextA, err := NewAnalyzer(next, aopts...)
	if err != nil {
		return total, fmt.Errorf("core: mutate (mutated config): %w", err)
	}
	oldFP, err := oldA.encodingFingerprint()
	if err != nil {
		return total, err
	}
	newFP, err := nextA.encodingFingerprint()
	if err != nil {
		return total, err
	}

	type candidate struct {
		key string
		e   *encodingEntry
		st  *deltaState
	}
	prefix := oldFP + "|"
	c.mu.Lock()
	var cands []candidate
	for key, e := range c.entries {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		if st := e.delta.Load(); st != nil {
			cands = append(cands, candidate{key, e, st})
		}
	}
	c.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].key < cands[j].key })

	if oldFP == newFP {
		// Canonically identical configurations: every snapshot is exact
		// as-is, which is the strongest possible reuse.
		for _, cd := range cands {
			n := uint64(cd.st.activeGroups())
			cd.st.mu.Lock()
			cd.st.pending.DeltaReuse += n
			cd.st.hasPending = true
			cd.st.mu.Unlock()
			total.DeltaReuse += n
			total.Entries++
		}
		c.recordMutation(total)
		return total, nil
	}

	for _, cd := range cands {
		ms := cd.st.evolve(nextA)
		total.add(ms)
		total.Entries++

		ne := &encodingEntry{}
		ne.once.Do(func() {}) // pre-built: the evolved seal is the snapshot
		cd.st.mu.Lock()
		ne.enc = cd.st.sealed
		ne.harvestMax = cd.st.sealedVars
		cd.st.mu.Unlock()
		ne.delta.Store(cd.st)

		newKey := newFP + "|" + strings.TrimPrefix(cd.key, prefix)
		c.mu.Lock()
		cd.e.delta.Store(nil) // the old entry degrades to a static snapshot
		c.tick++
		ne.lastUsed = c.tick
		c.entries[newKey] = ne
		c.evictLocked(newKey)
		c.mu.Unlock()
	}
	c.recordMutation(total)
	return total, nil
}

// recordMutation folds one Mutate's counters into the cache registry.
func (c *EncodingCache) recordMutation(ms MutationStats) {
	if c.reg == nil || ms.Entries == 0 {
		return
	}
	c.reg.Add("scadaver_delta_reuse_total", nil, float64(ms.DeltaReuse))
	c.reg.Add("scadaver_delta_reencoded_total", nil, float64(ms.DeltaReencoded))
	c.reg.Add("scadaver_carried_learnts_total", nil, float64(ms.CarriedLearnts))
}

// snapshotKey is the part of a query a snapshot depends on: the fields
// encodeStructure and violationFormula consult.
type snapshotKey struct {
	property Property
	r, kl    int
}

// snapshotKeyOf returns q's snapshot key. Only bad-data detectability's
// violation reads R, so the other properties key with R = 0 and share
// one snapshot across every R.
func snapshotKeyOf(q Query) snapshotKey {
	k := snapshotKey{q.Property, q.R, q.KL}
	if q.Property != BadDataDetectability {
		k.r = 0
	}
	return k
}

// probe is the canonical query a snapshot with key k is encoded for:
// no failure budget, so one snapshot visibly serves every budget.
func (k snapshotKey) probe() Query {
	return Query{Property: k.property, Combined: true, R: k.r, KL: k.kl}
}

// encodingKey derives the cache key for q's structural encoding. The
// configuration/policy fingerprint is computed once per
// analyzer; the per-query suffix covers q's snapshot key plus the
// preprocessing mode and encoding version. Certified snapshots
// (cert) are keyed apart, so uncertified analyzers sharing the cache
// never pay for proof logging.
func (a *Analyzer) encodingKey(q Query, cert bool) (string, error) {
	fp, err := a.encodingFingerprint()
	if err != nil {
		return "", err
	}
	sk := snapshotKeyOf(q)
	key := fmt.Sprintf("%s|v%d|prop%d|r%d|kl%d|simp%t",
		fp, EncodingVersion, sk.property, sk.r, sk.kl, a.presimplify)
	if cert {
		key += "|cert"
	}
	return key, nil
}

// encodingFingerprint memoizes the analyzer's share of the cache key:
// the configuration/policy fingerprint. Mutate uses it to pair
// old- and new-configuration entries without a probe query. The
// fingerprint is also memoized on the configuration (scadanet.Config.Memo)
// under its policy, so the analyzers the service builds
// per request over one configuration version hash it once.
func (a *Analyzer) encodingFingerprint() (string, error) {
	if a.encFP == "" {
		key, err := a.fingerprintKey()
		if err != nil {
			return "", err
		}
		fp, err := a.cfg.Memo(key, func() (string, error) {
			return CampaignFingerprint(a.cfg, "encoding", a.policy)
		})
		if err != nil {
			return "", fmt.Errorf("core: encoding cache key: %w", err)
		}
		a.encFP = fp
	}
	return a.encFP, nil
}

// fingerprintKey names the encoding fingerprint among the values
// memoized on the configuration: the inputs it hashes besides the
// configuration, as it hashes them.
func (a *Analyzer) fingerprintKey() (string, error) {
	extra, err := json.Marshal([]any{a.policy})
	if err != nil {
		return "", fmt.Errorf("core: encoding cache key: %w", err)
	}
	return "encoding\n" + string(extra), nil
}

// snapshot returns a private clone of the shared structural encoding
// for q: configuration constraints, delivery definitions and the
// negated property are asserted (and preprocessed under presimplify);
// the failure budget is not, so one snapshot serves every budget, and
// the clone has room for the budget the caller puts on it (see
// logic.Encoder.CloneFor). The bool reports whether this call built the
// entry — the building query attributes the one-time preprocessing cost
// and counters; cache hits get the snapshot for free. With cert, which
// certifying analyzers pass, the snapshot is monolithic on either cache
// layout, built under proof logging, and keeps its prelude checker;
// Mutate ignores it, because it carries no delta state. The building query's one-off
// Simplify runs in a "preprocess" child of its build span, with the
// query registry showing the preprocess phase (nil build span and query
// state, as callers outside a traced query pass, skip both).
func (a *Analyzer) snapshot(q Query, budget *logic.Formula, cert bool, build *obs.Span, qs *obs.QueryState) (*logic.Encoder, bool, *encodingEntry, error) {
	key, err := a.encodingKey(q, cert)
	if err != nil {
		return nil, false, nil, err
	}
	e := a.cache.entry(key)
	built := false
	e.once.Do(func() {
		built = true
		if a.cache.delta && !cert {
			// Delta mode: build the guarded-group master and serve its
			// sealed snapshot (see delta.go). Logically equivalent to the
			// monolithic encoding over the named variables, but evolvable
			// under EncodingCache.Mutate.
			st := a.buildDeltaState(snapshotKeyOf(q).probe(), build, qs)
			e.pre = st.sealed.Solver().Stats()
			e.enc = st.sealed
			e.harvestMax = st.sealedVars
			e.delta.Store(st)
			return
		}
		var ck *drat.Checker
		var proof sat.ProofWriter
		if cert {
			ck = drat.New()
			proof = ck
		}
		enc := a.encodeSnapshot(q, proof, build, qs)
		if ck != nil {
			enc.Solver().SetProofHook(nil)
			e.prelude = sharedPrelude(ck)
		}
		e.pre = enc.Solver().Stats()
		e.enc = enc
	})
	return e.enc.CloneFor(budget), built, e, nil
}

// encodeSnapshot encodes the monolithic snapshot for q's structure —
// configuration constraints, delivery definitions and the negated
// property, canonicalized to the structure-relevant fields so it is
// visibly independent of the device-failure budget — and simplifies it
// under presimplify (see preprocessSnapshot). A non-nil proof is armed
// on the solver from its first clause and stays armed. The cache builds
// its snapshots with it, and a certified query whose snapshot shares no
// prelude encodes a private copy with it (see forkCertify).
func (a *Analyzer) encodeSnapshot(q Query, proof sat.ProofWriter, build *obs.Span, qs *obs.QueryState) *logic.Encoder {
	probe := snapshotKeyOf(q).probe()
	enc, delivered := a.encodeStructure(probe, proof)
	enc.Assert(a.violationFormula(probe, delivered))
	if a.presimplify {
		preprocessSnapshot(enc, build, qs)
	}
	return enc
}

// preprocessSnapshot runs a snapshot build's one-off Simplify inside a
// "preprocess" child of the building query's build span and shows the
// preprocess phase in the query registry meanwhile, so traces and
// /v1/queries attribute it as Result.Phases does (see preprocessPhase).
func preprocessSnapshot(enc *logic.Encoder, build *obs.Span, qs *obs.QueryState) {
	qs.SetPhase("preprocess")
	sp := build.Start("preprocess")
	enc.Simplify()
	sp.End()
	qs.SetPhase("build")
}

// sharedPrelude returns the copy of a certified snapshot's build checker
// that the snapshot keeps for its queries to fork (read-only from then
// on), or nil when the build's derivation may not be shared: after a
// rejected step nothing is certified, and after a RAT addition the
// database is only equisatisfiable with the input formula, so refuting
// it under a budget would not refute the query. The copy is a clone,
// which leaves out the clauses Simplify deleted that the builder's slab
// may still hold, so every per-query clone of it copies the slab as is.
func sharedPrelude(ck *drat.Checker) *drat.Checker {
	if ck.Err() != nil || ck.RATs() > 0 {
		return nil
	}
	return ck.Clone()
}

// addPreprocessStats folds a snapshot's one-time preprocessing counters
// into a per-query stats record (only the query that built the snapshot
// does this, so campaign-level sums count the work exactly once).
func addPreprocessStats(dst *sat.Stats, pre sat.Stats) {
	dst.ElimVars += pre.ElimVars
	dst.SubsumedClauses += pre.SubsumedClauses
	dst.StrengthenedClauses += pre.StrengthenedClauses
	dst.FailedLits += pre.FailedLits
	dst.SimplifyTime += pre.SimplifyTime
}

// preprocessPhase splits a snapshot-building query's wall time between
// the build and preprocess phases: the snapshot's Simplify duration is
// reported as Preprocess and removed from Build.
func preprocessPhase(ph *PhaseTimes, pre sat.Stats) {
	ph.Preprocess = pre.SimplifyTime
	ph.Build -= ph.Preprocess
	if ph.Build < 0 {
		ph.Build = 0
	}
}

// enumEncoder returns the fully-asserted encoder backing one threat
// enumeration: a clone of the snapshot with the budget asserted.
// Blocking clauses land on the clone, never on the shared snapshot.
// Enumeration is not certified, so it takes the uncertified snapshot
// even on a certifying analyzer.
func (a *Analyzer) enumEncoder(q Query) (*logic.Encoder, error) {
	budget := a.budgetFormula(q)
	enc, _, _, err := a.snapshot(q, budget, false, nil, nil)
	if err != nil {
		return nil, err
	}
	enc.Assert(budget)
	return enc, nil
}
