package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"scadaver/internal/logic"
	"scadaver/internal/obs"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
)

// The delta-aware encoding cache (DESIGN.md §16). In delta mode every
// cached structural encoding is built as a set of GUARDED constraint
// groups on an evolvable "master" encoder: each group's clauses carry a
// fresh activation literal (logic.AssertGuarded), so while the selector
// is free the group is inert and the master is a sound weakening of
// every configuration version it has ever encoded. Queries never solve
// the master directly — they clone a "sealed" snapshot: a root-level
// clone of the master with the active selectors asserted true, retired
// selectors asserted false, and the learnt-clause stash re-imported
// under a RUP check (sat.ImportLearnts).
//
// When the configuration mutates, EncodingCache.Mutate diffs the
// desired group inventory (recomputed from the new configuration)
// against the active groups by content signature: groups whose
// signature is unchanged survive verbatim (DeltaReuse), changed or
// vanished groups are retired — their selector is the off switch, the
// clauses are never rebuilt in place — and replacements are encoded
// fresh on the master (DeltaReencoded). Only the dirty cone re-encodes:
// per-measurement delivery and the property constraint are defined over
// named indirection variables (Del_<ied>, Dz_<z>), so the dominant
// property encoding survives every supported mutation unchanged.
//
// Soundness of the carryover is layered: the stash is pruned of clauses
// mentioning dirty-cone variables (the issue's import filter), and
// every surviving candidate must still pass reverse unit propagation
// against the NEW sealed database before it is admitted — variable
// filtering alone is not sound, because resolution can launder a dirty
// dependency into a clause over clean variables.

// MutationStats reports what one cache mutation did: how many guarded
// constraint groups survived verbatim, how many re-encoded, how many
// learnt clauses carried over into the new sealed snapshots, and how
// many cache entries evolved.
type MutationStats struct {
	DeltaReuse     uint64 `json:"deltaReuse"`
	DeltaReencoded uint64 `json:"deltaReencoded"`
	CarriedLearnts uint64 `json:"carriedLearnts"`
	Entries        int    `json:"entries"`
}

func (m *MutationStats) add(o MutationStats) {
	m.DeltaReuse += o.DeltaReuse
	m.DeltaReencoded += o.DeltaReencoded
	m.CarriedLearnts += o.CarriedLearnts
}

// Learnt-clause carryover bounds: only short clauses transfer (long
// ones rarely prune a different search), per-query harvests are capped,
// and the stash is a bounded FIFO so a long-lived config's stash cannot
// grow without limit.
const (
	carryMaxLen   = 8
	carryPerSolve = 64
	carryStash    = 512

	// queryProbeLimit bounds per-query failed-literal probing on delta
	// snapshots (see Analyzer.verify). Probing low-numbered variables
	// covers the named structural interface on typical encodings; a
	// higher bound chases auxiliary variables for little return.
	queryProbeLimit = 256
)

// dzVar names the delivered-measurement indirection term in delta mode.
func dzVar(z int) *logic.Formula { return logic.Vf("Dz_%d", z) }

// groupSpec is the desired content of one guarded constraint group for
// a given configuration: a content signature (equal signature ⇒ the
// already-encoded group is still exactly right), the named variables
// the group owns (they join the dirty cone when it retires), and the
// formula, built lazily so re-used groups never construct it.
type groupSpec struct {
	sig   string
	named []string
	form  func() *logic.Formula
}

// deltaGroup is one encoded guarded group on the master: its selector,
// the fresh-variable range its encoding allocated, and the bookkeeping
// needed to retire it into the dirty cone.
type deltaGroup struct {
	key          string
	sig          string
	sel          string
	selVar       sat.Var
	auxLo, auxHi int
	named        []string
}

// deltaState is the evolvable half of one cache entry: the master
// encoder with all guarded groups ever encoded, the active/retired
// partition, the current sealed snapshot queries clone, and the learnt
// stash. One deltaState follows a configuration lineage across
// mutations (it moves to the new fingerprint's entry on Mutate); the
// superseded entry keeps its sealed snapshot but loses evolvability.
type deltaState struct {
	mu      sync.Mutex
	probe   Query
	master  *logic.Encoder
	groups  map[string]*deltaGroup
	retired []*deltaGroup
	nextSel int
	presimp bool // re-simplify each sealed snapshot under its selector units

	sealed     *logic.Encoder
	sealedVars int

	stash     [][]sat.Lit
	stashSeen map[string]bool

	// Branching heuristics harvested from the most recent finished query
	// (phases + activity over the shared structural variables), adopted
	// by the next sealed snapshot. Purely heuristic, so unconditionally
	// sound to transplant — and since consecutive generations differ by
	// one dirty cone, the previous search's hot variables and satisfying
	// phases are nearly right for the next instance.
	phases   []bool
	activity []float64

	// pending accumulates mutation counters until the first query that
	// consumes the evolved snapshot claims them into its Result.Phases,
	// mirroring how the builder query attributes one-off preprocessing.
	pending    MutationStats
	hasPending bool
}

// deltaGroupSpecs computes the desired guarded-group inventory for the
// analyzer's configuration under the snapshot probe query. Group keys
// are stable across configurations (dev:<id>, lnk:<id>, pair:<id>,
// reach:<id>, del:<ied>, dz:<z>, card, prop); signatures capture exactly the
// configuration content each group encodes, so the Mutate diff is
// driven by content, not by guessing which ops touch which groups.
func (a *Analyzer) deltaGroupSpecs(q Query) map[string]groupSpec {
	secured := q.Property != Observability
	specs := make(map[string]groupSpec)

	// dev:<id> — statically-down field devices. Healthy devices assert
	// nothing (their availability is a free search variable), so a group
	// exists only while the device is down.
	for _, d := range append(append([]*scadanet.Device(nil), a.fieldIEDs...), a.fieldRTUs...) {
		if !d.Down {
			continue
		}
		id := d.ID
		specs[fmt.Sprintf("dev:%d", id)] = groupSpec{
			sig:   "down",
			named: []string{fmt.Sprintf("Node_%d", id)},
			form:  func() *logic.Formula { return logic.Not(nodeVar(id)) },
		}
	}

	// lnk:<id> — per-link status, and card — the link-failure
	// cardinality over healthy links when the probe has a link budget
	// (healthy links are then free and belong to the card group).
	var healthy []scadanet.LinkID
	for _, l := range a.cfg.Net.Links() {
		lid := l.ID
		linkName := []string{fmt.Sprintf("Link_%d", lid)}
		switch {
		case l.Down:
			specs[fmt.Sprintf("lnk:%d", lid)] = groupSpec{
				sig:   "down",
				named: linkName,
				form:  func() *logic.Formula { return logic.Not(linkVar(lid)) },
			}
		case q.KL > 0:
			healthy = append(healthy, lid)
		default:
			specs[fmt.Sprintf("lnk:%d", lid)] = groupSpec{
				sig:   "up",
				named: linkName,
				form:  func() *logic.Formula { return linkVar(lid) },
			}
		}

		// pair:<id> — the static per-hop pairing (and, secured, the
		// authentication/integrity) judgements. The signature is over the
		// judged booleans, so a key rotation that does not flip any
		// judgement reuses the group — which is semantically exact.
		protoOK, cryptoOK := a.cfg.Net.HopPairing(l)
		secOK := false
		named := []string{fmt.Sprintf("Pair_%d", lid)}
		if secured {
			caps := a.cfg.Net.HopCaps(l, a.policy)
			secOK = caps.Has(secpolicy.Authenticates | secpolicy.IntegrityProtects)
			named = append(named, fmt.Sprintf("Sec_%d", lid))
		}
		specs[fmt.Sprintf("pair:%d", lid)] = groupSpec{
			sig:   fmt.Sprintf("p%t|c%t|s%t", protoOK, cryptoOK, secOK),
			named: named,
			form: func() *logic.Formula {
				f := logic.Iff(pairVar(lid), logic.Const(protoOK && cryptoOK))
				if secured {
					f = logic.And(f, logic.Iff(secVar(lid), logic.Const(secOK)))
				}
				return f
			},
		}
	}
	if q.KL > 0 {
		ids := append([]scadanet.LinkID(nil), healthy...)
		sortLinkIDs(ids)
		named := make([]string, len(ids))
		for i, lid := range ids {
			named[i] = fmt.Sprintf("Link_%d", lid)
		}
		kl := q.KL
		specs["card"] = groupSpec{
			sig:   fmt.Sprintf("kl%d|%v", kl, ids),
			named: named,
			form: func() *logic.Formula {
				fails := make([]*logic.Formula, len(ids))
				for i, lid := range ids {
					fails[i] = logic.Not(linkVar(lid))
				}
				return logic.AtMost(kl, fails...)
			},
		}
	}

	// reach:<id> and del:<ied> — the shared reach net and the IEDs'
	// delivery definitions (deliveryNet). Each group is built from its
	// device's incident links and names the Reach_/Del_ term it
	// defines, so downstream groups reference Del_<ied> and a link delta
	// touches at most the groups of the link's two endpoints.
	for _, g := range a.deliveryNet(secured) {
		form := g.form
		specs[g.key] = groupSpec{
			sig:   g.sig,
			named: []string{g.named},
			form:  func() *logic.Formula { return form },
		}
	}

	// dz:<z> — measurement delivery over the senders' Del terms. The
	// sender assignment never mutates, so these survive every delta.
	for z := 1; z <= a.cfg.Msrs.Len(); z++ {
		zz := z
		senders := a.senders[z]
		specs[fmt.Sprintf("dz:%d", z)] = groupSpec{
			sig:   fmt.Sprintf("%v", senders),
			named: []string{fmt.Sprintf("Dz_%d", z)},
			form: func() *logic.Formula {
				alts := make([]*logic.Formula, len(senders))
				for i, ied := range senders {
					alts[i] = delVar(ied)
				}
				return logic.Iff(dzVar(zz), logic.Or(alts...))
			},
		}
	}

	// prop — the negated property over the Dz indirection. Its content
	// depends only on the measurement model and the probe, both immutable
	// under the mutation API, so the dominant constraint never re-encodes.
	specs["prop"] = groupSpec{
		sig: "v1",
		form: func() *logic.Formula {
			delivered := make([]*logic.Formula, a.cfg.Msrs.Len()+1)
			for z := 1; z <= a.cfg.Msrs.Len(); z++ {
				delivered[z] = dzVar(z)
			}
			return a.violationFormula(q, delivered)
		},
	}
	return specs
}

// buildDeltaState encodes the full guarded-group inventory on a fresh
// master, optionally presimplifies it (sound: with every selector free
// the master weakens every version, and selectors are named and thereby
// frozen), and seals the first snapshot. The Simplify is attributed to
// the building query as in snapshot.
func (a *Analyzer) buildDeltaState(probe Query, build *obs.Span, qs *obs.QueryState) *deltaState {
	st := &deltaState{
		probe:     probe,
		master:    logic.NewEncoder(),
		groups:    make(map[string]*deltaGroup),
		stashSeen: make(map[string]bool),
		presimp:   a.presimplify,
	}
	specs := a.deltaGroupSpecs(probe)
	for _, key := range sortedSpecKeys(specs) {
		st.encodeGroup(key, specs[key])
	}
	if a.presimplify {
		preprocessSnapshot(st.master, build, qs)
	}
	st.seal()
	return st
}

// encodeGroup asserts one guarded group on the master under a fresh
// selector, recording the fresh-variable range the encoding allocated.
// New groups encoded after a master Simplify are safe: they mention
// only frozen named variables and brand-new auxiliaries, and the
// encoder's formula memo is pointer-keyed over freshly-built formulas,
// so no eliminated auxiliary can leak in.
func (st *deltaState) encodeGroup(key string, spec groupSpec) {
	selName := fmt.Sprintf("__sel_%d", st.nextSel)
	st.nextSel++
	selVar := st.master.VarLit(selName).Var()
	lo := st.master.Solver().NumVars()
	st.master.AssertGuarded(logic.V(selName), spec.form())
	g := &deltaGroup{
		key:    key,
		sig:    spec.sig,
		sel:    selName,
		selVar: selVar,
		auxLo:  lo,
		auxHi:  st.master.Solver().NumVars(),
		named:  spec.named,
	}
	st.groups[key] = g
}

// seal builds the next immutable snapshot: a clone of the master with
// active selectors asserted, retired selectors negated (optional for
// soundness — retired clauses are inert either way — but it keeps the
// search from wandering into dead groups), and the learnt stash
// re-imported under ImportLearnts' RUP gate. Returns how many learnts
// carried over. Callers hold st.mu (or own st exclusively).
//
// Under presimplify the snapshot is additionally reduced AFTER the
// selector asserts: the master was simplified with every selector free,
// so its guarded clauses still carry the ¬sel literals. With the
// selectors now root units, ReduceRoot specializes (¬sel ∨ C) back to C
// and deletes retired groups outright, so per-query solves run on a CNF
// as tight as a cold presimplified encode — at unit-propagation cost,
// not a full preprocessing pass (a per-seal Simplify costs more than
// the cold re-encode it is meant to beat). Sound for the same reason
// asserting the selectors is: the snapshot IS the formula under those
// units. A false return (root UNSAT) is kept — queries on an
// unsatisfiable snapshot answer UNSAT, which is the truth.
func (st *deltaState) seal() int {
	enc := st.master.Clone()
	for _, key := range sortedGroupKeys(st.groups) {
		enc.Assert(logic.V(st.groups[key].sel))
	}
	for _, g := range st.retired {
		enc.Assert(logic.Not(logic.V(g.sel)))
	}
	if st.presimp {
		enc.Solver().ReduceRoot()
	}
	carried := enc.Solver().ImportLearnts(st.stash)
	if st.phases != nil {
		enc.Solver().AdoptPhases(st.phases)
	}
	st.sealed = enc
	st.sealedVars = enc.Solver().NumVars()
	return carried
}

// harvest copies short learnt clauses out of a finished query's private
// clone into the stash. Only clauses entirely over the sealed
// snapshot's variables are taken: everything at or above maxVar is a
// per-query budget auxiliary, whose definitional clauses are a
// conservative extension, so a harvested clause over structural
// variables is implied by the sealed database alone.
func (st *deltaState) harvest(enc *logic.Encoder, maxVar int) {
	cands := enc.Solver().HarvestLearnts(maxVar, carryMaxLen, carryPerSolve)
	phases := enc.Solver().SavedPhases(maxVar)
	activity := enc.Solver().SavedActivity(maxVar)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.phases, st.activity = phases, activity
	if len(cands) == 0 {
		return
	}
	for _, c := range cands {
		k := clauseKey(c)
		if st.stashSeen[k] {
			continue
		}
		st.stashSeen[k] = true
		st.stash = append(st.stash, c)
	}
	for len(st.stash) > carryStash {
		delete(st.stashSeen, clauseKey(st.stash[0]))
		st.stash = st.stash[1:]
	}
}

// evolve diffs the desired inventory of the mutated configuration
// against the active groups, retires the dirty cone, encodes the
// replacements, prunes the stash of dirty clauses, and reseals.
func (st *deltaState) evolve(next *Analyzer) MutationStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	next.faults.BeforeMutation()

	specs := next.deltaGroupSpecs(st.probe)
	var ms MutationStats
	dirty := make(map[sat.Var]bool)
	for _, key := range sortedGroupKeys(st.groups) {
		g := st.groups[key]
		if spec, ok := specs[key]; ok && spec.sig == g.sig {
			ms.DeltaReuse++
			continue
		}
		// Retire: the selector is the off switch; the clauses stay in the
		// master, permanently disabled by ¬sel in every later seal.
		dirty[g.selVar] = true
		for v := g.auxLo; v < g.auxHi; v++ {
			dirty[sat.Var(v)] = true
		}
		for _, name := range g.named {
			dirty[st.master.VarLit(name).Var()] = true
		}
		st.retired = append(st.retired, g)
		delete(st.groups, key)
	}
	for _, key := range sortedSpecKeys(specs) {
		if _, ok := st.groups[key]; ok {
			continue
		}
		st.encodeGroup(key, specs[key])
		ms.DeltaReencoded++
	}

	// The issue's dirty-variable import filter: clauses mentioning any
	// retired variable are dropped from the stash before the RUP-gated
	// re-import (which alone would be sound, but would waste its budget
	// re-checking clauses that are known to be from the dirty cone).
	if len(dirty) > 0 {
		kept := st.stash[:0]
		for _, c := range st.stash {
			clean := true
			for _, l := range c {
				if dirty[l.Var()] {
					clean = false
					break
				}
			}
			if clean {
				kept = append(kept, c)
			} else {
				delete(st.stashSeen, clauseKey(c))
			}
		}
		st.stash = kept
	}

	ms.CarriedLearnts = uint64(st.seal())
	st.pending.add(ms)
	st.hasPending = true
	return ms
}

// claim transfers the pending mutation counters to the first caller
// after an evolution (the query that consumes the evolved snapshot).
func (st *deltaState) claim() (MutationStats, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.hasPending {
		return MutationStats{}, false
	}
	ms := st.pending
	st.pending = MutationStats{}
	st.hasPending = false
	return ms, true
}

// activeGroups reports how many guarded groups are currently active.
func (st *deltaState) activeGroups() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.groups)
}

func clauseKey(c []sat.Lit) string {
	sorted := append([]sat.Lit(nil), c...)
	slices.Sort(sorted)
	return fmt.Sprintf("%v", sorted)
}

func sortedSpecKeys(m map[string]groupSpec) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedGroupKeys(m map[string]*deltaGroup) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
