package sat

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PortfolioOptions configures SolvePortfolio. The zero value (and any
// Replicas <= 1) degenerates to a plain serial Solve; set Replicas to
// race diversified clones with clause sharing and inprocessing enabled.
type PortfolioOptions struct {
	// Replicas is the number of diversified solver clones raced against
	// each other. Values <= 1 fall back to a plain serial Solve; values
	// above 16 are clamped.
	Replicas int

	// NoSharing disables the learnt-clause exchange between replicas
	// (the ablation knob: diversification only).
	NoSharing bool

	// NoInprocess disables between-restart inprocessing (root-level
	// database cleaning and clause vivification) in the replicas.
	NoInprocess bool

	// MaxSharedLen and MaxSharedLBD filter which learned clauses a
	// replica exports: only clauses at most MaxSharedLen literals long
	// with LBD at most MaxSharedLBD enter the exchange ring. Defaults: 8
	// literals, LBD 4.
	MaxSharedLen int
	MaxSharedLBD int32

	// ExchangeCap bounds the exchange ring (in clauses); older entries
	// are overwritten once the ring wraps. Default 4096.
	ExchangeCap int

	// MaxConcurrent caps how many replicas search simultaneously. A
	// portfolio only beats serial search when the replicas get real
	// parallelism: time-slicing N replicas on one CPU multiplies the
	// wall clock of the eventual winner by ~N. The default (0) therefore
	// admits runtime.GOMAXPROCS(0) replicas at a time — on a single-CPU
	// host the race degenerates to the baseline replica searching alone
	// (costing one clone over serial Solve), while multi-core hosts get
	// the full race. Admission is strictly in replica order and a decided
	// race releases waiting replicas without starting them. Negative
	// values admit every replica at once regardless of CPU count (chaos
	// tests pin the saturated race this way).
	MaxConcurrent int

	// OnReplicaStart, when non-nil, runs on each replica's goroutine
	// right before its search starts. It exists for fault injection in
	// chaos tests: a panicking hook kills that replica, and the
	// portfolio must isolate the loss without changing the verdict.
	OnReplicaStart func(id int)
}

func (o PortfolioOptions) withDefaults() PortfolioOptions {
	if o.Replicas > 16 {
		o.Replicas = 16
	}
	if o.MaxSharedLen <= 0 {
		o.MaxSharedLen = 8
	}
	if o.MaxSharedLBD <= 0 {
		o.MaxSharedLBD = 4
	}
	if o.ExchangeCap <= 0 {
		o.ExchangeCap = 4096
	}
	return o
}

// PortfolioStats describes one SolvePortfolio race, for observability:
// which strategy decided and how much the exchange moved.
type PortfolioStats struct {
	Replicas int    // replicas actually raced (0 when the serial fallback ran)
	Winner   int    // index of the deciding replica, -1 when none decided
	Strategy string // diversification strategy of the winner, "" when none
	Imported uint64 // shared clauses imported, summed over live replicas
	Exported uint64 // learned clauses exported, summed over live replicas
	Vivified uint64 // clauses strengthened by inprocessing, summed
	Panics   int    // replicas lost to a panic (isolated, never propagated)
	// PerReplica breaks the race down replica by replica for the live
	// query registry; index i describes replica i.
	PerReplica []ReplicaStats
}

// ReplicaStats is one replica's view of a portfolio race.
type ReplicaStats struct {
	ID        int
	Strategy  string
	Status    Status
	Conflicts uint64
	Imported  uint64
	Exported  uint64
	Winner    bool
	Panicked  bool
}

// StrategyName returns the diversification strategy replica i would be
// assigned, so callers can publish the racing lineup before the race
// resolves.
func StrategyName(i int) string { return strategyFor(i).name }

// strategy is one row of the diversification matrix. Zero-valued knobs
// mean "keep the base solver's setting".
type strategy struct {
	name        string
	varDecay    float64 // VSIDS decay (0 = inherit)
	restartBase int     // first restart interval (0 = inherit)
	geom        float64 // >1 = geometric restart factor, else Luby
	polarity    polInit
}

type polInit int

const (
	polSaved       polInit = iota // keep the base solver's saved phases
	polPositive                   // branch true first everywhere
	polNegative                   // branch false first everywhere
	polAlternating                // split by variable parity
)

// strategies is the diversification matrix (documented in DESIGN.md
// §12). Replica 0 is always the undiversified baseline so the portfolio
// is never slower than serial search by more than the scheduling
// overhead on a contended machine.
var strategies = [...]strategy{
	{name: "baseline", polarity: polSaved},
	{name: "geometric-fast", varDecay: 0.90, restartBase: 100, geom: 1.3, polarity: polPositive},
	{name: "luby-deep", varDecay: 0.99, restartBase: 300, polarity: polNegative},
	{name: "geometric-wide", varDecay: 0.85, restartBase: 50, geom: 2.0, polarity: polAlternating},
}

// strategyFor returns the strategy for replica i, cycling through the
// matrix with a deterministic decay nudge so replicas beyond the fourth
// still differ from their archetype.
func strategyFor(i int) strategy {
	st := strategies[i%len(strategies)]
	if rounds := i / len(strategies); rounds > 0 && st.varDecay > 0 {
		st.varDecay -= 0.02 * float64(rounds)
		if st.varDecay < 0.5 {
			st.varDecay = 0.5
		}
	}
	return st
}

func (st strategy) apply(r *Solver) {
	if st.varDecay > 0 {
		r.varDecay = st.varDecay
	}
	if st.restartBase > 0 {
		r.restartBase = st.restartBase
	}
	r.restartGeom = st.geom
	r.geomLimit = 0
	switch st.polarity {
	case polPositive:
		for v := range r.polarity {
			r.polarity[v] = false
		}
	case polNegative:
		for v := range r.polarity {
			r.polarity[v] = true
		}
	case polAlternating:
		for v := range r.polarity {
			r.polarity[v] = v%2 == 1
		}
	}
}

// sharedLearnt is one exchange-ring entry. lits is owned by the ring
// (copied on publish); importers copy again on attach so no two
// replicas ever share a clause's backing array.
type sharedLearnt struct {
	from int
	lbd  int32
	lits []Lit
}

// exchangeRing is the bounded, finely-locked learnt-clause exchange.
// Writers overwrite the oldest slot once the ring wraps; readers keep a
// private cursor and skip ahead on overrun, so a slow replica loses old
// clauses instead of stalling fast ones. The single short-critical-
// section mutex is deliberately simple — exports are filtered to short,
// low-LBD clauses, so traffic is a tiny fraction of propagation work.
type exchangeRing struct {
	mu   sync.Mutex
	buf  []sharedLearnt
	head uint64 // total clauses ever published
}

func newExchangeRing(capacity int) *exchangeRing {
	return &exchangeRing{buf: make([]sharedLearnt, capacity)}
}

func (r *exchangeRing) publish(from int, lits []Lit, lbd int32) {
	cp := append([]Lit(nil), lits...)
	r.mu.Lock()
	r.buf[int(r.head%uint64(len(r.buf)))] = sharedLearnt{from: from, lbd: lbd, lits: cp}
	r.head++
	r.mu.Unlock()
}

// drain returns every entry published since *cursor by replicas other
// than self and advances the cursor to the present. On overrun (more
// than cap(ring) publications since the last drain) the oldest entries
// are silently skipped.
func (r *exchangeRing) drain(cursor *uint64, self int) []sharedLearnt {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := *cursor
	if n := uint64(len(r.buf)); r.head > n && lo < r.head-n {
		lo = r.head - n
	}
	var out []sharedLearnt
	for i := lo; i < r.head; i++ {
		e := r.buf[int(i%uint64(len(r.buf)))]
		if e.from != self {
			out = append(out, e)
		}
	}
	*cursor = r.head
	return out
}

// importShared attaches clauses drained from the exchange ring. Must be
// called at decision level 0 (the restart hook guarantees this), so
// literal values are root-level facts: root-satisfied clauses are
// skipped, root-false literals stripped, and derived units enqueued.
// Clauses mentioning locally-eliminated variables are skipped
// defensively — replicas never run variable elimination, so with the
// current pipeline the filter never fires, but it keeps the importer
// sound if that ever changes.
//
// Under an armed proof hook every import must itself be justified: the
// clause was derived by ANOTHER replica, whose derivation this
// replica's proof does not contain. The importer therefore RUP-checks
// each candidate against the local database (rupImplied) and logs the
// ones that pass as ordinary Add steps; candidates that are not yet
// locally implied are dropped — sharing degrades instead of the proof
// breaking. See DESIGN.md §15 for why this beats disabling sharing.
func (s *Solver) importShared(ring *exchangeRing, cursor *uint64, self int) {
	for _, e := range ring.drain(cursor, self) {
		lits := make([]Lit, 0, len(e.lits))
		skip := false
		for _, l := range e.lits {
			if s.eliminated[l.Var()] {
				skip = true
				break
			}
			switch s.value(l) {
			case True:
				skip = true
			case False:
				continue
			default:
				lits = append(lits, l)
			}
			if skip {
				break
			}
		}
		if skip {
			continue
		}
		if s.proof != nil {
			if !s.rupImplied(e.lits) {
				continue
			}
			s.proofStep(ProofAdd, e.lits)
		}
		s.stats.ImportedClauses++
		switch len(lits) {
		case 0:
			s.markRootUnsat()
			return
		case 1:
			s.uncheckedEnqueue(lits[0], 0)
			if s.propagate() != 0 {
				s.markRootUnsat()
				return
			}
		default:
			c := s.ca.alloc(lits, true)
			s.ca.setLBD(c, e.lbd)
			s.learned = append(s.learned, c)
			s.attach(c)
		}
	}
}

// SolvePortfolio decides the instance like Solve, but races
// opts.Replicas diversified clones of the solver and returns the first
// verdict. Each replica gets its own VSIDS decay, restart schedule
// (Luby vs geometric), and initial polarity from the diversification
// matrix; unless disabled, replicas exchange short low-LBD learned
// clauses through a bounded ring and run light inprocessing
// (vivification and root-level re-simplification) between restarts.
//
// The first replica to decide wins and cooperatively interrupts the
// rest via the interrupt hook; the call always joins every replica
// goroutine before returning. The winner's full search state — clause
// database, learned clauses, assignment trail, activities, phases — is
// adopted into s, so a Sat answer exposes its model through Value/Model
// exactly as after a serial Solve, and later incremental calls continue
// from the winner's learning. The winner's counters are folded into
// s.Stats() so per-solve deltas stay truthful. When no replica decides
// (interrupt or exhausted conflict budget), the first intact replica is
// adopted anyway: its learned clauses are implied by the formula, so a
// retry under a bigger budget resumes instead of restarting.
//
// Verdicts are deterministic per class: Unsat is identical to serial
// solving (it is a property of the formula), while a Sat model may be a
// different — but always valid — satisfying assignment.
//
// An installed interrupt hook is honored by every replica and may be
// called from all replica goroutines concurrently, so it must be
// race-free. A conflict hook (fault-injection seam) rides replica 0
// only: an injected stall slows one replica instead of deciding the
// race. A replica that panics is isolated (counted in PortfolioStats)
// and never decides nor gets adopted.
func (s *Solver) SolvePortfolio(opts PortfolioOptions, assumptions ...Lit) (Status, PortfolioStats) {
	opts = opts.withDefaults()
	if opts.Replicas <= 1 || s.rootUnsat {
		return s.Solve(assumptions...), PortfolioStats{Winner: -1}
	}
	start := time.Now()

	var ring *exchangeRing
	if !opts.NoSharing {
		ring = newExchangeRing(opts.ExchangeCap)
	}
	baseInterrupt := s.interrupt
	var done atomic.Bool
	var winner atomic.Int32
	winner.Store(-1)
	doneCh := make(chan struct{})

	n := opts.Replicas
	maxConc := opts.MaxConcurrent
	if maxConc == 0 {
		maxConc = runtime.GOMAXPROCS(0)
	}
	if maxConc < 0 || maxConc > n {
		maxConc = n
	}

	replicas := make([]*Solver, n)
	statuses := make([]Status, n)
	panicked := make([]bool, n)

	// Under an armed proof hook each replica logs into a private
	// recorder (Clone deliberately does not copy the hook); the adopted
	// replica's recording is replayed into the parent's writer after
	// the race, so the emitted proof describes exactly the database the
	// caller ends up observing. Replicas are clones of s, whose inputs
	// and prior derivations the parent's proof already contains, so the
	// replayed steps check against the right prefix.
	var recorders []*proofRecorder
	if s.proof != nil {
		recorders = make([]*proofRecorder, n)
	}

	// makeReplica clones s and diversifies the clone lazily, only when
	// the replica is actually admitted — replicas released by an already
	// decided race never pay the clone. The mutex serializes Clone calls:
	// Clone unwinds s to the root level first, which must not race.
	var cloneMu sync.Mutex
	makeReplica := func(id int) *Solver {
		cloneMu.Lock()
		r := s.Clone()
		cloneMu.Unlock()
		strategyFor(id).apply(r)
		if recorders != nil {
			rec := &proofRecorder{}
			recorders[id] = rec
			r.SetProofHook(rec)
		}
		r.SetInterrupt(func() bool {
			return done.Load() || (baseInterrupt != nil && baseInterrupt())
		})
		if id == 0 {
			// Deterministic fault hooks and the progress probe ride the
			// baseline replica only: an injected stall degrades one replica
			// (the others still decide), and progress events stay
			// single-goroutine.
			r.SetConflictHook(s.conflictHook)
			r.SetProgress(s.progressEvery, s.progress)
			r.SetEventHook(s.eventHook)
		}
		inproc := 0
		var cursor uint64
		if ring != nil {
			r.learnHook = func(lits []Lit, lbd int32) {
				if len(lits) > opts.MaxSharedLen || lbd > opts.MaxSharedLBD {
					return
				}
				ring.publish(id, lits, lbd)
				r.stats.ExportedClauses++
			}
		}
		if ring != nil || !opts.NoInprocess {
			r.restartHook = func() {
				if ring != nil {
					r.importShared(ring, &cursor, id)
					if r.rootUnsat {
						return
					}
				}
				inproc++
				if !opts.NoInprocess && inproc%inprocessEvery == 0 {
					r.simplifyRoots()
					if !r.rootUnsat {
						r.vivifyRound(vivifyClausesPerRound)
					}
				}
			}
		}
		return r
	}

	// Admission is a deterministic hand-off chain: the first maxConc
	// replicas start immediately, and every replica that finishes (for
	// any reason, panic included) releases exactly the next one in index
	// order. Replica 0 — the undiversified baseline — is therefore always
	// first, so a GOMAXPROCS-capped portfolio on one CPU behaves like a
	// serial Solve plus one clone rather than an N-way time slice.
	starts := make([]chan struct{}, n)
	for i := range starts {
		starts[i] = make(chan struct{})
	}
	for i := 0; i < maxConc; i++ {
		close(starts[i])
	}
	var nextAdmit atomic.Int64
	nextAdmit.Store(int64(maxConc))

	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			defer func() {
				if nxt := int(nextAdmit.Add(1)) - 1; nxt < n {
					close(starts[nxt])
				}
			}()
			defer func() {
				if p := recover(); p != nil {
					panicked[id] = true
					statuses[id] = Unsolved
				}
			}()
			// Replicas admitted up front always start — the saturated race
			// is what the chaos tests pin. Replicas that had to wait for a
			// slot skip entirely when the race was decided (or externally
			// interrupted) in the meantime: no clone, no search.
			if id >= maxConc {
				select {
				case <-starts[id]:
				case <-doneCh:
					return // race decided before this replica's turn
				}
				if done.Load() || (baseInterrupt != nil && baseInterrupt()) {
					return
				}
			}
			r := makeReplica(id)
			replicas[id] = r
			if opts.OnReplicaStart != nil {
				opts.OnReplicaStart(id)
			}
			st := r.Solve(assumptions...)
			statuses[id] = st
			if st != Unsolved && winner.CompareAndSwap(-1, int32(id)) {
				done.Store(true)
				close(doneCh)
			}
		}(i)
	}
	wg.Wait()

	pst := PortfolioStats{Replicas: opts.Replicas, Winner: -1}
	pst.PerReplica = make([]ReplicaStats, opts.Replicas)
	for i, r := range replicas {
		rep := ReplicaStats{ID: i, Strategy: strategyFor(i).name, Status: statuses[i], Panicked: panicked[i]}
		if panicked[i] {
			pst.Panics++
			pst.PerReplica[i] = rep
			continue
		}
		if r == nil {
			pst.PerReplica[i] = rep
			continue // released without starting: nothing to account
		}
		rs := r.Stats()
		rep.Conflicts = rs.Conflicts
		rep.Imported = rs.ImportedClauses
		rep.Exported = rs.ExportedClauses
		pst.PerReplica[i] = rep
		pst.Imported += rs.ImportedClauses
		pst.Exported += rs.ExportedClauses
		pst.Vivified += rs.VivifiedClauses
	}
	status := Unsolved
	pick := int(winner.Load())
	if pick >= 0 {
		status = statuses[pick]
		pst.Winner = pick
		pst.Strategy = strategyFor(pick).name
		pst.PerReplica[pick].Winner = true
	} else {
		pick = -1
		for i := range replicas {
			if !panicked[i] && replicas[i] != nil {
				pick = i
				break
			}
		}
	}
	if pick >= 0 && replicas[pick] != nil {
		if recorders != nil && recorders[pick] != nil {
			recorders[pick].replay(s.proof)
		}
		s.adopt(replicas[pick], time.Since(start))
	}
	return status, pst
}

// adopt moves the chosen replica's entire search state into s while
// keeping s's identity: callers holding the *Solver (the encoder, the
// encoding cache) see the winner's clause database, trail, and model
// through the same pointer. Hooks and schedule knobs stay s's own; the
// replica's counters (a per-race delta, since clones start at zero) are
// folded into s's cumulative stats, with SolveTime replaced by the
// race's wall clock so phase accounting reflects elapsed time rather
// than the sum over replicas.
func (s *Solver) adopt(w *Solver, wall time.Duration) {
	s.ca = w.ca
	s.clauses = w.clauses
	s.learned = w.learned
	s.assigns = w.assigns
	s.level = w.level
	s.reason = w.reason
	s.trail = w.trail
	s.trailLim = w.trailLim
	s.qhead = w.qhead
	s.watches = w.watches
	s.wn = w.wn
	s.activity = w.activity
	s.varInc = w.varInc
	s.clauseInc = w.clauseInc
	s.polarity = w.polarity
	s.frozen = w.frozen
	s.eliminated = w.eliminated
	s.elimStack = w.elimStack
	s.rootUnsat = w.rootUnsat
	// The activity heap holds a pointer to its owner's activity slice;
	// rebuild it over s's (now adopted) slice.
	s.resetOrder()
	delta := w.Stats()
	delta.SolveTime = wall
	s.stats = s.stats.add(delta)
}
