package sat

// The watcher pool (DESIGN.md §11, "The watcher pool"). Every watch list
// lives in one flat, pointer-free slice of watchers, and each literal
// names its list by a watchList: an offset into the pool, the number of
// live watchers and the slots the list owns. A list that fills its slots
// moves to the pool's end with twice the room (in place, if it already
// ends the pool); the slots it leaves behind are waste. compactWatches
// copies every list into a fresh pool, dropping the waste, whenever the
// pool has no room left at its end, and after a learned-clause
// reduction once the waste passes half the pool, as the clause arena
// does. A list's watchers keep their order through moves and
// compactions, so propagation visits them exactly as it would in a
// slice of its own.
//
// The pool may move while propagate scans a list: pushWatch onto another
// literal can reallocate or compact it. propagate therefore re-slices
// the list it is scanning after every push (see propagate).

// watchList locates one literal's watch list: its watchers are
// wpool[off : off+n], and it owns wpool[off : off+cap].
type watchList struct {
	off, n, cap uint32
}

const (
	// minWatchCap is the room a list gets on its first watcher.
	minWatchCap = 4
	// poolLimit is the number of watchers a 32-bit offset can address.
	poolLimit = 1 << 32
)

// watchesOf returns the live watchers of l. The slice aliases the pool:
// it is valid until the next pushWatch.
func (s *Solver) watchesOf(l Lit) []watcher {
	wl := s.wl[l]
	return s.wpool[wl.off : wl.off+wl.n]
}

// pushWatch appends w to the watch list of l, growing the list first
// when it has no free slot.
func (s *Solver) pushWatch(l Lit, w watcher) {
	wl := &s.wl[l]
	if wl.n == wl.cap {
		s.growWatch(l, max(2*wl.cap, minWatchCap))
	}
	s.wpool[wl.off+wl.n] = w
	wl.n++
}

// growWatch gives l's list room for want watchers, want > its slots. A
// list that ends the pool grows in place; any other moves to the pool's
// end, leaving its old slots as waste. When the pool's backing array
// has no room left at its end, the lists are first compacted into a
// fresh array with room for as many slots again, so the pool is copied
// once per doubling of its live slots and its waste never outlives a
// copy.
func (s *Solver) growWatch(l Lit, want uint32) {
	wl := &s.wl[l]
	need := want
	if s.endsPool(wl) {
		need -= wl.cap
	}
	if cap(s.wpool)-len(s.wpool) < int(need) {
		s.compactWatches(int(want))
	}
	if !s.endsPool(wl) {
		end := uint32(len(s.wpool))
		s.wpool = append(s.wpool, s.wpool[wl.off:wl.off+wl.n]...)
		s.wwasted += int(wl.cap)
		wl.off, wl.cap = end, wl.n
	}
	s.wpool = s.wpool[:wl.off+want]
	wl.cap = want
}

// endsPool reports whether wl owns the last slots of the pool.
func (s *Solver) endsPool(wl *watchList) bool {
	return wl.cap > 0 && wl.off+wl.cap == uint32(len(s.wpool))
}

// compactWatches copies every list, watchers and free slots alike, into
// a fresh pool in literal order, dropping the waste. The fresh array
// has room at its end for as many slots again as the lists own, plus
// room more.
func (s *Solver) compactWatches(room int) {
	owned := len(s.wpool) - s.wwasted
	if uint64(2*owned+room) > poolLimit {
		panic("sat: watcher pool exceeds 2^32 entries")
	}
	to := make([]watcher, 0, 2*owned+room)
	for l := range s.wl {
		wl := &s.wl[l]
		off := uint32(len(to))
		to = append(to, s.wpool[wl.off:wl.off+wl.n]...)
		to = to[:off+wl.cap]
		wl.off = off
	}
	s.wpool = to
	s.wwasted = 0
}

// attachAll lays out a fresh pool for the clause lists and attaches
// every clause, problem clauses first, in list order: each literal's
// list gets slots for its watchers and half as many again, and the pool
// has room for end more watchers at its end.
func (s *Solver) attachAll(end int) {
	clear(s.wl)
	for _, db := range [2][]cref{s.clauses, s.learned} {
		for _, c := range db {
			s.wl[s.ca.lit(c, 0).Neg()].cap++
			s.wl[s.ca.lit(c, 1).Neg()].cap++
		}
	}
	off := uint32(0)
	for l := range s.wl {
		wl := &s.wl[l]
		wl.off = off
		wl.cap += wl.cap / 2
		off += wl.cap
	}
	s.wpool, s.wwasted = make([]watcher, off, int(off)+end), 0
	for _, db := range [2][]cref{s.clauses, s.learned} {
		for _, c := range db {
			s.attach(c)
		}
	}
}
