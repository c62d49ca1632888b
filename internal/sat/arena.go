package sat

import "math"

// The clause store (DESIGN.md §11, "The clause store"). Every clause
// lives in one flat, pointer-free slab of uint32 words, back to back,
// and is named by a cref: its offset in the slab. Watchers, reasons and
// the clause lists hold crefs, so the garbage collector never scans the
// clause database and storing a clause reference runs no write barrier.
// This is MiniSat's ClauseAllocator (Eén & Sörensson 2003) in Go.
//
// Layout of one clause of n literals at offset c:
//
//	c+0       header: n<<clSizeShift | flag bits
//	c+1…c+n   the literals
//	c+n+1     LBD                                  (learned clauses only)
//	c+n+2     activity, low 32 bits of its float64 (learned clauses only)
//	c+n+3     activity, high 32 bits               (learned clauses only)
//
// Propagation reads only the header and the literals, so a problem
// clause is one word plus its literals (a ternary one fits in four
// words), and the clMeta words that reduction ranks learned clauses by
// sit behind the literals, out of the propagation loop's way.
//
// Word 0 of the slab is a reserved pad, so the zero cref means "no
// clause" (decisions and root facts have reason 0).
//
// A clause is never freed on its own. Deleting one (database reduction,
// ReduceRoot) drops it from its list and counts its words as wasted;
// shrinking one in place (ReduceRoot) moves a learned clause's metadata
// down behind its new last literal and counts the cut words. Once the
// wasted words pass a fixed share of the slab, compact copies the live
// clauses into a fresh slab and relocates every cref.

// cref names a clause by its word offset in the clause arena.
type cref uint32

// Header flag bits and layout constants.
const (
	clLearned   = 1 << 0 // learned (redundant) clause: carries clMeta words
	clDeleted   = 1 << 1 // deleted; watchers skip it, lists may still hold it
	clRelocated = 1 << 2 // set during compaction: word 1 holds the new cref
	clSizeShift = 3
	clHeader    = 1 // header words before the literals
	clMeta      = 3 // LBD and activity words after a learned clause's literals

	// arenaLimit is the number of words a 32-bit cref can address.
	arenaLimit = 1 << 32
	// clMaxSize is the longest clause the header's size field can hold.
	clMaxSize = 1<<(32-clSizeShift) - 1
)

// clauseArena is the slab plus its waste count.
type clauseArena struct {
	mem    []uint32
	wasted int // words of dropped clauses and cut tails
}

// clauseWords is the number of arena words a clause of n literals takes.
func clauseWords(n int, learned bool) int {
	if learned {
		return clHeader + n + clMeta
	}
	return clHeader + n
}

// fits reports whether a slab of used words can take a clause of n
// literals without outgrowing what a cref addresses.
func fits(used uint64, n int, learned bool) bool {
	return n <= clMaxSize && used+1+uint64(clauseWords(n, learned)) <= arenaLimit
}

// room reports whether the arena can take a clause of n literals.
func (a *clauseArena) room(n int, learned bool) bool {
	return fits(uint64(len(a.mem)), n, learned)
}

// alloc appends a clause over lits and returns its cref; a learned
// clause starts with LBD 0 and activity 0. AddClause refuses input the
// arena has no room for, so running out here means learned clauses
// alone filled 2^32 words; a wrapped offset would corrupt the database
// silently, so alloc panics instead.
func (a *clauseArena) alloc(lits []Lit, learned bool) cref {
	if !a.room(len(lits), learned) {
		panic("sat: clause arena exceeds 2^32 words")
	}
	if len(a.mem) == 0 {
		a.mem = append(a.mem, 0) // the pad word behind cref 0
	}
	c := cref(len(a.mem))
	h := uint32(len(lits)) << clSizeShift
	if learned {
		h |= clLearned
	}
	a.mem = append(a.mem, h)
	for _, l := range lits {
		a.mem = append(a.mem, uint32(l))
	}
	if learned {
		a.mem = append(a.mem, 0, 0, 0)
	}
	return c
}

func (a *clauseArena) size(c cref) int       { return int(a.mem[c] >> clSizeShift) }
func (a *clauseArena) learned(c cref) bool   { return a.mem[c]&clLearned != 0 }
func (a *clauseArena) words(c cref) int      { return clauseWords(a.size(c), a.learned(c)) }
func (a *clauseArena) deleted(c cref) bool   { return a.mem[c]&clDeleted != 0 }
func (a *clauseArena) markDeleted(c cref)    { a.mem[c] |= clDeleted }
func (a *clauseArena) lit(c cref, i int) Lit { return Lit(a.mem[int(c)+clHeader+i]) }

// meta returns the offset of a learned clause's first metadata word.
func (a *clauseArena) meta(c cref) int { return int(c) + clHeader + a.size(c) }

func (a *clauseArena) lbd(c cref) int32       { return int32(a.mem[a.meta(c)]) }
func (a *clauseArena) setLBD(c cref, v int32) { a.mem[a.meta(c)] = uint32(v) }

// lits returns the clause's literal words, capacity-clipped. Writes go
// straight into the arena.
func (a *clauseArena) lits(c cref) []uint32 {
	b := int(c) + clHeader
	e := b + a.size(c)
	return a.mem[b:e:e]
}

func (a *clauseArena) act(c cref) float64 {
	m := a.meta(c)
	return math.Float64frombits(uint64(a.mem[m+1]) | uint64(a.mem[m+2])<<32)
}

func (a *clauseArena) setAct(c cref, v float64) {
	m, b := a.meta(c), math.Float64bits(v)
	a.mem[m+1], a.mem[m+2] = uint32(b), uint32(b>>32)
}

// shrink lowers the clause's size to n, keeping its first n literals
// and, for a learned clause, its metadata, which moves down behind the
// new last literal; the cut words become waste.
func (a *clauseArena) shrink(c cref, n int) {
	old := a.size(c)
	if a.learned(c) {
		m := a.meta(c)
		copy(a.mem[m-(old-n):], a.mem[m:m+clMeta])
	}
	a.wasted += old - n
	a.mem[c] = uint32(n)<<clSizeShift | a.mem[c]&(1<<clSizeShift-1)
}

// drop counts a clause that left every list as waste.
func (a *clauseArena) drop(c cref) { a.wasted += a.words(c) }

// appendLits appends the clause's literals to dst.
func (a *clauseArena) appendLits(dst []Lit, c cref) []Lit {
	for _, w := range a.lits(c) {
		dst = append(dst, Lit(w))
	}
	return dst
}

// arenaGarbageShare is the share of the slab that may be waste before
// compaction: above it the slab holds more than 4/3 of its live words.
const arenaGarbageShare = 4

// maybeCompact compacts the arena once its waste passes the share.
func (s *Solver) maybeCompact() {
	if arenaGarbageShare*s.ca.wasted > len(s.ca.mem) {
		s.compact()
	}
}

// compact copies every listed clause into a fresh, exactly sized slab
// and relocates the crefs held by the clause lists, the watchers and
// the reasons of assigned variables. Lists keep their order and
// watchers their positions, and clauses keep their literal order, so
// the search cannot tell the difference. Deleted clauses still on a
// list move with it; every other clause must be off the watch lists
// already (reduceDB calls this after cleanWatches).
func (s *Solver) compact() {
	old := s.ca.mem
	to := make([]uint32, 1, len(old)-s.ca.wasted)
	reloc := func(c cref) cref {
		h := old[c]
		if h&clRelocated != 0 {
			return cref(old[c+1])
		}
		n := cref(len(to))
		to = append(to, old[c:int(c)+clauseWords(int(h>>clSizeShift), h&clLearned != 0)]...)
		old[c] = h | clRelocated
		old[c+1] = uint32(n)
		return n
	}
	for i, c := range s.clauses {
		s.clauses[i] = reloc(c)
	}
	for i, c := range s.learned {
		s.learned[i] = reloc(c)
	}
	for l := range s.wl {
		ws := s.watchesOf(Lit(l))
		for i := range ws {
			ws[i].c = reloc(ws[i].c)
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != 0 {
			s.reason[l.Var()] = reloc(r)
		}
	}
	s.ca = clauseArena{mem: to}
}
