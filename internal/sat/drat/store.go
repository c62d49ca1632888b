package drat

import (
	"math/bits"

	"scadaver/internal/sat"
)

// The clause store (DESIGN.md §15, "In-process checking"). The checker
// keeps its clauses the way internal/sat's arena keeps the solver's: back
// to back in one flat, pointer-free slab of uint32 words, each named by
// its offset, so the garbage collector never scans the database and a
// Clone copies it with one copy.
//
// Layout of one clause at offset c:
//
//	c+0   header: size<<hdrSizeShift | hdrDeleted
//	c+1   hash chain: offset of the next clause in its index bucket (0 ends it)
//	c+2…  the size literals; the first two are the watched pair
//
// Word 0 of the slab is a reserved pad, so offset 0 means "no clause".
//
// The index finds the clause a ProofDelete names. It is a table of chain
// heads, one per bucket, keyed by an order-independent hash of the
// clause's literals; the chain runs through the clauses' own chain words.
// A deleted clause is unlinked from its chain, marked, and its words
// counted as waste. Once the waste passes half the slab, the live
// clauses move into a fresh slab and the chains and watch lists are
// rebuilt.

// Header layout and store limits.
const (
	hdrDeleted   = 1 << 0 // deleted: off its chain, watchers drop it lazily
	hdrSizeShift = 1
	clHeader     = 2 // header and chain words before the literals

	// slabLimit is the number of words a 32-bit offset can address.
	slabLimit = 1 << 32
	// minBuckets is the smallest index table.
	minBuckets = 64
)

// watcher is one watch-list entry: 8 bytes, no pointers. When blocker,
// another literal of the clause, is true the clause is satisfied and
// propagate skips it without reading the slab.
type watcher struct {
	c       uint32 // clause offset
	blocker uint32 // a literal of the clause other than the watched one
}

// litHash mixes one literal (splitmix64's finalizer).
func litHash(l sat.Lit) uint64 {
	x := uint64(l) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// clauseHash is the order-independent hash of a duplicate-free clause:
// the sum of its literals' mixes.
func clauseHash(lits []sat.Lit) uint64 {
	var h uint64
	for _, l := range lits {
		h += litHash(l)
	}
	return h
}

// slabHash is clauseHash of the stored clause at off.
func (c *Checker) slabHash(off uint32) uint64 {
	var h uint64
	for _, w := range c.lits(off) {
		h += litHash(sat.Lit(w))
	}
	return h
}

// bucket returns the index bucket of hash h.
func (c *Checker) bucket(h uint64) int { return int(h & uint64(len(c.buckets)-1)) }

func (c *Checker) size(off uint32) int { return int(c.mem[off] >> hdrSizeShift) }

// lits returns the stored clause's literal words, capacity-clipped.
// Writes go straight into the slab.
func (c *Checker) lits(off uint32) []uint32 {
	b := int(off) + clHeader
	e := b + c.size(off)
	return c.mem[b:e:e]
}

// store appends a normalized clause whose first two literals are the
// watched pair, links it into the index and watches it. It reports false
// when the slab has no room left for it.
func (c *Checker) store(lits []sat.Lit) bool {
	off := len(c.mem)
	if uint64(off)+uint64(clHeader+len(lits)) > slabLimit || len(lits) >= 1<<(32-hdrSizeShift) {
		return false
	}
	b := c.bucket(clauseHash(lits))
	c.mem = append(c.mem, uint32(len(lits))<<hdrSizeShift, c.buckets[b])
	for _, l := range lits {
		c.mem = append(c.mem, uint32(l))
	}
	c.buckets[b] = uint32(off)
	c.watches[lits[0]] = append(c.watches[lits[0]], watcher{uint32(off), uint32(lits[1])})
	c.watches[lits[1]] = append(c.watches[lits[1]], watcher{uint32(off), uint32(lits[0])})
	c.live++
	if c.live > len(c.buckets) {
		c.reindex()
	}
	return true
}

// find returns the offset of a live clause equal to norm, the duplicate-
// free clause normalize just stamped, by walking bucket b's chain, and
// the offset before it on the chain (0 if it heads the chain); off is 0
// if no clause matches.
func (c *Checker) find(b int, norm []sat.Lit) (off, prev uint32) {
	for off = c.buckets[b]; off != 0; prev, off = off, c.mem[off+1] {
		if c.size(off) != len(norm) {
			continue
		}
		same := true
		for _, w := range c.lits(off) {
			if c.stamps[w] != c.stamp {
				same = false
				break
			}
		}
		if same {
			return off, prev
		}
	}
	return 0, 0
}

// remove unlinks the clause at off from bucket b's chain (prev precedes
// it there) and marks it deleted; the slab compacts once deleted words
// pass half of it.
func (c *Checker) remove(b int, off, prev uint32) {
	next := c.mem[off+1]
	if prev == 0 {
		c.buckets[b] = next
	} else {
		c.mem[prev+1] = next
	}
	c.mem[off] |= hdrDeleted
	c.wasted += clHeader + c.size(off)
	c.live--
	if 2*c.wasted > len(c.mem) {
		c.mem = c.appendLive(make([]uint32, 1, len(c.mem)-c.wasted))
		c.wasted = 0
		c.reindex()
		c.rewatch()
	}
}

// appendLive appends the live clauses of the slab to dst, in slab order.
func (c *Checker) appendLive(dst []uint32) []uint32 {
	for off := 1; off < len(c.mem); {
		h := c.mem[off]
		end := off + clHeader + int(h>>hdrSizeShift)
		if h&hdrDeleted == 0 {
			dst = append(dst, c.mem[off:end]...)
		}
		off = end
	}
	return dst
}

// reindex sizes the index to the live clause count (a power of two, at
// least minBuckets) and rebuilds every chain from the slab.
func (c *Checker) reindex() {
	n := minBuckets
	if c.live > n {
		n = 1 << bits.Len(uint(c.live-1))
	}
	if len(c.buckets) == n {
		clear(c.buckets)
	} else {
		c.buckets = make([]uint32, n)
	}
	for off := 1; off < len(c.mem); {
		h := c.mem[off]
		if h&hdrDeleted == 0 {
			b := c.bucket(c.slabHash(uint32(off)))
			c.mem[off+1] = c.buckets[b]
			c.buckets[b] = uint32(off)
		}
		off += clHeader + int(h>>hdrSizeShift)
	}
}

// rewatch rebuilds every watch list from the live clauses' watched pairs,
// each clause's blocker the other watched literal, into one buffer: a
// list holds exactly its literal's watchers, capacity-clipped, so a list
// that outgrows its segment moves out of the buffer on its own.
func (c *Checker) rewatch() {
	count := make([]int32, len(c.watches))
	for off := 1; off < len(c.mem); {
		h := c.mem[off]
		if h&hdrDeleted == 0 {
			count[c.mem[off+clHeader]]++
			count[c.mem[off+clHeader+1]]++
		}
		off += clHeader + int(h>>hdrSizeShift)
	}
	pool := make([]watcher, 2*c.live)
	at := 0
	for l, n := range count {
		c.watches[l] = pool[at : at : at+int(n)]
		at += int(n)
	}
	for off := 1; off < len(c.mem); {
		h := c.mem[off]
		if h&hdrDeleted == 0 {
			l0, l1 := c.mem[off+clHeader], c.mem[off+clHeader+1]
			c.watches[l0] = append(c.watches[l0], watcher{uint32(off), l1})
			c.watches[l1] = append(c.watches[l1], watcher{uint32(off), l0})
		}
		off += clHeader + int(h>>hdrSizeShift)
	}
}
