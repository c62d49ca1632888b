package drat

import "scadaver/internal/sat"

// Log records a proof stream so it can be checked later, and only if a
// verdict needs it. A solve then pays to record its proof, and only a
// verdict that rests on the proof pays to check it — for the solver, an
// Unsat one. This is drat-trim's principle: a proof has to be checked
// only where a verdict rests on it.
//
// Log implements sat.ProofWriter. The steps lie back to back in one
// pointer-free int32 slice, a header word (length<<2 | op) followed by
// the literals, so the garbage collector never scans a log however long
// it grows.
//
// Drain replays the pending steps, in order, into a writer (a Checker,
// typically) and empties the log. Steps logged after a Drain are
// pending until the next one, so a writer drained into every time gets
// the whole stream exactly once, in order. A Log is not safe for
// concurrent use.
type Log struct {
	buf     []int32
	adds    int
	maxLit  sat.Lit // the largest literal logged
	scratch []sat.Lit
}

// logOpBits is the number of header bits holding the op.
const logOpBits = 2

// Step implements sat.ProofWriter.
func (l *Log) Step(op sat.ProofOp, lits []sat.Lit) {
	l.buf = append(l.buf, int32(len(lits))<<logOpBits|int32(op))
	for _, x := range lits {
		l.buf = append(l.buf, int32(x))
		l.maxLit = max(l.maxLit, x)
	}
	if op == sat.ProofAdd {
		l.adds++
	}
}

// Additions returns the number of ProofAdd steps ever logged, drained
// or not: the size of the recorded derivation.
func (l *Log) Additions() int { return l.adds }

// Room returns the room a checker needs to take the pending steps
// without growing: its per-literal arrays must reach every literal
// logged, and each stored clause of n >= 2 literals takes clHeader+n
// slab words for the log's 1+n, at most 4/3 as many.
func (l *Log) Room() Room {
	return Room{Lits: int(l.maxLit|1) + 1, Words: len(l.buf) + len(l.buf)/3}
}

// Drain replays the pending steps into w in the order they were logged,
// empties the log, and returns the number of steps replayed. The
// literal slice w receives is reused between steps, as the solver's is.
func (l *Log) Drain(w sat.ProofWriter) int {
	buf, steps := l.buf, 0
	for i := 0; i < len(buf); steps++ {
		h := buf[i]
		size := int(h >> logOpBits)
		lits := l.scratch[:0]
		for _, x := range buf[i+1 : i+1+size] {
			lits = append(lits, sat.Lit(x))
		}
		l.scratch = lits
		w.Step(sat.ProofOp(h&(1<<logOpBits-1)), lits)
		i += 1 + size
	}
	l.buf = l.buf[:0]
	return steps
}
