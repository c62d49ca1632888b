// Package logic provides the propositional modeling layer the SCADA
// verifier encodes its constraints in: a typed formula AST with Boolean
// connectives and cardinality atoms, a Tseitin transformation onto
// package sat, and sequential-counter encodings for the paper's counting
// constraints (failure budgets, unique-measurement counts, per-state
// measurement multiplicities). Asserted and assumed formulas are encoded
// in a positive context, where a cardinality atom that occurs only under
// And/Or gets a one-sided totalizer instead of the exact counter.
//
// This plays the role of the paper's "SMT logics" (Boolean and integer
// terms): all integer terms in the model are cardinalities of Boolean
// term sets, which AtMost/AtLeast capture exactly.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

type kind int

const (
	kindConst kind = iota + 1
	kindVar
	kindNot
	kindAnd
	kindOr
	kindAtMost
	kindAtLeast
)

// Formula is an immutable propositional formula. Construct with the
// package-level constructors (V, Not, And, Or, Implies, Iff, True,
// False, AtMost, AtLeast, Exactly). Formulas form a DAG: shared
// subformulas are encoded once.
type Formula struct {
	kind kind
	b    bool   // kindConst
	name string // kindVar
	kids []*Formula
	k    int // cardinality bound
	// posCard: f is a cardinality atom, or an And/Or with a kid that
	// has posCard. Encoder.Implying encodes exactly these one-sided.
	posCard bool
}

var (
	trueFormula  = &Formula{kind: kindConst, b: true}
	falseFormula = &Formula{kind: kindConst, b: false}
)

// True is the constant true formula.
func True() *Formula { return trueFormula }

// False is the constant false formula.
func False() *Formula { return falseFormula }

// Const returns the constant formula with value b.
func Const(b bool) *Formula {
	if b {
		return trueFormula
	}
	return falseFormula
}

// V returns the propositional variable with the given name. Two V calls
// with the same name denote the same variable.
func V(name string) *Formula { return &Formula{kind: kindVar, name: name} }

// Vf returns a variable whose name is built printf-style, convenient for
// indexed families like Node_i or D_Z.
func Vf(format string, args ...any) *Formula {
	return V(fmt.Sprintf(format, args...))
}

// Not returns the negation of f, folding constants and double negation.
func Not(f *Formula) *Formula {
	switch f.kind {
	case kindConst:
		return Const(!f.b)
	case kindNot:
		return f.kids[0]
	}
	return &Formula{kind: kindNot, kids: []*Formula{f}}
}

// And returns the conjunction of fs, folding constants. And() is True.
func And(fs ...*Formula) *Formula {
	kids := make([]*Formula, 0, len(fs))
	for _, f := range fs {
		if f.kind == kindConst {
			if !f.b {
				return falseFormula
			}
			continue
		}
		kids = append(kids, f)
	}
	switch len(kids) {
	case 0:
		return trueFormula
	case 1:
		return kids[0]
	}
	return &Formula{kind: kindAnd, kids: kids, posCard: anyPosCard(kids)}
}

// Or returns the disjunction of fs, folding constants. Or() is False.
func Or(fs ...*Formula) *Formula {
	kids := make([]*Formula, 0, len(fs))
	for _, f := range fs {
		if f.kind == kindConst {
			if f.b {
				return trueFormula
			}
			continue
		}
		kids = append(kids, f)
	}
	switch len(kids) {
	case 0:
		return falseFormula
	case 1:
		return kids[0]
	}
	return &Formula{kind: kindOr, kids: kids, posCard: anyPosCard(kids)}
}

func anyPosCard(fs []*Formula) bool {
	for _, f := range fs {
		if f.posCard {
			return true
		}
	}
	return false
}

// Implies returns a -> b.
func Implies(a, b *Formula) *Formula { return Or(Not(a), b) }

// Iff returns a <-> b.
func Iff(a, b *Formula) *Formula {
	return And(Or(Not(a), b), Or(Not(b), a))
}

// AtMost returns the cardinality atom "at most k of fs are true".
func AtMost(k int, fs ...*Formula) *Formula {
	if k < 0 {
		return falseFormula
	}
	if k >= len(fs) {
		return trueFormula
	}
	return &Formula{kind: kindAtMost, k: k, kids: append([]*Formula(nil), fs...), posCard: true}
}

// AtLeast returns the cardinality atom "at least k of fs are true".
func AtLeast(k int, fs ...*Formula) *Formula {
	if k <= 0 {
		return trueFormula
	}
	if k > len(fs) {
		return falseFormula
	}
	return &Formula{kind: kindAtLeast, k: k, kids: append([]*Formula(nil), fs...), posCard: true}
}

// Exactly returns the cardinality constraint "exactly k of fs are true".
func Exactly(k int, fs ...*Formula) *Formula {
	return And(AtMost(k, fs...), AtLeast(k, fs...))
}

// Vars returns the sorted set of variable names occurring in f.
func (f *Formula) Vars() []string {
	seen := map[string]bool{}
	var walk func(g *Formula)
	walk = func(g *Formula) {
		if g.kind == kindVar {
			seen[g.name] = true
		}
		for _, k := range g.kids {
			walk(k)
		}
	}
	walk(f)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Eval evaluates f under the given assignment; variables absent from the
// assignment evaluate to false.
func (f *Formula) Eval(assignment map[string]bool) bool {
	switch f.kind {
	case kindConst:
		return f.b
	case kindVar:
		return assignment[f.name]
	case kindNot:
		return !f.kids[0].Eval(assignment)
	case kindAnd:
		for _, k := range f.kids {
			if !k.Eval(assignment) {
				return false
			}
		}
		return true
	case kindOr:
		for _, k := range f.kids {
			if k.Eval(assignment) {
				return true
			}
		}
		return false
	case kindAtMost, kindAtLeast:
		n := 0
		for _, k := range f.kids {
			if k.Eval(assignment) {
				n++
			}
		}
		if f.kind == kindAtMost {
			return n <= f.k
		}
		return n >= f.k
	}
	return false
}

// Satisfies evaluates f strictly under m. Unlike Eval, a variable of f
// that m leaves unassigned is an error naming it, not false. The walk
// visits every node of f exactly once: shared subformulas are evaluated
// once, and no connective short-circuits, so every variable of f is
// checked against m whatever the outcome.
func (m Model) Satisfies(f *Formula) (bool, error) {
	memo := make(map[*Formula]bool)
	var eval func(g *Formula) (bool, error)
	eval = func(g *Formula) (bool, error) {
		switch g.kind {
		case kindConst:
			return g.b, nil
		case kindVar:
			v, ok := m[g.name]
			if !ok {
				return false, fmt.Errorf("logic: variable %s is not in the model", g.name)
			}
			return v, nil
		}
		if v, ok := memo[g]; ok {
			return v, nil
		}
		n := 0
		for _, k := range g.kids {
			v, err := eval(k)
			if err != nil {
				return false, err
			}
			if v {
				n++
			}
		}
		var v bool
		switch g.kind {
		case kindNot:
			v = n == 0
		case kindAnd:
			v = n == len(g.kids)
		case kindOr:
			v = n > 0
		case kindAtMost:
			v = n <= g.k
		case kindAtLeast:
			v = n >= g.k
		default:
			panic("logic: unknown formula kind")
		}
		memo[g] = v
		return v, nil
	}
	return eval(f)
}

// String renders the formula in a Lisp-like prefix form.
func (f *Formula) String() string {
	var sb strings.Builder
	f.write(&sb)
	return sb.String()
}

func (f *Formula) write(sb *strings.Builder) {
	switch f.kind {
	case kindConst:
		if f.b {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case kindVar:
		sb.WriteString(f.name)
	case kindNot:
		sb.WriteString("(not ")
		f.kids[0].write(sb)
		sb.WriteByte(')')
	case kindAnd, kindOr, kindAtMost, kindAtLeast:
		switch f.kind {
		case kindAnd:
			sb.WriteString("(and")
		case kindOr:
			sb.WriteString("(or")
		case kindAtMost:
			fmt.Fprintf(sb, "(atmost %d", f.k)
		case kindAtLeast:
			fmt.Fprintf(sb, "(atleast %d", f.k)
		}
		for _, k := range f.kids {
			sb.WriteByte(' ')
			k.write(sb)
		}
		sb.WriteByte(')')
	}
}
