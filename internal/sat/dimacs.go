package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF formula in DIMACS format into a fresh solver.
// The "p cnf" header is honored for pre-allocating variables; variables
// referenced beyond the header count are created on demand.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var pending []Lit
	lineNo := 0
	ensure := func(v int) {
		for s.NumVars() < v {
			s.NewVar()
		}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) >= 3 {
				if n, err := strconv.Atoi(fields[2]); err == nil {
					ensure(n)
				}
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dimacs line %d: bad token %q: %w", lineNo, tok, err)
			}
			if n == 0 {
				if err := s.AddClause(pending...); err != nil {
					return nil, fmt.Errorf("dimacs line %d: %w", lineNo, err)
				}
				pending = pending[:0]
				continue
			}
			v := n
			if v < 0 {
				v = -v
			}
			ensure(v)
			pending = append(pending, MkLit(Var(v-1), n < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs read: %w", err)
	}
	if len(pending) > 0 {
		if err := s.AddClause(pending...); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WriteDIMACS serializes the solver's problem clauses (not learned
// clauses) in DIMACS format.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(s.clauses)); err != nil {
		return err
	}
	for _, c := range s.clauses {
		for _, w := range s.ca.lits(c) {
			if _, err := bw.WriteString(Lit(w).String()); err != nil {
				return err
			}
			if err := bw.WriteByte(' '); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
