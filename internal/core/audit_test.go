package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/logic"
	"scadaver/internal/sat"
)

// TestAuditEvalMatchesPristineSolve holds the Sat audit's model check
// (evaluation of the query's formulas) to the reference it replaced: a
// pristine re-encode of the query solved under the model as unit
// assumptions. On case5 and IEEE-14, for every k-sweep and delta-cache
// query shape (link budgets included), both must reach the same answer
// on every Sat model the solver returns — fresh, presimplified, from a
// plain snapshot and from a delta snapshot — and on seeded random full
// assignments of the query's variables drawn around such a model.
func TestAuditEvalMatchesPristineSolve(t *testing.T) {
	shapes := append(experiments.SweepQueries(2), core.DeltaQueries()...)
	assignments := 200
	if testing.Short() {
		assignments = 40
	}
	for _, sys := range case5AndIEEE14(t) {
		t.Run(sys.name, func(t *testing.T) {
			ref, err := core.NewAnalyzer(sys.cfg)
			if err != nil {
				t.Fatal(err)
			}
			solvers := []*core.Analyzer{ref}
			for _, opts := range [][]core.Option{
				{core.WithPresimplify(true)},
				{core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache())},
				{core.WithPresimplify(true), core.WithEncodingCache(core.NewEncodingCache(core.CacheWithDelta()))},
			} {
				a, err := core.NewAnalyzer(sys.cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				solvers = append(solvers, a)
			}
			rng := rand.New(rand.NewSource(7))
			accepted, rejected := 0, 0
			for _, q := range shapes {
				pristine := ref.PristineEncoding(q)
				var models []logic.Model
				for _, a := range solvers {
					enc, _, err := a.SatEncoder(q)
					if err != nil {
						t.Fatal(err)
					}
					if enc != nil {
						models = append(models, enc.Model())
					}
				}
				for i, m := range models {
					if err := ref.AuditModel(q, m); err != nil {
						t.Errorf("%v: solver model %d rejected: %v", q, i, err)
					}
					if err := pristineAudit(pristine, m); err != nil {
						t.Errorf("%v: solver model %d rejected by the reference: %v", q, i, err)
					}
				}

				var names []string
				for name := range pristine.Model() {
					names = append(names, name)
				}
				sort.Strings(names)
				base := logic.Model{}
				if len(models) > 0 {
					base = models[0]
				}
				for i := 0; i < assignments; i++ {
					m := make(logic.Model, len(names))
					p := []float64{0.01, 0.05, 0.2, 0.5}[i%4]
					for _, name := range names {
						m[name] = base[name]
						if (i%8 < 4 || strings.HasPrefix(name, "Node_")) && rng.Float64() < p {
							m[name] = !m[name]
						}
					}
					evalErr := ref.AuditModel(q, m)
					refErr := pristineAudit(pristine, m)
					if (evalErr == nil) != (refErr == nil) {
						t.Fatalf("%v: assignment %d: evaluation says %v, pristine solve says %v", q, i, evalErr, refErr)
					}
					if evalErr == nil {
						accepted++
					} else {
						rejected++
					}
				}
			}
			if accepted == 0 || rejected == 0 {
				t.Fatalf("random assignments one-sided: %d accepted, %d rejected", accepted, rejected)
			}
			t.Logf("random assignments: %d accepted, %d rejected", accepted, rejected)
		})
	}
}

// pristineAudit is the reference the Sat audit's evaluation is held to,
// a re-solve instead of an evaluation: model, as unit assumptions, must
// leave the pristine encoding of the query (Analyzer.PristineEncoding)
// satisfiable. Each call solves a clone of pristine, so one encoding
// serves many models and every solve starts from the unsolved CNF.
func pristineAudit(pristine *logic.Encoder, model logic.Model) error {
	names := make([]string, 0, len(model))
	for name := range model {
		names = append(names, name)
	}
	sort.Strings(names)
	assumptions := make([]*logic.Formula, 0, len(names))
	for _, name := range names {
		t := logic.V(name)
		if !model[name] {
			t = logic.Not(t)
		}
		assumptions = append(assumptions, t)
	}
	if st := pristine.Clone().Solve(assumptions...); st != sat.Sat {
		return fmt.Errorf("pristine re-encode is %v under the model", st)
	}
	return nil
}
