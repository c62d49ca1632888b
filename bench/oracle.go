package main

import (
	"errors"
	"fmt"
	"sort"

	"scadaver/internal/baseline"
	"scadaver/internal/core"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
)

// exhaustiveLimit bounds the failure sets the oracle enumerates to
// confirm an unsat verdict with no recorded answer. IEEE-57 at k = 1 is
// about 180 sets (under a second); (1,1) splits there are over 6000.
const exhaustiveLimit = 2000

var (
	// errMismatch marks a verdict the oracle proved wrong.
	errMismatch = errors.New("oracle mismatch")
	// errUnverified marks a verdict the oracle has no means to check.
	errUnverified = errors.New("oracle cannot check")
)

// oracle checks verdicts without the SAT path. A sat verdict's witness
// must fit the budget and violate the property under internal/baseline's
// BFS reachability. An unsat verdict must match the recorded answer in
// testdata/expected.json or, when the failure space is small, survive
// baseline.FindViolation over every (k1, k2) split. Checks are memoized
// per (configuration state, query, verdict, witness).
type oracle struct {
	table map[string]expectedConfig // by fingerprint
	// acceptUnverified lets an unsat verdict with neither a recorded
	// answer nor a small failure space pass (recording: the recorder
	// certifies those by DRAT proof instead).
	acceptUnverified bool

	checkers map[string]*baseline.Checker
	memo     map[string]error

	checked, witnesses, expected, exhaustive, mismatches int
}

func newOracle(table map[string]expectedConfig) *oracle {
	return &oracle{table: table, checkers: map[string]*baseline.Checker{}, memo: map[string]error{}}
}

func (o *oracle) checker(in *input) *baseline.Checker {
	c := o.checkers[in.fp]
	if c == nil {
		c = baseline.New(in.cfg, nil)
		o.checkers[in.fp] = c
	}
	return c
}

// verdict checks res, the answer to q, against the configuration states
// that could have served it (one state outside serve-mutate); any state
// under which the verdict is right accepts it.
func (o *oracle) verdict(states []*input, q core.Query, res *core.Result) error {
	o.checked++
	if res.Status == sat.Unsolved {
		return fmt.Errorf("%v unsolved: %s", q, res.FailureReason)
	}
	var first error
	for _, st := range states {
		err := o.check(st, q, res.Status, res.Vector)
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	if first == nil {
		first = fmt.Errorf("%w: %v: no configuration state to check against", errUnverified, q)
	}
	if errors.Is(first, errMismatch) {
		o.mismatches++
	}
	return first
}

func (o *oracle) check(in *input, q core.Query, status sat.Status, v *core.ThreatVector) error {
	key := fmt.Sprintf("%s|%v|%v|%v", in.fp, q, status, v)
	if err, ok := o.memo[key]; ok {
		return err
	}
	err := o.checkUncached(in, q, status, v)
	o.memo[key] = err
	return err
}

func (o *oracle) checkUncached(in *input, q core.Query, status sat.Status, v *core.ThreatVector) error {
	if status == sat.Sat {
		o.witnesses++
		if err := o.witness(in, q, v); err != nil {
			return fmt.Errorf("%w: %s %v: sat witness %v: %v", errMismatch, in.name, q, v, err)
		}
	}
	if want, ok := o.table[in.fp].Verdicts[q.String()]; ok {
		o.expected++
		if want != status.String() {
			return fmt.Errorf("%w: %s %v: verdict %v, recorded %s", errMismatch, in.name, q, status, want)
		}
		return nil
	}
	if status == sat.Sat {
		return nil // the witness proves it
	}
	if space := searchSpace(o.checker(in), q); space > exhaustiveLimit {
		if o.acceptUnverified {
			return nil
		}
		return fmt.Errorf("%w: %s %v: unsat with no recorded verdict and %.0f failure sets", errUnverified, in.name, q, space)
	}
	o.exhaustive++
	if found := findViolation(o.checker(in), q); found != nil {
		return fmt.Errorf("%w: %s %v: unsat, but failing %v violates it", errMismatch, in.name, q, found)
	}
	return nil
}

// boundary checks a MaxResiliencyCombined answer against the recorded k*
// when there is one; the verdicts at k* and k*+1 are checked separately,
// which alone pins k* down where nothing is recorded.
func (o *oracle) boundary(in *input, p core.Property, k int) error {
	want, ok := o.table[in.fp].Boundary[p.String()]
	if !ok || want == k {
		return nil
	}
	o.mismatches++
	return fmt.Errorf("%w: %s %v: max resiliency %d, recorded %d", errMismatch, in.name, p, k, want)
}

// holds is the property q asks about, evaluated by the baseline.
func holds(c *baseline.Checker, q core.Query) baseline.PropertyFn {
	switch q.Property {
	case core.SecuredObservability:
		return func(down map[scadanet.DeviceID]bool) bool { return c.Observable(down, true) }
	case core.BadDataDetectability:
		return func(down map[scadanet.DeviceID]bool) bool { return c.BadDataDetectable(down, q.R) }
	default:
		return func(down map[scadanet.DeviceID]bool) bool { return c.Observable(down, false) }
	}
}

// splits lists the (IED, RTU) failure budgets a query allows.
func splits(q core.Query) [][2]int {
	if !q.Combined {
		return [][2]int{{q.K1, q.K2}}
	}
	out := make([][2]int, 0, q.K+1)
	for a := 0; a <= q.K; a++ {
		out = append(out, [2]int{a, q.K - a})
	}
	return out
}

func searchSpace(c *baseline.Checker, q core.Query) float64 {
	var n float64
	for _, s := range splits(q) {
		n += c.SearchSpace(s[0], s[1])
	}
	return n
}

func findViolation(c *baseline.Checker, q core.Query) []scadanet.DeviceID {
	for _, s := range splits(q) {
		if v := c.FindViolation(s[0], s[1], holds(c, q)); v != nil {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
			return v
		}
	}
	return nil
}

// witness checks that v fits q's budget, names field devices of the
// right kind, and violates the property.
func (o *oracle) witness(in *input, q core.Query, v *core.ThreatVector) error {
	if v == nil {
		return errors.New("missing")
	}
	if len(v.Links) > q.KL {
		return fmt.Errorf("%d link failures over budget %d", len(v.Links), q.KL)
	}
	if q.Combined && len(v.IEDs)+len(v.RTUs) > q.K || !q.Combined && (len(v.IEDs) > q.K1 || len(v.RTUs) > q.K2) {
		return errors.New("over the failure budget")
	}
	down := map[scadanet.DeviceID]bool{}
	for _, ids := range []struct {
		kind scadanet.DeviceKind
		ids  []scadanet.DeviceID
	}{{scadanet.IED, v.IEDs}, {scadanet.RTU, v.RTUs}} {
		for _, id := range ids.ids {
			d := in.cfg.Net.Device(id)
			if d == nil || d.Kind != ids.kind {
				return fmt.Errorf("device %d is not an %v", id, ids.kind)
			}
			down[id] = true
		}
	}
	if holds(o.checker(in), q)(down) {
		return errors.New("the property still holds under it")
	}
	return nil
}

func (o *oracle) summary() string {
	return fmt.Sprintf("oracle: %d verdicts checked (%d witnesses, %d recorded, %d exhaustive), %d mismatches",
		o.checked, o.witnesses, o.expected, o.exhaustive, o.mismatches)
}
