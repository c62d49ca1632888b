package core

import (
	"encoding/json"
	"fmt"
)

// Sweep verifies a family of queries that differ only in their failure
// budget over one structure: a property with a fixed corrupted-
// measurement budget r and link budget kl. Every budget is one Verify,
// so it clones the structure's cached snapshot — encoded and, under
// presimplify, simplified once for the whole family — and solves with
// only its own budget on the clone. A budget's verdict, witness and
// Result.Stats are therefore exactly those of Verify on the same
// query, whichever order the budgets are asked in.
//
// A Sweep borrows its Analyzer and is subject to the same ownership
// rule: one goroutine at a time (see Runner).
type Sweep struct {
	a     *Analyzer
	probe Query // the structure: property, R and KL
}

// NewSweep prepares the verification of the property — with the fixed
// corrupted-measurement budget r and link budget kl — under varying
// device-failure budgets.
func (a *Analyzer) NewSweep(p Property, r, kl int) (*Sweep, error) {
	probe := Query{Property: p, Combined: true, R: r, KL: kl}
	if err := validateQuery(probe); err != nil {
		return nil, err
	}
	return &Sweep{a: a, probe: probe}, nil
}

// VerifyK verifies the combined-budget query with at most k device
// failures.
func (s *Sweep) VerifyK(k int) (*Result, error) {
	q := s.probe
	q.K = k
	return s.a.Verify(q)
}

// VerifySplit verifies the split-budget query with at most k1 IED and
// k2 RTU failures.
func (s *Sweep) VerifySplit(k1, k2 int) (*Result, error) {
	q := s.probe
	q.Combined, q.K1, q.K2 = false, k1, k2
	return s.a.Verify(q)
}

// VerifyRange verifies the combined budgets k = 0..maxK serially,
// checkpointing each finished budget to ck (kind CheckpointKindCampaign,
// entries keyed by k) and skipping budgets a prior interrupted run
// already decided. Entries match the
// Runner.VerifyAllResumable shape, so a sweep checkpoint taken serially
// resumes on a parallel campaign over the same query list and vice
// versa. A nil ck disables checkpointing.
func (s *Sweep) VerifyRange(maxK int, ck *Checkpoint) ([]*Result, error) {
	results := make([]*Result, maxK+1)
	for n, raw := range ck.Entries() {
		var e campaignEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("checkpoint entry %d: %w", n, err)
		}
		if e.Index < 0 || e.Index > maxK || e.Result == nil {
			return nil, fmt.Errorf("checkpoint entry %d: budget %d out of range [0,%d]", n, e.Index, maxK)
		}
		results[e.Index] = e.Result
	}
	for k := 0; k <= maxK; k++ {
		if results[k] != nil {
			continue
		}
		res, err := s.VerifyK(k)
		if err != nil {
			return nil, err
		}
		results[k] = res
		if cerr := ck.Add(campaignEntry{Index: k, Result: res}); cerr != nil {
			s.a.metrics.Inc("scadaver_checkpoint_errors_total", nil)
		}
	}
	return results, nil
}
