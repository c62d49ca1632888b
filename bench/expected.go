package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/experiments"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
)

//go:embed testdata/expected.json
var expectedJSON []byte

const expectedSchema = "scadaver-bench-expected/1"

// expectedFile is testdata/expected.json: the recorded verdict of every
// query the full-scale workloads ask, per configuration state, keyed by
// the state's canonical-text fingerprint.
type expectedFile struct {
	Schema  string           `json:"schema"`
	Note    string           `json:"note"`
	Configs []expectedConfig `json:"configs"`
}

type expectedConfig struct {
	Name        string            `json:"name"`
	Fingerprint string            `json:"fingerprint"`
	Boundary    map[string]int    `json:"boundary,omitempty"` // property → max combined resiliency k*
	Verdicts    map[string]string `json:"verdicts"`           // query → "sat" | "unsat"
}

func loadExpected() (map[string]expectedConfig, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	if f.Schema != expectedSchema {
		return nil, fmt.Errorf("testdata/expected.json: schema %q, want %q", f.Schema, expectedSchema)
	}
	table := make(map[string]expectedConfig, len(f.Configs))
	for _, c := range f.Configs {
		table[c.Fingerprint] = c
	}
	return table, nil
}

// recordExpected recomputes testdata/expected.json for a scale: every
// configuration state the workloads visit, every query they ask, each
// answered by a certified solve (DRAT-checked unsat, audited sat) and
// cross-checked by the oracle's baseline checks wherever those reach;
// for the boundary pool also k*, found as the last certified unsat
// budget before the first sat one.
func recordExpected(path string, sc scale, log io.Writer) error {
	o := newOracle(nil)
	o.acceptUnverified = true
	workers := runtime.NumCPU()
	var out []expectedConfig
	byFP := map[string]int{}

	verify := func(in *input, queries []core.Query) error {
		i, ok := byFP[in.fp]
		if !ok {
			i = len(out)
			byFP[in.fp] = i
			out = append(out, expectedConfig{Name: in.name, Fingerprint: in.fp, Verdicts: map[string]string{}})
		}
		var todo []core.Query
		for _, q := range queries {
			if _, done := out[i].Verdicts[q.String()]; !done {
				todo = append(todo, q)
			}
		}
		if len(todo) == 0 {
			return nil
		}
		t0 := time.Now()
		r := core.NewRunner(workers, core.WithCertification(true))
		results, err := r.VerifyAll(context.Background(), in.cfg, todo)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		for j, res := range results {
			if !res.Certified || res.Quarantined {
				return fmt.Errorf("%s %v: not certified cleanly: %s", in.name, todo[j], res.CertifyError)
			}
			if err := o.verdict([]*input{in}, todo[j], res); err != nil {
				return err
			}
			out[i].Verdicts[todo[j].String()] = res.Status.String()
		}
		fmt.Fprintf(log, "%s: %d queries in %v\n", in.name, len(todo), time.Since(t0).Round(time.Millisecond))
		return nil
	}

	load := func(p pool) ([]*input, error) {
		cfgs, _, err := loadPool(p)
		if err != nil {
			return nil, err
		}
		return inputs(p, cfgs)
	}

	campaign, err := load(sc.campaign)
	if err != nil {
		return err
	}
	for _, in := range campaign {
		if err := verify(in, experiments.SweepQueries(sc.maxK)); err != nil {
			return err
		}
	}
	certify, err := load(sc.certify)
	if err != nil {
		return err
	}
	for _, in := range certify {
		if err := verify(in, experiments.SweepQueries(sc.maxK)); err != nil {
			return err
		}
	}

	// serve-mutate: the base state and the state after each patch; every
	// revert must restore the base exactly.
	served, err := load(sc.serve)
	if err != nil {
		return err
	}
	base := served[0]
	shapes := serveShapes(sc.maxK)
	if err := verify(base, shapes); err != nil {
		return err
	}
	for _, pair := range patchPairs(base.cfg) {
		next, _, err := base.cfg.Apply(pair.apply)
		if err != nil {
			return fmt.Errorf("patch %s: %w", pair.apply, err)
		}
		in, err := newInput(fmt.Sprintf("%s+%s", base.name, pair.apply), next)
		if err != nil {
			return err
		}
		back, _, err := next.Apply(pair.revert)
		if err != nil {
			return fmt.Errorf("patch %s: %w", pair.revert, err)
		}
		if fp, err := fingerprint(back); err != nil || fp != base.fp {
			return fmt.Errorf("patch pair %s / %s does not restore the base configuration", pair.apply, pair.revert)
		}
		if err := verify(in, shapes); err != nil {
			return err
		}
	}

	bounds, err := load(sc.boundary)
	if err != nil {
		return err
	}
	for _, in := range bounds {
		devices := len(in.cfg.Net.DevicesOfKind(scadanet.IED)) + len(in.cfg.Net.DevicesOfKind(scadanet.RTU))
		k := 0
		for ; k <= devices; k++ {
			q := core.Query{Property: core.Observability, Combined: true, K: k, R: in.cfg.R}
			if err := verify(in, []core.Query{q}); err != nil {
				return err
			}
			if out[byFP[in.fp]].Verdicts[q.String()] == sat.Sat.String() {
				break
			}
		}
		out[byFP[in.fp]].Boundary = map[string]int{core.Observability.String(): k - 1}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	data, err := json.MarshalIndent(expectedFile{
		Schema: expectedSchema,
		Note: "Recorded by `bash bench/run.sh -record bench/testdata/expected.json`: certified verdicts " +
			"(DRAT-checked unsat, audited sat), sat witnesses and small unsat failure spaces cross-checked by internal/baseline.",
		Configs: out,
	}, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintln(log, o.summary())
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
