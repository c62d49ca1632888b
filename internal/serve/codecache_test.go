package serve

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"scadaver/internal/core"
)

// TestServicePresimplifyVerdicts: the service with preprocessing and
// the shared encoding cache enabled returns exactly the verdicts of a
// plain direct analyzer, and repeated requests share one snapshot.
func TestServicePresimplifyVerdicts(t *testing.T) {
	s, ts := newTestServer(t, func(o *Options) { o.Presimplify = true })
	if s.cache == nil {
		t.Fatal("encoding cache should be on by default")
	}

	direct, err := core.NewAnalyzer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	queries := []core.Query{
		{Property: core.Observability, Combined: true, K: 0},
		{Property: core.Observability, Combined: true, K: 1},
		{Property: core.SecuredObservability, Combined: true, K: 1},
		{Property: core.BadDataDetectability, Combined: true, K: 0, R: 1},
	}
	for _, q := range queries {
		resp := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Config: "grid", Query: q})
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%v: status = %d, body %s", q, resp.StatusCode, body)
		}
		got := decodeBody[VerifyResponse](t, resp)
		want, err := direct.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result.Status != want.Status {
			t.Errorf("%v: served %v, direct %v", q, got.Result.Status, want.Status)
		}
	}
	// Three distinct structures were queried (observability twice under
	// different budgets shares one snapshot).
	if got := s.cache.Len(); got != 3 {
		t.Errorf("shared cache holds %d snapshots, want 3", got)
	}
}

// TestEnumerateRejectsStaleEncodingCheckpoint: a checkpoint journaled
// under a different CNF encoding version must be rejected with 409, not
// resumed against clauses with a different meaning.
func TestEnumerateRejectsStaleEncodingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, func(o *Options) { o.CheckpointDir = dir })
	q := core.Query{Property: core.Observability, Combined: true, K: 2}

	// Journal one vector under the pre-versioned fingerprint (what an
	// older binary would have written).
	staleFP, err := core.CampaignFingerprint(testConfig(t), core.CheckpointKindEnumerate, q)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.OpenCheckpoint(filepath.Join(dir, "stale.ckpt"), core.CheckpointKindEnumerate, staleFP)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Add(core.ThreatVector{}); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/enumerate",
		EnumerateRequest{Config: "grid", Query: q, RequestID: "stale"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stale-encoding checkpoint: status = %d, want 409; body %s", resp.StatusCode, body)
	}

	// A fresh ID under the current encoding still works end to end.
	resp = postJSON(t, ts.URL+"/v1/enumerate",
		EnumerateRequest{Config: "grid", Query: q, RequestID: "fresh"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("fresh enumerate: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestEnumerateRejectsVersion1Checkpoint pins the EncodingVersion bump
// that gave positive cardinality atoms one-sided counters: a journal
// written under the EncodingVersion 1 fingerprint is refused with 409
// and left untouched on disk, while the same journal under the current
// fingerprint resumes.
func TestEnumerateRejectsVersion1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, func(o *Options) { o.CheckpointDir = dir })
	q := core.Query{Property: core.Observability, Combined: true, K: 2}
	a, err := core.NewAnalyzer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	vectors, err := a.EnumerateThreats(q, 1)
	if err != nil || len(vectors) != 1 {
		t.Fatalf("direct enumeration: %d vectors, err %v", len(vectors), err)
	}
	journal := func(id string, version int) string {
		t.Helper()
		fp, err := core.CampaignFingerprint(testConfig(t), core.CheckpointKindEnumerate, q, version)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, id+".ckpt")
		ck, err := core.OpenCheckpoint(path, core.CheckpointKindEnumerate, fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Add(vectors[0]); err != nil {
			t.Fatal(err)
		}
		return path
	}

	path := journal("v1", 1)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/enumerate",
		EnumerateRequest{Config: "grid", Query: q, RequestID: "v1"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("version-1 checkpoint: status = %d, want 409; body %s", resp.StatusCode, body)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused checkpoint was rewritten:\n%s\nnow\n%s", before, after)
	}

	journal("current", core.EncodingVersion)
	_, trailer := enumerateVectors(t, ts.URL, EnumerateRequest{Config: "grid", Query: q, RequestID: "current"})
	if trailer == nil || trailer.Resumed != 1 {
		t.Fatalf("current-version checkpoint: trailer %+v, want 1 resumed vector", trailer)
	}
}
