package scadanet

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConfigMemoFollowsMutations: a value memoized on a configuration
// is the same for concurrent first callers and not computed again
// until the configuration changes in a way Memo can see — each network
// mutator, a replaced resiliency bound or network — and Apply mutating
// a clone is not such a change for the original.
func TestConfigMemoFollowsMutations(t *testing.T) {
	cfg := mutationTestConfig(t)
	var computed atomic.Int32
	write := func() (string, error) {
		computed.Add(1)
		var b bytes.Buffer
		err := WriteConfig(&b, cfg)
		return b.String(), err
	}
	text := func() string {
		t.Helper()
		v, err := cfg.Memo("text", write)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = cfg.Memo("text", write); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, v := range got[1:] {
		if v != got[0] {
			t.Fatal("concurrent first callers got different values")
		}
	}
	computed.Store(0)
	text()
	if n := computed.Load(); n != 0 {
		t.Fatalf("computed %d more times once memoized", n)
	}

	next, _, err := cfg.Apply(Delta{Ops: []Op{{Kind: OpDeviceDown, Device: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Memo("text", func() (string, error) { return "fresh", nil }); err != nil {
		t.Fatal(err)
	}
	text()
	if n := computed.Load(); n != 0 {
		t.Fatalf("Apply on a clone dropped the original's memo (%d computations)", n)
	}

	for _, tc := range []struct {
		name   string
		mutate func()
	}{
		{"AddDevice", func() {
			if _, err := cfg.Net.AddDevice(Device{ID: 5, Kind: IED}); err != nil {
				t.Fatal(err)
			}
		}},
		{"AddLink", func() {
			if _, err := cfg.Net.AddLink(2, 5); err != nil {
				t.Fatal(err)
			}
		}},
		{"AssignMeasurements", func() {
			if err := cfg.Net.AssignMeasurements(5, 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveLink", func() {
			if !cfg.Net.RemoveLink(cfg.Net.Links()[0].ID) {
				t.Fatal("no link removed")
			}
		}},
		{"K1", func() { cfg.K1++ }},
		{"Net", func() { cfg.Net = cfg.Net.Clone() }},
	} {
		before, n := text(), computed.Load()
		tc.mutate()
		after := text()
		if computed.Load() != n+1 {
			t.Errorf("%s: memo not recomputed", tc.name)
		}
		if tc.name != "Net" && after == before {
			t.Errorf("%s: configuration text unchanged", tc.name)
		}
	}
}
