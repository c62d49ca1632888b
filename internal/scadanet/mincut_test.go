package scadanet

import (
	"testing"

	"scadaver/internal/secpolicy"
)

func TestLinkMinCutChain(t *testing.T) {
	// IED -> RTU -> MTU: cut = 1.
	n := NewNetwork()
	for _, d := range []Device{
		{ID: 1, Kind: IED}, {ID: 2, Kind: RTU}, {ID: 3, Kind: MTU},
	} {
		if _, err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	mustAddLink(t, n, 1, 2)
	mustAddLink(t, n, 2, 3)
	if got := n.LinkMinCut(1, nil); got != 1 {
		t.Fatalf("chain min-cut = %d, want 1", got)
	}
}

func mustAddLink(t *testing.T, n *Network, a, b DeviceID) *Link {
	t.Helper()
	l, err := n.AddLink(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLinkMinCutParallelRoutes(t *testing.T) {
	// IED with two fully disjoint RTU routes: cut = min(2, uplinks).
	n := NewNetwork()
	for _, d := range []Device{
		{ID: 1, Kind: IED}, {ID: 2, Kind: RTU}, {ID: 3, Kind: RTU}, {ID: 4, Kind: MTU},
	} {
		if _, err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	mustAddLink(t, n, 1, 2)
	mustAddLink(t, n, 1, 3)
	mustAddLink(t, n, 2, 4)
	mustAddLink(t, n, 3, 4)
	if got := n.LinkMinCut(1, nil); got != 2 {
		t.Fatalf("parallel min-cut = %d, want 2", got)
	}
	// A cross link between the RTUs does not raise the cut (the two
	// uplinks still bound it).
	mustAddLink(t, n, 2, 3)
	if got := n.LinkMinCut(1, nil); got != 2 {
		t.Fatalf("with cross link: %d, want 2", got)
	}
}

func TestLinkMinCutNeedsResiduals(t *testing.T) {
	// Classic instance where greedy path packing without residual edges
	// undercounts: two disjoint paths exist, but the shortest path uses
	// the middle cross link and blocks both if flow cannot cancel.
	//
	//   IED - a - b - MTU
	//          \ /
	//           X  (cross links a-d, c-b)
	//          / \
	//   IED - c - d - MTU   (same IED at both left ends)
	n := NewNetwork()
	for _, d := range []Device{
		{ID: 1, Kind: IED},
		{ID: 2, Kind: RTU}, {ID: 3, Kind: RTU}, {ID: 4, Kind: RTU}, {ID: 5, Kind: RTU},
		{ID: 6, Kind: MTU},
	} {
		if _, err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	// a=2 b=3 c=4 d=5.
	mustAddLink(t, n, 1, 2) // IED-a
	mustAddLink(t, n, 1, 4) // IED-c
	mustAddLink(t, n, 2, 5) // a-d (cross: the tempting shortcut)
	mustAddLink(t, n, 2, 3) // a-b
	mustAddLink(t, n, 4, 5) // c-d
	mustAddLink(t, n, 3, 6) // b-MTU
	mustAddLink(t, n, 5, 6) // d-MTU
	if got := n.LinkMinCut(1, nil); got != 2 {
		t.Fatalf("residual case min-cut = %d, want 2", got)
	}
}

func TestLinkMinCutRespectsJudgeAndPairing(t *testing.T) {
	n := NewNetwork()
	for _, d := range []Device{
		{ID: 1, Kind: IED}, {ID: 2, Kind: RTU}, {ID: 3, Kind: RTU}, {ID: 4, Kind: MTU},
	} {
		if _, err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	secureUp := mustAddLink(t, n, 1, 2)
	secureUp.Profiles = []secpolicy.Profile{{Algo: secpolicy.CHAP, KeyBits: 64}, {Algo: secpolicy.SHA2, KeyBits: 256}}
	insecureUp := mustAddLink(t, n, 1, 3)
	_ = insecureUp
	mustAddLink(t, n, 2, 4)
	mustAddLink(t, n, 3, 4)

	if got := n.LinkMinCut(1, nil); got != 2 {
		t.Fatalf("unjudged min-cut = %d, want 2", got)
	}
	pol := secpolicy.Default()
	securedOnly := func(l *Link) bool {
		return n.HopCaps(l, pol).Has(secpolicy.Authenticates | secpolicy.IntegrityProtects)
	}
	// Only the 1-2 uplink is secured; the 2-4 backbone has no profile,
	// so the secured min-cut collapses to 0.
	if got := n.LinkMinCut(1, securedOnly); got != 0 {
		t.Fatalf("secured min-cut = %d, want 0", got)
	}
}

func TestLinkMinCutEdgeCases(t *testing.T) {
	n := buildTiny(t)
	if n.LinkMinCut(99, nil) != 0 {
		t.Fatal("unknown IED")
	}
	if n.LinkMinCut(10, nil) != 0 {
		t.Fatal("non-IED")
	}
	// Down links are unusable.
	for _, l := range n.Links() {
		l.Down = true
	}
	if got := n.LinkMinCut(1, nil); got != 0 {
		t.Fatalf("all links down: %d", got)
	}
}

// TestLinkMinCutAgreesWithDirectCutSearch cross-validates Menger's
// bound against exhaustive link-subset removal on the case study: no
// (c-1)-subset disconnects the IED, and some c-subset does.
func TestLinkMinCutAgreesWithDirectCutSearch(t *testing.T) {
	cfg, err := CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Net
	links := n.Links()

	reachable := func(ied DeviceID, removed map[LinkID]bool) bool {
		_, ok := n.ReachMTU(nil, func(l *Link) bool { return !removed[l.ID] })[ied]
		return ok
	}
	existsCut := func(ied DeviceID, size int) bool {
		removed := map[LinkID]bool{}
		var rec func(start, left int) bool
		rec = func(start, left int) bool {
			if left == 0 {
				return !reachable(ied, removed)
			}
			for i := start; i <= len(links)-left; i++ {
				removed[links[i].ID] = true
				if rec(i+1, left-1) {
					return true
				}
				delete(removed, links[i].ID)
			}
			return false
		}
		return rec(0, size)
	}

	for _, d := range n.DevicesOfKind(IED) {
		c := n.LinkMinCut(d.ID, nil)
		if c < 1 {
			t.Fatalf("IED %d min-cut %d", d.ID, c)
		}
		if c > 1 && existsCut(d.ID, c-1) {
			t.Fatalf("IED %d: %d-cut exists below min-cut %d", d.ID, c-1, c)
		}
		if !existsCut(d.ID, c) {
			t.Fatalf("IED %d: no %d-cut found at claimed min-cut", d.ID, c)
		}
	}
}
