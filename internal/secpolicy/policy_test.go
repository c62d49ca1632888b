package secpolicy

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestCapabilityString(t *testing.T) {
	cases := map[Capability]string{
		0:                                 "none",
		Authenticates:                     "auth",
		IntegrityProtects:                 "integrity",
		Encrypts:                          "encrypt",
		Authenticates | IntegrityProtects: "auth+integrity",
		Authenticates | IntegrityProtects | Encrypts: "auth+integrity+encrypt",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestDefaultPolicyJudgements(t *testing.T) {
	p := Default()
	cases := []struct {
		profile Profile
		want    Capability
	}{
		{Profile{HMAC, 128}, Authenticates},
		{Profile{HMAC, 256}, Authenticates},
		{Profile{HMAC, 64}, 0}, // below threshold
		{Profile{CHAP, 64}, Authenticates},
		{Profile{CHAP, 32}, 0},
		{Profile{SHA2, 128}, IntegrityProtects},
		{Profile{SHA2, 256}, IntegrityProtects},
		{Profile{SHA2, 64}, 0},
		{Profile{RSA, 2048}, Authenticates | IntegrityProtects},
		{Profile{RSA, 4096}, Authenticates | IntegrityProtects},
		{Profile{RSA, 1024}, 0},
		{Profile{AES, 128}, Encrypts},
		{Profile{AES, 256}, Encrypts},
		{Profile{DES, 4096}, 0},        // broken regardless of key
		{Profile{TDES, 168}, 0},        // broken
		{Profile{MD5, 128}, 0},         // broken
		{Profile{SHA1, 160}, 0},        // broken
		{Profile{Plain, 0}, 0},         // broken
		{Profile{"whirlpool", 512}, 0}, // unknown algorithm
	}
	for _, tc := range cases {
		if got := p.Judge([]Profile{tc.profile}); got != tc.want {
			t.Errorf("Judge(%v) = %v, want %v", tc.profile, got, tc.want)
		}
	}
}

func TestJudgeUnion(t *testing.T) {
	p := Default()
	got := p.Judge([]Profile{{CHAP, 64}, {SHA2, 256}})
	if got != Authenticates|IntegrityProtects {
		t.Fatalf("chap+sha2 = %v", got)
	}
	got = p.Judge([]Profile{{RSA, 2048}, {AES, 256}})
	if got != Authenticates|IntegrityProtects|Encrypts {
		t.Fatalf("rsa+aes = %v", got)
	}
	if p.Judge(nil) != 0 {
		t.Fatal("empty profile set must grant nothing")
	}
}

func TestBroken(t *testing.T) {
	p := Default()
	if !p.Broken(DES) || p.Broken(AES) {
		t.Fatal("Broken misclassifies")
	}
}

func TestPairCapsWeakerKeyWins(t *testing.T) {
	p := Default()
	// One side has RSA-4096, the other RSA-1024: effective 1024, below
	// threshold.
	got := p.PairCaps([]Profile{{RSA, 4096}}, []Profile{{RSA, 1024}})
	if got != 0 {
		t.Fatalf("rsa 4096/1024 pair = %v, want none", got)
	}
	got = p.PairCaps([]Profile{{RSA, 4096}}, []Profile{{RSA, 2048}})
	if got != Authenticates|IntegrityProtects {
		t.Fatalf("rsa 4096/2048 pair = %v", got)
	}
	// Disjoint algorithms share nothing.
	got = p.PairCaps([]Profile{{HMAC, 128}}, []Profile{{SHA2, 256}})
	if got != 0 {
		t.Fatalf("disjoint pair = %v, want none", got)
	}
	// Multiple shared algorithms union their capabilities.
	a := []Profile{{CHAP, 64}, {SHA2, 128}}
	b := []Profile{{CHAP, 128}, {SHA2, 256}}
	if got := p.PairCaps(a, b); got != Authenticates|IntegrityProtects {
		t.Fatalf("chap+sha2 pair = %v", got)
	}
}

func TestCanPair(t *testing.T) {
	if !CanPair(nil, nil) {
		t.Fatal("two crypto-less devices must pair")
	}
	if CanPair([]Profile{{HMAC, 128}}, nil) {
		t.Fatal("one-sided crypto cannot pair")
	}
	if !CanPair([]Profile{{HMAC, 128}}, []Profile{{HMAC, 64}}) {
		t.Fatal("same algorithm must pair")
	}
	if CanPair([]Profile{{HMAC, 128}}, []Profile{{AES, 128}}) {
		t.Fatal("disjoint algorithms must not pair")
	}
}

func TestParseProfiles(t *testing.T) {
	ps, err := ParseProfiles([]string{"chap", "64", "sha2", "128"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0] != (Profile{CHAP, 64}) || ps[1] != (Profile{SHA2, 128}) {
		t.Fatalf("parsed %v", ps)
	}
	ps, err = ParseProfiles([]string{"HMAC", "128"})
	if err != nil || ps[0].Algo != HMAC {
		t.Fatalf("case-insensitive parse failed: %v %v", ps, err)
	}
	if _, err := ParseProfiles([]string{"chap"}); err == nil {
		t.Fatal("odd token count must fail")
	}
	if _, err := ParseProfiles([]string{"chap", "xyz"}); err == nil {
		t.Fatal("bad key length must fail")
	}
	if _, err := ParseProfiles([]string{"chap", "-5"}); err == nil {
		t.Fatal("negative key length must fail")
	}
	empty, err := ParseProfiles(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty parse: %v %v", empty, err)
	}
}

func TestFormatProfilesRoundTrip(t *testing.T) {
	in := []Profile{{SHA2, 128}, {CHAP, 64}}
	s := FormatProfiles(in)
	if s != "chap 64 sha2 128" {
		t.Fatalf("FormatProfiles = %q", s)
	}
	back, err := ParseProfiles([]string{"chap", "64", "sha2", "128"})
	if err != nil || len(back) != 2 {
		t.Fatalf("round trip: %v %v", back, err)
	}
}

func TestQuickPairCapsSubsetOfJudge(t *testing.T) {
	// Property: paired capabilities never exceed what either side could
	// achieve alone at its own key lengths.
	p := Default()
	algos := []Algorithm{HMAC, CHAP, SHA2, RSA, AES, DES}
	f := func(aIdx, bIdx uint8, aKey, bKey uint16) bool {
		a := []Profile{{algos[int(aIdx)%len(algos)], int(aKey) % 5000}}
		b := []Profile{{algos[int(bIdx)%len(algos)], int(bKey) % 5000}}
		pair := p.PairCaps(a, b)
		return p.Judge(a).Has(pair) && p.Judge(b).Has(pair)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPairCapsSymmetric(t *testing.T) {
	p := Default()
	algos := []Algorithm{HMAC, CHAP, SHA2, RSA, AES}
	f := func(n1, n2 uint8, keys [6]uint16) bool {
		mk := func(n uint8, off int) []Profile {
			count := int(n)%3 + 1
			out := make([]Profile, count)
			for i := range out {
				out[i] = Profile{algos[(off+i)%len(algos)], int(keys[(off+i)%len(keys)]) % 5000}
			}
			return out
		}
		a, b := mk(n1, 0), mk(n2, 2)
		return p.PairCaps(a, b) == p.PairCaps(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCustomPolicy(t *testing.T) {
	p := NewPolicy([]Rule{{Algo: "quantum", MinKeyBits: 1, Grants: Encrypts}}, []Algorithm{"quantum-v0"})
	if got := p.Judge([]Profile{{"quantum", 1}}); got != Encrypts {
		t.Fatalf("custom rule: %v", got)
	}
	if got := p.Judge([]Profile{{"quantum-v0", 999}}); got != 0 {
		t.Fatalf("custom broken: %v", got)
	}
	var zero Policy
	if zero.Judge([]Profile{{AES, 256}}) != 0 {
		t.Fatal("zero policy must grant nothing")
	}
}

// TestPolicyJSONIsCanonical: the JSON encoding names a policy's rules
// and broken list, so policies that differ encode differently, while
// the order the broken algorithms were listed in does not matter.
func TestPolicyJSONIsCanonical(t *testing.T) {
	enc := func(p *Policy) string {
		t.Helper()
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rules := []Rule{{Algo: HMAC, MinKeyBits: 128, Grants: Authenticates}}
	a := enc(NewPolicy(rules, []Algorithm{DES, MD5}))
	if b := enc(NewPolicy(rules, []Algorithm{MD5, DES})); a != b {
		t.Errorf("broken-list order changes the encoding: %s vs %s", a, b)
	}
	for name, p := range map[string]*Policy{
		"default":      Default(),
		"empty":        NewPolicy(nil, nil),
		"other broken": NewPolicy(rules, []Algorithm{DES}),
		"other rule":   NewPolicy([]Rule{{Algo: HMAC, MinKeyBits: 64, Grants: Authenticates}}, []Algorithm{DES, MD5}),
	} {
		if got := enc(p); got == a || got == "{}" {
			t.Errorf("%s policy encodes as %s", name, got)
		}
	}
}
