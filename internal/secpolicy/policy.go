package secpolicy

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Algorithm names a cryptographic algorithm as it appears in SCADA
// device security profiles.
type Algorithm string

// Algorithms understood by the default policy. Arbitrary further
// algorithm names may appear in configurations; they simply match no
// rule (and hence grant no capability) unless the policy is extended.
const (
	HMAC  Algorithm = "hmac"
	CHAP  Algorithm = "chap"
	SHA2  Algorithm = "sha2"
	SHA1  Algorithm = "sha1"
	RSA   Algorithm = "rsa"
	AES   Algorithm = "aes"
	DES   Algorithm = "des"
	TDES  Algorithm = "3des"
	MD5   Algorithm = "md5"
	Plain Algorithm = "plain"
)

// Capability is a bitmask of security properties a profile provides.
type Capability uint8

// The three capabilities the verifier distinguishes.
const (
	Authenticates Capability = 1 << iota
	IntegrityProtects
	Encrypts
)

// Has reports whether c includes all capabilities in want.
func (c Capability) Has(want Capability) bool { return c&want == want }

// String implements fmt.Stringer.
func (c Capability) String() string {
	if c == 0 {
		return "none"
	}
	var parts []string
	if c.Has(Authenticates) {
		parts = append(parts, "auth")
	}
	if c.Has(IntegrityProtects) {
		parts = append(parts, "integrity")
	}
	if c.Has(Encrypts) {
		parts = append(parts, "encrypt")
	}
	return strings.Join(parts, "+")
}

// Profile is one cryptographic configuration entry of a device or link:
// an algorithm with a key length in bits (CryptType/CAlgo/CKey in the
// paper's notation).
type Profile struct {
	Algo    Algorithm
	KeyBits int
}

// String implements fmt.Stringer.
func (p Profile) String() string { return fmt.Sprintf("%s-%d", p.Algo, p.KeyBits) }

// Rule grants capabilities to profiles of one algorithm at or above a
// minimum key length.
type Rule struct {
	Algo       Algorithm
	MinKeyBits int
	Grants     Capability
}

// Policy is an ordered set of rules plus a broken-algorithm list.
// Construct with Default or NewPolicy; the zero value grants nothing.
type Policy struct {
	rules  []Rule
	broken map[Algorithm]bool
}

// NewPolicy builds a policy from rules and a list of broken algorithms
// whose profiles never grant capabilities regardless of key length.
func NewPolicy(rules []Rule, broken []Algorithm) *Policy {
	p := &Policy{
		rules:  append([]Rule(nil), rules...),
		broken: make(map[Algorithm]bool, len(broken)),
	}
	for _, a := range broken {
		p.broken[a] = true
	}
	return p
}

// Default returns the policy matching the paper's Section III-D
// examples: HMAC (≥128) and CHAP (≥64) authenticate; SHA-2 (≥128)
// integrity-protects; RSA (≥2048) both authenticates and
// integrity-protects (signatures); AES (≥128) encrypts; DES, 3DES, MD5,
// SHA-1 and plaintext are considered broken.
func Default() *Policy {
	return NewPolicy([]Rule{
		{Algo: HMAC, MinKeyBits: 128, Grants: Authenticates},
		{Algo: CHAP, MinKeyBits: 64, Grants: Authenticates},
		{Algo: SHA2, MinKeyBits: 128, Grants: IntegrityProtects},
		{Algo: RSA, MinKeyBits: 2048, Grants: Authenticates | IntegrityProtects},
		{Algo: AES, MinKeyBits: 128, Grants: Encrypts},
	}, []Algorithm{DES, TDES, MD5, SHA1, Plain})
}

// MarshalJSON renders the policy canonically: its rules in order, then
// its broken algorithms sorted. Two policies that judge every profile
// alike by construction encode alike, and policies with different rules
// or broken lists encode differently, so the encoding can key caches
// and fingerprints (the fields themselves are unexported and would
// encode as {}).
func (p *Policy) MarshalJSON() ([]byte, error) {
	broken := make([]Algorithm, 0, len(p.broken))
	for a := range p.broken {
		broken = append(broken, a)
	}
	sort.Slice(broken, func(i, j int) bool { return broken[i] < broken[j] })
	return json.Marshal(struct {
		Rules  []Rule      `json:"rules"`
		Broken []Algorithm `json:"broken"`
	}{p.rules, broken})
}

// Broken reports whether the policy considers the algorithm broken.
func (p *Policy) Broken(a Algorithm) bool { return p.broken[a] }

// Judge returns the union of capabilities granted by the given profiles.
func (p *Policy) Judge(profiles []Profile) Capability {
	var caps Capability
	for _, pr := range profiles {
		caps |= p.judgeOne(pr)
	}
	return caps
}

func (p *Policy) judgeOne(pr Profile) Capability {
	if p.broken[pr.Algo] {
		return 0
	}
	var caps Capability
	for _, r := range p.rules {
		if r.Algo == pr.Algo && pr.KeyBits >= r.MinKeyBits {
			caps |= r.Grants
		}
	}
	return caps
}

// PairCaps returns the capabilities of the shared profiles of two
// devices: for every algorithm supported by both, the effective key
// length is the weaker of the two, and that effective profile is judged.
// This implements the paper's ∃K (CryptType_i = K ∧ CryptType_j = K ∧
// policy(K)) scheme.
func (p *Policy) PairCaps(a, b []Profile) Capability {
	best := map[Algorithm]int{}
	for _, pa := range a {
		for _, pb := range b {
			if pa.Algo != pb.Algo {
				continue
			}
			eff := pa.KeyBits
			if pb.KeyBits < eff {
				eff = pb.KeyBits
			}
			if eff > best[pa.Algo] {
				best[pa.Algo] = eff
			}
		}
	}
	var caps Capability
	for algo, key := range best {
		caps |= p.judgeOne(Profile{Algo: algo, KeyBits: key})
	}
	return caps
}

// CanPair reports whether two profile sets share at least one algorithm
// (the paper's CryptoPropPairing: handshaking is possible). Two empty
// sets pair trivially — neither side requires cryptography.
func CanPair(a, b []Profile) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	for _, pa := range a {
		for _, pb := range b {
			if pa.Algo == pb.Algo {
				return true
			}
		}
	}
	return false
}

// ParseProfiles parses whitespace-separated "algo keybits" pairs, the
// format of the paper's Table II security-profile entries (e.g.
// "chap 64 sha2 128").
func ParseProfiles(fields []string) ([]Profile, error) {
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("secpolicy: odd profile token count %d (want algo/keybits pairs)", len(fields))
	}
	out := make([]Profile, 0, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		var bits int
		if _, err := fmt.Sscanf(fields[i+1], "%d", &bits); err != nil || bits < 0 {
			return nil, fmt.Errorf("secpolicy: bad key length %q for algorithm %q", fields[i+1], fields[i])
		}
		out = append(out, Profile{Algo: Algorithm(strings.ToLower(fields[i])), KeyBits: bits})
	}
	return out, nil
}

// FormatProfiles renders profiles in the Table II text form, sorted for
// determinism.
func FormatProfiles(ps []Profile) string {
	sorted := append([]Profile(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Algo != sorted[j].Algo {
			return sorted[i].Algo < sorted[j].Algo
		}
		return sorted[i].KeyBits < sorted[j].KeyBits
	})
	parts := make([]string, 0, len(sorted))
	for _, p := range sorted {
		parts = append(parts, fmt.Sprintf("%s %d", p.Algo, p.KeyBits))
	}
	return strings.Join(parts, " ")
}
