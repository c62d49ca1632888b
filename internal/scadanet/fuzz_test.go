package scadanet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseConfig checks that arbitrary input never panics the parser
// and that accepted configurations survive a write/parse round trip.
func FuzzParseConfig(f *testing.F) {
	cfg, err := CaseStudyConfig(false)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteConfig(&buf, cfg); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("# only a comment\n")
	f.Add("[jacobian]\n1 0\n[devices]\nied 1\nmtu 2\n[links]\n1 2\n")
	f.Add("[jacobian]\nNaN Inf\n")
	f.Add("[bogus]\nx\n")
	f.Add("[jacobian]\n1\n[devices]\nied 1 99999\n")

	f.Fuzz(func(t *testing.T, input string) {
		parsed, err := ParseConfig(strings.NewReader(input))
		if err != nil {
			return
		}
		// Anything accepted must be serializable and re-parsable.
		var out bytes.Buffer
		if err := WriteConfig(&out, parsed); err != nil {
			t.Fatalf("write of accepted config failed: %v", err)
		}
		back, err := ParseConfig(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, out.String())
		}
		if back.Msrs.Len() != parsed.Msrs.Len() {
			t.Fatalf("round trip changed measurement count %d -> %d", parsed.Msrs.Len(), back.Msrs.Len())
		}
	})
}

// FuzzParseDelta checks that arbitrary input never panics the delta
// parser and that every accepted delta survives a print/parse round
// trip unchanged.
func FuzzParseDelta(f *testing.F) {
	f.Add("link-remove 7; device-down 3; link-add 2 9 hmac 128; key-rotate 4 256")
	f.Add("device-up 1")
	f.Add("device-down 2")
	f.Add("link-add 1 2")
	f.Add("link-remove 3")
	f.Add("link-reprofile 4 aes 256")
	f.Add("key-rotate 5 128")

	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseDelta(input)
		if err != nil {
			return
		}
		back, err := ParseDelta(d.String())
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", d.String(), err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("round trip changed the delta:\n%#v\n%#v", d, back)
		}
	})
}
