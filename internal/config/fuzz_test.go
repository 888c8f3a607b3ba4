package config

import (
	"math"
	"testing"
)

// FuzzParseSpec feeds arbitrary text to the config-DSL parser. The
// invariant is total robustness: any input either parses into a validated
// spec or returns an error — never a panic, never a nil spec with a nil
// error — a parsed flow's volume is a positive finite number, and every
// parsed bound (property and tlp lines alike) is non-NaN with min ≤ max. The
// corpus under testdata/fuzz/FuzzParseSpec seeds the grammar's
// interesting corners (every block keyword, boundary values, and the
// malformed shapes the table-driven error tests pin down).
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("# comment only\n")
	f.Add("router a as 1\nrouter b as 2\nlink a b\n")
	f.Add("router a as 1 loopback 10.0.0.1 nofail\nrouter b as 1\nlink a b cost 3 capacity 9.5 addr-a 172.16.0.0 addr-b 172.16.0.1 nofail\nauto-bgp-mesh\n")
	f.Add("router a as 1\nconfig a\n  network 100.0.0.0/24\n  static 1.0.0.0/8 discard\n  redistribute static\n")
	f.Add("router a as 1\nrouter b as 1\nlink a b\nconfig a\n  neighbor 10.0.0.2 remote-as 1 local-pref 200 next-hop-self export-deny 100.0.0.0/24\n  sr-policy 10.0.0.2/32 dscp 5\n    path 10.0.0.2 weight 3\n")
	f.Add("router a as 1\nflow f ingress a src 9.9.9.9 dst 1.2.3.4 dscp 63 gbps 0.25\nproperty delivered 1.2.3.0/24 min 0.1 max 2\nfailures k 3 mode routers\n")
	f.Add("router a as 1\nrouter b as 1\nlink a b\nproperty link a-b max 10\nproperty dirlink a->b min 1\n")
	for _, g := range []string{"-60", "0", "-0", "+Inf", "-Inf", "NaN", "1e400", "5e-324"} {
		f.Add("router a as 1\nflow f ingress a dst 1.2.3.4 gbps " + g + "\n")
		f.Add("router a as 1\nrouter b as 1\nlink a b\nproperty link a-b min 1 max " + g + "\nproperty delivered 1.2.3.0/24 min " + g + "\ntlp dirlink a->b max " + g + "\n")
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpecString(text)
		if err == nil && spec == nil {
			t.Fatal("ParseSpecString returned nil spec and nil error")
		}
		if err != nil && spec != nil {
			t.Fatalf("ParseSpecString returned both a spec and error %v", err)
		}
		if spec != nil {
			// A parsed spec must be internally consistent enough to walk.
			if spec.Net == nil {
				t.Fatal("parsed spec has nil network")
			}
			for _, fl := range spec.Flows {
				_ = spec.Net.Router(fl.Ingress)
				if err := CheckGbps(fl.Gbps); err != nil {
					t.Fatalf("flow %s parsed: %v", fl.Name, err)
				}
			}
			checkBound := func(what string, min, max float64) {
				if math.IsNaN(min) || math.IsNaN(max) || min > max {
					t.Fatalf("%s parsed with bounds [%v, %v]", what, min, max)
				}
			}
			for _, b := range spec.Props {
				_ = spec.Net.Link(b.Link)
				checkBound("property", b.Min, b.Max)
			}
			for _, b := range spec.Delivered {
				checkBound("delivered property", b.Min, b.Max)
			}
			for _, p := range spec.Portfolio {
				checkBound("tlp", p.Min, p.Max)
			}
		}
	})
}
