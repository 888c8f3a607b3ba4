package config

import (
	"strings"
	"testing"
)

// TestParseSpecErrorMessages pins the parser's rejection behaviour
// line by line: each malformed input must produce an error (never a
// panic) whose message contains the expected fragment. It complements
// TestParseSpecErrors in config_test.go, which covers the semantic
// checks done after parsing (BGP adjacency, SR segment validity); this
// table sweeps the lexical/usage errors of every block keyword. The
// valid prefix used by most entries keeps the error site the only
// broken thing in the input.
func TestParseSpecErrorMessages(t *testing.T) {
	const base = "router a as 1\nrouter b as 1\nlink a b\n"
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"unknown keyword", "frobnicate a b\n", `unknown keyword "frobnicate"`},
		{"router usage", "router a\n", "usage: router NAME as NUM"},
		{"bad as number", "router a as many\n", `bad AS "many"`},
		{"router as negative", "router a as -3\n", `bad AS "-3"`},
		{"loopback missing addr", "router a as 1 loopback\n", "loopback wants an address"},
		{"loopback bad addr", "router a as 1 loopback nonsense\n", ""},
		{"unknown router option", "router a as 1 wings\n", `unknown router option "wings"`},
		{"duplicate router", "router a as 1\nrouter a as 2\n", `duplicate router name "a"`},
		{"link usage", "link a\n", "usage: link A B"},
		{"link bad cost", base + "link b a cost heavy\n", `bad cost "heavy"`},
		{"link zero cost", base + "link b a cost 0\n", "line 4: cost 0: IGP metrics are positive"},
		{"link negative cost", base + "link b a cost -5\n", "line 4: cost -5: IGP metrics are positive"},
		{"link bad capacity", base + "link b a capacity lots\n", `bad capacity "lots"`},
		{"link option missing value", base + "link b a cost\n", `link option "cost" wants a value`},
		{"link unknown option", base + "link b a shiny yes\n", `unknown link option "shiny"`},
		{"link half addressed", base + "link b a addr-a 10.0.0.1\n", "addr-a and addr-b must be given together"},
		{"config usage", "config\n", "config wants a router name"},
		{"network outside block", base + "network 10.0.0.0/8\n", `"network" outside a config block`},
		{"neighbor outside block", base + "neighbor 10.0.0.1 remote-as 2\n", `"neighbor" outside a config block`},
		{"static outside block", base + "static 10.0.0.0/8 discard\n", `"static" outside a config block`},
		{"path outside block", base + "path 10.0.0.1 weight 1\n", `"path" outside a config block`},
		{"network usage", base + "config a\nnetwork\n", "usage: network PREFIX"},
		{"network bad prefix", base + "config a\nnetwork 10.0.0.0\n", ""},
		{"neighbor usage", base + "config a\nneighbor 10.0.0.2\n", "usage: neighbor IP remote-as NUM"},
		{"neighbor bad as", base + "config a\nneighbor 10.0.0.2 remote-as x\n", `bad AS "x"`},
		{"neighbor bad local-pref", base + "config a\nneighbor 10.0.0.2 remote-as 2 local-pref soon\n", `bad local-pref "soon"`},
		{"neighbor local-pref missing value", base + "config a\nneighbor 10.0.0.2 remote-as 2 local-pref\n", "local-pref wants a value"},
		{"neighbor export-deny missing prefix", base + "config a\nneighbor 10.0.0.2 remote-as 2 export-deny\n", "export-deny wants a prefix"},
		{"neighbor unknown option", base + "config a\nneighbor 10.0.0.2 remote-as 2 fancy\n", `unknown neighbor option "fancy"`},
		{"static usage", base + "config a\nstatic 10.0.0.0/8\n", "usage: static PREFIX (discard | via IP)"},
		{"static bad verb", base + "config a\nstatic 10.0.0.0/8 teleport somewhere\n", "static wants 'discard' or 'via IP'"},
		{"static via missing addr", base + "config a\nstatic 10.0.0.0/8 via\n", ""},
		{"static via a link the router is not on", base + "router c as 1\nlink b c addr-a 192.0.2.1 addr-b 192.0.2.2\nconfig a\nstatic 99.0.0.0/8 via 192.0.2.2\n",
			"a: static route 99.0.0.0/8 next hop 192.0.2.2 is not directly connected"},
		{"redistribute usage", base + "config a\nredistribute connected\n", "usage: redistribute static"},
		{"sr-policy usage", base + "config a\nsr-policy\n", "usage: sr-policy PREFIX [dscp N]"},
		{"sr-policy bad dscp", base + "config a\nsr-policy 10.0.0.0/24 dscp 64\n", `bad dscp "64"`},
		{"path without sr-policy", base + "config a\npath 10.0.0.2 weight 1\n", "path outside an sr-policy"},
		{"path usage", base + "config a\nsr-policy 10.0.0.0/24\npath weight\n", "usage: path IP [IP...] weight N"},
		{"path bad weight", base + "config a\nsr-policy 10.0.0.0/24\npath 10.0.0.2 weight minus\n", `bad weight "minus"`},
		{"flow needs name", "flow\n", "flow wants a name"},
		{"flow missing fields", base + "flow f ingress a\n", "flow needs at least ingress, dst, and gbps"},
		{"flow bad dscp", base + "flow f ingress a dst 1.2.3.4 gbps 1 dscp 99\n", `bad dscp "99"`},
		{"flow bad gbps", base + "flow f ingress a dst 1.2.3.4 gbps torrent\n", `bad gbps "torrent"`},
		{"flow negative gbps", base + "flow f ingress a dst 1.2.3.4 gbps -60\n", "gbps must be a positive finite number, got -60"},
		{"flow zero gbps", base + "flow f ingress a dst 1.2.3.4 gbps 0\n", "gbps must be a positive finite number, got 0"},
		{"flow negative zero gbps", base + "flow f ingress a dst 1.2.3.4 gbps -0\n", "gbps must be a positive finite number, got -0"},
		{"flow infinite gbps", base + "flow f ingress a dst 1.2.3.4 gbps +Inf\n", "gbps must be a positive finite number, got +Inf"},
		{"flow NaN gbps", base + "flow f ingress a dst 1.2.3.4 gbps NaN\n", "gbps must be a positive finite number, got NaN"},
		{"flow overflowing gbps", base + "flow f ingress a dst 1.2.3.4 gbps 1e400\n", `bad gbps "1e400"`},
		{"flow option missing value", base + "flow f ingress a dst 1.2.3.4 gbps\n", `flow option "gbps" wants a value`},
		{"flow unknown option", base + "flow f ingress a dst 1.2.3.4 gbps 1 color blue\n", `unknown flow option "color"`},
		{"flow unknown ingress", base + "flow f ingress zz dst 1.2.3.4 gbps 1\n", `unknown ingress router "zz"`},
		{"property usage", base + "property\n", "usage: property (link A-B | dirlink A->B)"},
		{"property bad link", base + "property link ab max 1\n", `bad link "ab", want A-B`},
		{"property bad dirlink", base + "property dirlink a-b max 1\n", `bad dirlink "a-b", want A->B`},
		{"property bad kind", base + "property tunnel a-b\n", "property wants 'link', 'dirlink', or 'delivered'"},
		{"property bad bound", base + "property link a-b max tall\n", `bad bound "tall"`},
		{"property option missing value", base + "property link a-b max\n", `property option "max" wants a value`},
		{"property unknown option", base + "property link a-b avg 3\n", `unknown property option "avg"`},
		{"property unknown link", base + "property link a-c max 1\n", "property: no link a-c"},
		{"property unknown dirlink", base + "property dirlink a->c max 1\n", "property: no link a->c"},
		{"property NaN bound", base + "property link a-b max NaN\n", `bad bound "NaN"`},
		{"property delivered NaN bound", base + "property delivered 10.0.0.0/24 min nan\n", `bad bound "nan"`},
		{"property min exceeds max", base + "property dirlink a->b min 5 max 1\n", "property min 5 exceeds max 1"},
		{"property if-failed", base + "property link a-b max 1 if-failed a-b\n", `unknown property option "if-failed"`},
		{"failures bad k", base + "failures k soon\n", `bad k "soon"`},
		{"failures bad mode", base + "failures mode chaos\n", `bad mode "chaos"`},
		{"failures option missing value", base + "failures k\n", `failures option "k" wants a value`},
		{"failures unknown option", base + "failures q 3\n", `unknown failures option "q"`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpecString(tc.in)
			if err == nil {
				t.Fatalf("ParseSpecString(%q) succeeded, want error containing %q", tc.in, tc.want)
			}
			if spec != nil {
				t.Fatalf("ParseSpecString(%q) returned a spec alongside error %v", tc.in, err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSpecString(%q) error = %q, want it to contain %q", tc.in, err.Error(), tc.want)
			}
		})
	}
}
