package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/yu-verify/yu/internal/config"
)

// TestOutputPinned pins the bytes yugen writes for the inputs the
// off-matrix measurements are taken on: N0 (the 100-router WAN of every k = 2
// and k = 3 ladder row) and the FT-4 fabric of Fig 15. A change that moves a
// digest changed every measurement taken on that input. The output must
// also parse back into the spec it was rendered from.
func TestOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		bytes  int
		flows  int
		sha256 string
	}{
		{[]string{"wan", "-routers", "100", "-links", "200", "-prefixes", "60", "-flows", "5000", "-seed", "10"},
			475496, 5000, "525d2f65b93c2e350516c753615daf3fd9ce9b4d9ad3e8136b0c8d904c11274b"},
		{[]string{"fattree", "-pods", "4", "-flows", "0.375"},
			5588, 21, "3003e68a4072e6e48ebad9f10972691358c8571be8a1886edea5f05b61ef940a"},
	} {
		for run := 0; run < 2; run++ {
			spec, err := generators[tc.args[0]](tc.args[1:])
			if err != nil {
				t.Fatalf("%v: %v", tc.args, err)
			}
			var out bytes.Buffer
			emit(&out, spec)
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); out.Len() != tc.bytes || got != tc.sha256 {
				t.Errorf("%v run %d: %d bytes, sha256 %s; pinned at %d bytes, %s",
					tc.args, run, out.Len(), got, tc.bytes, tc.sha256)
			}
			back, err := config.ParseSpecString(out.String())
			if err != nil {
				t.Fatalf("%v: output does not parse: %v", tc.args, err)
			}
			if len(back.Flows) != tc.flows || back.Net.NumLinks() != spec.Net.NumLinks() ||
				len(back.Net.Routers) != len(spec.Net.Routers) || back.K != spec.K {
				t.Errorf("%v: parsed back %d flows, %d links, %d routers, k=%d; generated %d, %d, %d, k=%d",
					tc.args, len(back.Flows), back.Net.NumLinks(), len(back.Net.Routers), back.K,
					len(spec.Flows), spec.Net.NumLinks(), len(spec.Net.Routers), spec.K)
			}
		}
	}
}
