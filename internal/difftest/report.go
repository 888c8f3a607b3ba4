package difftest

import (
	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/topo"
)

// ViolationKeys renders each violation to its property identity — the
// kind plus the directed link (or prefix) it is about — deduplicated and
// sorted. Two verification runs flag "the same violations" when these key
// sets are equal. The renderer lives in internal/canon; this wrapper
// keeps the historical difftest entry point.
func ViolationKeys(net *topo.Network, vs []core.Violation) []string {
	return canon.ViolationKeys(net, vs)
}

// FormatReport renders a verification report canonically: every
// deterministic field, no wall-clock fields. Two runs of the pipeline are
// "byte-identical" exactly when their FormatReport strings are equal —
// the contract the compositional pipeline, the spec round-trip, and the
// incremental daemon are held to.
func FormatReport(net *topo.Network, rep *yu.Report) string {
	return canon.FormatReport(net, rep)
}
