package core

import (
	"fmt"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// NoCarrier is a carrier that never hits and keeps nothing; a test's carrier
// embeds it and overrides what it carries.
type NoCarrier struct{}

func (NoCarrier) CarriedSTF(routesim.Fingerprint) (*SealedSTFs, int, bool) { return nil, 0, false }

func (NoCarrier) CarrySTFs(_, _ []routesim.Fingerprint, _ *SealedSTFs) {}

func (NoCarrier) CarriedCheck(routesim.Fingerprint) (PlanResult, bool) { return PlanResult{}, false }

func (NoCarrier) CarryChecks(map[routesim.Fingerprint]PlanResult, int, int) {}

func (NoCarrier) CarriedLoad(routesim.Fingerprint) (*SealedLoads, int, bool) { return nil, 0, false }

func (NoCarrier) CarryLoads(_, _ []routesim.Fingerprint, _ *SealedLoads) {}

// ClassKeys is the key a build on e derives for the class of each of reps:
// what a test plants a stored entry under.
func ClassKeys(e *Engine, reps []topo.Flow) []routesim.Fingerprint {
	keyer := newClassKeyer(e)
	keys := make([]routesim.Fingerprint, len(reps))
	for i, rep := range reps {
		keys[i] = keyer.key(rep)
	}
	return keys
}

// unseal replays the whole list into m, as a session does, and returns its
// STFs there, STF i as flows[i]'s.
func unseal(l *SealedSTFs, m *mtbdd.Manager, flows []topo.Flow) []*FlowSTF {
	t := m.ImportSnapshot(l.Snap)
	out := make([]*FlowSTF, len(l.STFs))
	for i := range out {
		out[i] = l.stf(t, i, flows[i])
	}
	return out
}

// SetExecHook installs (nil: removes) the hook that runs inside every
// governed flow execution.
func SetExecHook(h func(topo.Flow)) { testExecHook = h }

// CompareWithReference exposes the check stage's reference oracle
// (reference_test.go) to the external test package, which may import
// internal/difftest for its generated cases: every load, pruned stop,
// witness and value of v against the pre-kernel fold and loop.
func CompareWithReference(v *Verifier, spec *config.Spec, factors []float64) error {
	return compareVerifier(v, spec, factors, 1)
}

// CompareExecution exposes the execution stage's reference oracle
// (reference_test.go): every finished STF of v against the kept map-based
// execution of its class, in v's manager, node for node.
func CompareExecution(v *Verifier) error { return compareExecution(v) }

// SameSTFs holds other's finished STFs, sealed and unsealed into v's manager,
// to v's own, node for node: two verifiers of one input built on different
// paths (monolithic and compositional) must hold the same functions.
func SameSTFs(v, other *Verifier) error {
	if err := other.Err(); err != nil {
		return err
	}
	if len(v.stfs) != len(other.stfs) {
		return fmt.Errorf("%d STFs against %d", len(v.stfs), len(other.stfs))
	}
	flows := make([]topo.Flow, len(other.stfs))
	for i, s := range other.stfs {
		flows[i] = s.Flow
	}
	for i, s := range unseal(SealSTFs(other.e.m, other.stfs), v.e.m, flows) {
		if err := sameSTF(s, v.stfs[i]); err != nil {
			return fmt.Errorf("class %d (%v): %w", i, s.Flow, err)
		}
	}
	return nil
}

// SharedClasses counts v's classes that took an earlier class's STF.
func SharedClasses(v *Verifier) int { return sharedClasses(v) }

// LoadsEqualSums takes the load of every single-link and delivered subject
// and of every member link of an aggregate subject through a load session of
// v's carrier, and holds each to the node sum builds from the subject's
// classes in v's manager — the same pointer, the same flow and class counts.
// It returns how many of them the carrier gave.
func LoadsEqualSums(v *Verifier, subjects []Subject) (carried int, err error) {
	v.startLoads()
	defer v.endLoads()
	if v.loads == nil {
		return 0, fmt.Errorf("the verifier carries no loads")
	}
	for _, s := range subjects {
		members := []Subject{s}
		if len(s.Links) > 0 {
			members = nil
			for _, l := range s.Links {
				members = append(members, Subject{Link: l})
			}
		}
		for _, m := range members {
			classes := func(stat *LinkCheckStat) []scanClass {
				if m.Prefix.IsValid() {
					return v.deliveredClasses(m.Prefix, stat)
				}
				return v.linkClasses(m.Link, stat)
			}
			var got, want LinkCheckStat
			w := v.summed(m, &got, func() []scanClass { return classes(&got) })
			if sum := v.sum(classes(&want)); w != sum || got != want {
				return 0, fmt.Errorf("subject %+v: load %p (%d flows, %d classes), sum %p (%d flows, %d classes)",
					m, w, got.Flows, got.Classes, sum, want.Flows, want.Classes)
			}
		}
	}
	return len(v.loads.carried), nil
}
