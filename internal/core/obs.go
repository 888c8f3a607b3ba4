package core

import (
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
)

// This file is the bridge between the MTBDD layer and the obs registry:
// obs is a leaf package (it must not import mtbdd), so core converts
// mtbdd.Stats into the plain obs.ManagerStats record.
//
// Instrumentation placement follows the overhead budget of DESIGN.md
// §11: no time.Now() ever runs inside ExecuteFlow's wavefront loop. The
// "check/kreduce" timer covers the aggregation kernel calls of the check
// stage (Verifier.build and prefixMax) — a clock read per call, a handful
// per link; KREDUCE effort during symbolic execution is reported through the
// manager's cumulative counters instead.

// RecordManager snapshots a manager's stats into the registry as the obs
// record under the given name ("primary", "domain.A", ...). A nil registry
// or manager records nothing.
func RecordManager(reg *obs.Registry, name string, m *mtbdd.Manager) {
	if reg == nil || m == nil {
		return
	}
	st := m.Stats()
	reg.RecordManager(obs.ManagerStats{
		Name:         name,
		Created:      int(st.Created),
		Live:         st.Live,
		PeakLive:     st.PeakUnique,
		GCRuns:       st.GCRuns,
		KReduceCalls: st.KReduceCalls,
		FusionCuts:   st.FusionCuts,
		MaxProbe:     st.MaxProbe,
		CacheBytes:   st.CacheBytes,
		Caches: map[string]obs.CacheCounters{
			"apply":   {Hits: st.Apply.Hits, Misses: st.Apply.Misses},
			"neg":     {Hits: st.Neg.Hits, Misses: st.Neg.Misses},
			"kreduce": {Hits: st.KReduce.Hits, Misses: st.KReduce.Misses},
			"range":   {Hits: st.Range.Hits, Misses: st.Range.Misses},
			"fused":   {Hits: st.Fused.Hits, Misses: st.Fused.Misses},
		},
	})
}

// checkCounters is the check stage's own account of what it did with each
// load (obs "check.*", shown by `yu verify -stats`, -metrics and
// /v1/metrics): why a check cost what it cost. A delivered-prefix load
// counts as a built link.
type checkCounters struct {
	bounded    *obs.Counter // links the quick bound settled: nothing enumerated
	decided    *obs.Counter // links the prefix maxima settled: no node built
	built      *obs.Counter // loads built and scanned
	enumerated *obs.Counter // classes that entered an n-ary walk
	total      *obs.Counter // classes of every load the stage looked at
}

func newCheckCounters(reg *obs.Registry) checkCounters {
	return checkCounters{
		bounded:    reg.Counter("check.links_bounded"),
		decided:    reg.Counter("check.links_decided"),
		built:      reg.Counter("check.links_built"),
		enumerated: reg.Counter("check.classes_enumerated"),
		total:      reg.Counter("check.classes_total"),
	}
}

// execCounters is the execution stage's own account (obs "exec.*"): what
// was executed and what was shared. The flow counters are kept by whoever
// assembles finished STFs, by each STF's provenance, so a class counts once
// wherever it ran; the step and forwarding-class counters by each engine
// that executes (on a compositional run they sum over the domains).
type execCounters struct {
	flows       *obs.Counter // classes whose STF a symbolic execution built
	shared      *obs.Counter // classes that took an earlier class's STF: same behaviour
	imported    *obs.Counter // of both, those unsealed from a domain's manager
	stepsBuilt  *obs.Counter // forwarding steps built
	stepsShared *obs.Counter // step lookups an already-built step answered
	prefixes    *obs.Counter // destination prefixes execution read
	fwdClasses  *obs.Counter // distinct forwarding classes among them
}

func newExecCounters(reg *obs.Registry) execCounters {
	return execCounters{
		flows:       reg.Counter("exec.flows_executed"),
		shared:      reg.Counter("exec.classes_shared"),
		imported:    reg.Counter("exec.classes_imported"),
		stepsBuilt:  reg.Counter("exec.steps_built"),
		stepsShared: reg.Counter("exec.steps_shared"),
		prefixes:    reg.Counter("exec.prefixes"),
		fwdClasses:  reg.Counter("exec.forwarding_classes"),
	}
}

// class counts one finished class by how it got its STF.
func (c execCounters) class(s *FlowSTF) {
	if s.shared {
		c.shared.Inc()
	} else {
		c.flows.Inc()
	}
}
