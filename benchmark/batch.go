package main

import (
	"fmt"
	"strings"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/compose"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// verdict is one verification's output: the canonical text the user
// reads, plus the structured result the witness replay walks.
type verdict struct {
	text string
	spec *config.Spec
	rep  *yu.Report    // Verify pipelines
	port *yu.TLPResult // portfolio pipeline
}

// verifyPublic is the untraced user path every end-to-end number is
// taken on: spec text in memory → parse → verify → canonical text.
func (in *input) verifyPublic() (*verdict, error) {
	n, err := yu.LoadString(in.specText)
	if err != nil {
		return nil, err
	}
	v := &verdict{spec: n.Spec()}
	opts := in.verifyOptions()
	switch in.sh.pipe {
	case pipePortfolio:
		v.port, err = n.VerifyPortfolio(in.props, opts)
		if err != nil {
			return nil, err
		}
		v.text = canon.FormatPortfolio(n.Topology(), v.port)
		return v, nil
	case pipeModular:
		opts.Domains = n.Spec().Domains
	}
	v.rep, err = n.Verify(opts)
	if err != nil {
		return nil, err
	}
	v.text = canon.FormatReport(n.Topology(), v.rep)
	return v, nil
}

// Root span names. Spans below pipelineRoot reproduce the user path
// stage by stage; spans below probeRoot are replica measurements of
// work the pipeline does somewhere the driver cannot reach from outside
// (classification inside execute, the per-shard guard import, a full
// per-link aggregation), kept out of the coverage sum.
const (
	pipelineRoot = benchLayer + ".pipeline"
	probeRoot    = benchLayer + ".probe"
)

// verifyStaged is the traced twin of verifyPublic: the same pipeline
// assembled from each layer's public functions with a span around every
// call. counts receives the layer counters read at the same boundaries.
// Its output must be byte-identical to verifyPublic's — that equality is
// one of the correctness gates.
func (in *input) verifyStaged(tr *tracer, reg *obs.Registry, counts map[string]float64) (*verdict, error) {
	tr.newOp()
	root := tr.begin(pipelineRoot)
	sp := tr.begin("config.parse")
	spec, err := config.ParseSpecString(in.specText)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	counts["config.spec_bytes"] = float64(len(in.specText))
	v := &verdict{spec: spec}
	var probe func()
	if in.sh.pipe == pipeModular {
		err = in.stagedModular(tr, reg, counts, v)
	} else {
		probe, err = in.stagedMonolithic(tr, reg, counts, v)
	}
	if err != nil {
		return nil, err
	}
	tr.end(root)
	if probe != nil {
		probe()
	}
	return v, nil
}

// stagedMonolithic fills v from the whole-network pipeline and returns
// the probes to run once the pipeline root is closed.
func (in *input) stagedMonolithic(tr *tracer, reg *obs.Registry, counts map[string]float64, v *verdict) (probe func(), err error) {
	spec := v.spec
	// The registry may already hold an earlier staged run (the daemon does
	// two); the aggregation timer is read as a difference.
	kreduce := reg.Timer("check/kreduce")
	kreduceBefore := kreduce.Total()
	m := mtbdd.New()
	fv := routesim.NewFailVars(m, spec.Net, topo.FailLinks, in.sh.k)
	sp := tr.begin("routesim.igp")
	igp := routesim.ComputeIGP(fv)
	tr.end(sp)
	sp = tr.begin("routesim.bgp")
	bgp := routesim.ComputeBGP(fv, spec.Configs, igp)
	tr.end(sp)
	sp = tr.begin("routesim.finish")
	rs, err := routesim.FinishRun(fv, spec.Configs, igp, bgp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	routeCreated := m.Stats().Created
	counts["routesim.created_nodes"] = float64(routeCreated)

	sp = tr.begin("core.execute")
	eng := core.NewEngine(rs, core.Options{Configs: spec.Configs, Obs: reg})
	ver := core.NewParallelVerifier(eng, spec.Flows, in.workers)
	execWall := tr.end(sp)
	if err := ver.Err(); err != nil {
		return nil, err
	}
	sched := ver.SchedStats()
	counts["core.classes"] = float64(sched.Classes)
	if len(spec.Flows) > 0 {
		counts["core.class_dedup_ratio"] = 1 - float64(sched.Classes)/float64(len(spec.Flows))
	}
	counts["core.sched_chunks"] = float64(sched.Chunks)
	counts["core.sched_steals"] = float64(sched.Steals)
	execCreated := float64(m.Stats().Created - routeCreated)

	if in.sh.pipe == pipePortfolio {
		sp = tr.begin("tlp.compile")
		port, err := tlp.Compile(spec.Net, spec.Flows, in.props)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("tlp.eval")
		v.port, err = port.Eval(ver, reg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		core.RecordManager(reg, "primary", m)
		st := v.port.Stats
		counts["tlp.link_scans"] = float64(st.LinkScans)
		counts["tlp.restrict_scans"] = float64(st.RestrictScans)
		counts["tlp.delivered_scans"] = float64(st.DeliveredScans)
		if scans := st.LinkScans + st.RestrictScans + st.DeliveredScans + st.AggScans; scans > 0 {
			counts["tlp.props_per_scan"] = float64(st.Properties) / float64(scans)
		}
		counts["core.flows_executed"] = float64(len(ver.FlowSTFs()))
		sp = tr.begin("canon.format_report")
		v.text = canon.FormatPortfolio(spec.Net, v.port)
		tr.end(sp)
	} else {
		sp = tr.begin("core.check")
		rep, err := ver.Run(spec.Props, spec.Delivered, overloadFactor)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		core.RecordManager(reg, "primary", m)
		counts["core.flows_executed"] = float64(rep.FlowsExecuted)
		counts["core.links_checked"] = float64(len(rep.LinkStats))
		v.rep = reportOf(rep)
		sp = tr.begin("canon.format_report")
		v.text = canon.FormatReport(spec.Net, v.rep)
		tr.end(sp)
	}

	// Shard managers were recorded by the workers as they finished.
	snap := reg.Snapshot()
	busy := 0.0
	for _, ms := range snap.Managers {
		if strings.HasPrefix(ms.Name, "exec-shard.") {
			execCreated += float64(ms.Created)
		}
	}
	for name, t := range snap.TimersMS {
		if strings.HasPrefix(name, "worker.") && strings.HasSuffix(name, ".busy") {
			busy += t.MS / 1e3
		}
	}
	counts["core.exec_created_nodes"] = execCreated
	counts["core.worker_busy_share"] = 1 // one worker, never idle
	if sched.Workers > 1 && execWall > 0 {
		counts["core.worker_busy_share"] = busy / (float64(sched.Workers) * execWall.Seconds())
	}
	// The one aggregation timer (multiply-add + KREDUCE per class per
	// link) ticks inside Verifier.Run on this path and inside
	// Portfolio.Eval on the portfolio path.
	if in.sh.pipe == pipePortfolio {
		counts["tlp.kreduce_s"] = (kreduce.Total() - kreduceBefore).Seconds()
	} else {
		counts["core.kreduce_s"] = (kreduce.Total() - kreduceBefore).Seconds()
	}

	return func() { in.probes(tr, spec, rs, ver, counts) }, nil
}

// reportOf lifts a core report into the public report shape exactly as
// yu.Network.Verify does for the fields canon.FormatReport renders.
func reportOf(rep *core.Report) *yu.Report {
	return &yu.Report{
		Violations:         rep.Violations,
		Holds:              rep.Holds,
		FlowsTotal:         rep.FlowsTotal,
		FlowsExecuted:      rep.FlowsExecuted,
		LinkStats:          rep.LinkStats,
		Incomplete:         rep.Incomplete,
		Unchecked:          rep.Unchecked,
		UncheckedDelivered: rep.UncheckedDelivered,
		DegradedFlows:      rep.DegradedFlows,
	}
}

// probes times, outside the pipeline root, three pieces of work the
// pipeline performs where no public call boundary exists.
func (in *input) probes(tr *tracer, spec *config.Spec, rs *routesim.Result, ver *core.Verifier, counts map[string]float64) {
	root := tr.begin(probeRoot)
	defer tr.end(root)

	// Flow classification runs inside NewParallelVerifier; GlobalClasses
	// is the same classifier and grouping code, callable on its own.
	sp := tr.begin("core.classify")
	core.GlobalClasses(spec.Net, gen.Prefixes(spec), spec.Flows, false)
	tr.end(sp)

	// Each execution shard replays the route-sim guards into its private
	// manager; one replay into one fresh manager is the per-shard copy tax.
	if in.workers > 1 {
		sp = tr.begin("routesim.import")
		base := rs.NewImportBase()
		base.ImportInto(routesim.NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, in.sh.k))
		tr.end(sp)
		counts["routesim.import_nodes"] = float64(base.NumNodes())
	}

	// The legacy checker prunes (§6 early termination) and rarely builds a
	// whole link load; full aggregation is what the portfolio engine pays
	// instead, and at k=2 it costs several times the pruned check — too
	// much to repeat for every link in a run, so a fixed 1-in-4 sample of
	// the links is aggregated. Caches are dropped first so the
	// check that just ran does not subsidise it; the unique table still
	// holds its nodes, so this is a lower bound.
	if in.sh.pipe == pipeVerify {
		rs.Vars.M.ClearCaches()
		links := 0
		sp = tr.begin("core.aggregate")
		for li := 0; li < spec.Net.NumLinks(); li += aggregateStride {
			for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
				ver.LinkLoad(topo.MakeDirLinkID(topo.LinkID(li), d))
				links++
			}
		}
		tr.end(sp)
		counts["core.aggregate_links"] = float64(links)
	}
}

// aggregateStride is the sampling stride of the core.aggregate probe:
// both directions of every fourth link.
const aggregateStride = 4

// stagedModular is the compositional pipeline of yu.Network.Verify with
// Domains set: partition, compose.Build, then the ordinary checks on the
// assembled verifier. Route simulation and execution happen per domain
// inside Build, out of the driver's reach.
func (in *input) stagedModular(tr *tracer, reg *obs.Registry, counts map[string]float64, v *verdict) error {
	spec := v.spec
	sp := tr.begin("compose.build")
	part, err := topo.NewPartition(spec.Net, spec.Domains)
	if err != nil {
		return err
	}
	built, err := compose.Build(spec.Net, spec.Configs, part, spec.Flows, compose.Options{
		K: in.sh.k, Mode: topo.FailLinks, Workers: in.workers, Obs: reg,
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("compose.Build: %w", err)
	}
	st := built.Stats
	counts["compose.rounds"] = float64(st.Rounds)
	counts["compose.contained_classes"] = float64(st.ContainedClasses)
	counts["compose.fallback_classes"] = float64(st.FallbackClasses)
	counts["compose.domain_peak_nodes"] = float64(st.DomainPeakNodes)
	counts["core.classes"] = float64(st.ContainedClasses + st.FallbackClasses)

	sp = tr.begin("core.check")
	rep, err := built.Verifier.Run(spec.Props, spec.Delivered, overloadFactor)
	tr.end(sp)
	if err != nil {
		return err
	}
	core.RecordManager(reg, "primary", built.Engine.Manager())
	counts["core.flows_executed"] = float64(rep.FlowsExecuted)
	counts["core.links_checked"] = float64(len(rep.LinkStats))
	counts["core.kreduce_s"] = reg.Timer("check/kreduce").Total().Seconds()
	v.rep = reportOf(rep)
	sp = tr.begin("canon.format_report")
	v.text = canon.FormatReport(spec.Net, v.rep)
	tr.end(sp)
	return nil
}
