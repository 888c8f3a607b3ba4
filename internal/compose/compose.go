// Package compose implements compositional verification (DESIGN.md §17):
// the topology is partitioned into AS-closed domains, each domain is
// route-simulated and symbolically executed on its own subnet in a
// private MTBDD manager, and the finished per-class STFs are assembled
// into one check engine that scans and verifies exactly as a monolithic
// run would.
//
// The scaling wall this breaks is monolithic MTBDD state: a domain
// manager holds the guard layer and execution wavefronts of one domain
// only, so peak live nodes drop roughly with the domain count, and a
// network whose monolithic route simulation blows a node budget can
// still be verified domain by domain.
//
// Interface summaries. Route state crosses a domain boundary as border
// advertisement templates: per (border router, prefix), the rank-group
// representatives' AS paths and selection guards (routesim.BorderAdv).
// Because domains are AS-closed, every cross-domain session is eBGP and
// this pair is *exactly* what the receiver's decision process consumes —
// the summary is lossless for routing. The guards are transferred
// between managers with the mtbdd.Snapshot machinery; since every domain
// manager declares the full global failure-variable order
// (routesim.NewFailVarsAliased), a replayed guard is structurally
// canonical in its destination.
//
// The per-domain BGP steppers run in lockstep — one synchronous round
// across all domains, summaries re-exchanged between rounds — so every
// member router sees byte-identical advertisements, in the identical
// order, as in the monolithic run. Member RIBs are therefore equal by
// induction, and a flow whose traffic never crosses a border link has a
// byte-identical STF. Flows that do cross a border (or keep traffic in
// flight at the iteration cap) are beyond a summary's precision limit:
// they fall back to whole-network symbolic execution on the check
// engine, which then carries a full monolithic route simulation — the
// PR 3 fallback-ladder contract, never a silent drop.
package compose

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// Options configures a compositional build. K is the KReduce budget
// (use -1 with CheckK set for the no-reduction ablation), mirroring the
// monolithic pipeline's conventions. Workers is accepted and ignored: the
// check engine executes and checks on one manager.
type Options struct {
	K        int
	CheckK   int
	Mode     topo.FailureMode
	Workers  int
	MaxNodes int
	Ctx      context.Context
	Obs      *obs.Registry

	DisableLinkLocalEquiv bool
	DisableGlobalEquiv    bool
}

// Stats summarizes a compositional build.
type Stats struct {
	Domains     int
	BorderLinks int
	// Rounds is how many lockstep BGP rounds reached the fixed point (a
	// build whose rounds do not converge is an error, not a Built).
	Rounds int
	// ContainedClasses were executed inside a domain; FallbackClasses
	// crossed a summary's precision limit and were executed monolithically
	// on the check engine.
	ContainedClasses int
	FallbackClasses  int
	// DomainPeakNodes is the largest per-domain manager's live node count
	// after execution — the number the monolithic peak is compared against.
	DomainPeakNodes int
	// RouteSim sums the domains' route-simulation costs (BGPRounds is
	// Domains × Rounds: every domain steps every lockstep round).
	RouteSim routesim.Stats
}

// Built is a ready-to-check compositional verifier: run checks through
// Verifier exactly as with the monolithic pipeline.
type Built struct {
	Verifier *core.Verifier
	Engine   *core.Engine
	Stats    Stats
}

// stubRef locates one border stub inside a domain subnet.
type stubRef struct {
	global topo.RouterID // global ID of the stub router
	local  topo.RouterID // subnet ID inside the consuming domain
	home   int           // domain that owns the router
}

// Build runs the compositional pipeline: per-domain route simulation in
// lockstep with summary exchange, per-domain symbolic execution of the
// contained equivalence classes, and assembly into a check engine over
// the global failure variables. Any error means the input could not be
// verified compositionally (or the run was governed short) — the caller
// falls back to the monolithic path, which reproduces either the verdict
// or the error. The exception is *routesim.ErrNotConverged: the lockstep
// rounds are the monolithic rounds, so a retry would not converge either.
func Build(net *topo.Network, cfgs config.Configs, part *topo.Partition, flows []topo.Flow, opts Options) (*Built, error) {
	nd := part.NumDomains()
	st := Stats{Domains: nd, BorderLinks: len(part.BorderLinks())}

	// Extract the subnets and build one governed manager per domain with
	// the aliased global variable order.
	subs := make([]*topo.Subnet, nd)
	mgrs := make([]*mtbdd.Manager, nd)
	fvs := make([]*routesim.FailVars, nd)
	for d := 0; d < nd; d++ {
		sub, err := part.Subnet(d)
		if err != nil {
			return nil, err
		}
		subs[d] = sub
		m := mtbdd.New()
		if opts.MaxNodes > 0 {
			m.SetNodeBudget(opts.MaxNodes)
		}
		if ctx := opts.Ctx; ctx != nil && ctx != context.Background() {
			m.SetInterrupt(func() error { return govern.Check(ctx) })
		}
		mgrs[d] = m
		fvs[d] = routesim.NewFailVarsAliased(m, net, sub, opts.Mode, opts.K)
	}

	// Per-domain IGP. IS-IS is strictly intra-AS and domains are
	// AS-closed, so each member AS computes on its complete link set and
	// the guards are byte-identical to the monolithic run's.
	igps := make([]*routesim.IGP, nd)
	for d := 0; d < nd; d++ {
		d := d
		if err := mtbdd.Guard(func() { igps[d] = routesim.ComputeIGP(fvs[d]) }); err != nil {
			return nil, err
		}
	}

	// Lockstep BGP: all domains advance one synchronous round at a time,
	// border advertisement templates exchanged between rounds.
	steppers := make([]*routesim.Stepper, nd)
	for d := 0; d < nd; d++ {
		d := d
		if err := mtbdd.Guard(func() {
			steppers[d] = routesim.NewStepper(fvs[d], cfgs, igps[d], subs[d].Member, nil)
		}); err != nil {
			return nil, err
		}
	}
	// feeds[d] is what domain d consumes: its border stubs, one group per
	// home domain (ascending), each group sorted by global ID. One snapshot
	// per group carries a round's templates across.
	feeds := make([][][]stubRef, nd)
	exported := make(map[topo.RouterID]int)
	for d := 0; d < nd; d++ {
		seen := make(map[topo.RouterID]bool)
		var stubs []stubRef
		for local, member := range subs[d].Member {
			if member {
				continue
			}
			g := subs[d].ToGlobalRouter[local]
			if seen[g] {
				continue
			}
			seen[g] = true
			home := part.Domain[g]
			stubs = append(stubs, stubRef{global: g, local: topo.RouterID(local), home: home})
			exported[g] = home
		}
		sort.Slice(stubs, func(i, j int) bool {
			if stubs[i].home != stubs[j].home {
				return stubs[i].home < stubs[j].home
			}
			return stubs[i].global < stubs[j].global
		})
		for lo := 0; lo < len(stubs); {
			hi := lo
			for hi < len(stubs) && stubs[hi].home == stubs[lo].home {
				hi++
			}
			feeds[d] = append(feeds[d], stubs[lo:hi])
			lo = hi
		}
	}
	exportOrder := make([]topo.RouterID, 0, len(exported))
	for g := range exported {
		exportOrder = append(exportOrder, g)
	}
	sort.Slice(exportOrder, func(i, j int) bool { return exportOrder[i] < exportOrder[j] })

	maxRounds := net.RoundBound()
	rounds, converged := 0, false
	tpls := make(map[topo.RouterID]routesim.BorderTemplates, len(exportOrder))
	lockstep := func() error {
		for round := 1; ; round++ {
			if err := govern.Check(opts.Ctx); err != nil {
				return err
			}
			// Export this round's templates from every border member
			// (every key of tpls is overwritten).
			for _, g := range exportOrder {
				home := exported[g]
				if err := mtbdd.Guard(func() {
					tpls[g] = steppers[home].BorderAdvs(subs[home].RouterIndex[g])
				}); err != nil {
					return err
				}
			}
			// Inject into each consuming domain, one snapshot per source
			// domain batching every stub it feeds: the templates are copied
			// with each selection guard's slot noted, and the slots are
			// filled from the replay.
			for d := 0; d < nd; d++ {
				for _, group := range feeds[d] {
					var roots []*mtbdd.Node
					var sels []**mtbdd.Node
					mapped := make([]routesim.BorderTemplates, len(group))
					for gi, s := range group {
						src := tpls[s.global]
						if len(src) == 0 {
							continue
						}
						mapped[gi] = make(routesim.BorderTemplates, len(src))
						for pfx, advs := range src {
							out := make([]routesim.BorderAdv, len(advs))
							for i, a := range advs {
								out[i].ASPath = a.ASPath
								roots = append(roots, a.Sel)
								sels = append(sels, &out[i].Sel)
							}
							mapped[gi][pfx] = out
						}
					}
					snap, at := mtbdd.NewSnapshot(roots)
					var table []*mtbdd.Node
					if err := mtbdd.Guard(func() { table = mgrs[d].ImportSnapshot(snap) }); err != nil {
						return err
					}
					for i, sel := range sels {
						*sel = table[at[i]]
					}
					for gi, s := range group {
						steppers[d].SetStubAdvs(s.local, mapped[gi])
					}
				}
			}
			// One synchronous round everywhere; global stability is the
			// conjunction of per-domain member stability.
			stable := true
			for d := 0; d < nd; d++ {
				d := d
				var ok bool
				if err := mtbdd.Guard(func() { ok = steppers[d].Round() }); err != nil {
					return err
				}
				if !ok {
					stable = false
				}
			}
			rounds = round
			if stable {
				converged = true
				return nil
			}
			if round >= maxRounds {
				return nil
			}
		}
	}
	if err := lockstep(); err != nil {
		return nil, err
	}
	st.Rounds = rounds

	// Finish per-domain route simulation: SR policies and statics of the
	// domain's own routers. A member config that does not resolve inside
	// its subnet (e.g. an SR segment or indirect static pointing at a
	// router of another domain) makes the domain incomposable — surfaced
	// as an error so the caller falls back to the monolithic path.
	results := make([]*routesim.Result, nd)
	var notConverged *routesim.ErrNotConverged
	for d := 0; d < nd; d++ {
		memberCfgs := make(config.Configs)
		for name, rc := range cfgs {
			if r, ok := subs[d].Net.RouterByName(name); ok && subs[d].Member[r.ID] {
				memberCfgs[name] = rc
			}
		}
		d := d
		var rerr error
		if err := mtbdd.Guard(func() {
			results[d], rerr = routesim.FinishRun(fvs[d], memberCfgs, igps[d], steppers[d].Finish(rounds, converged))
		}); err != nil {
			return nil, err
		}
		var nc *routesim.ErrNotConverged
		if errors.As(rerr, &nc) {
			// The lockstep fixed point is one global verdict; collect every
			// domain's moving entries into the one error.
			if notConverged == nil {
				notConverged = &routesim.ErrNotConverged{Rounds: rounds}
			}
			notConverged.Changing = append(notConverged.Changing, nc.Changing...)
			continue
		}
		if rerr != nil {
			return nil, rerr
		}
		st.RouteSim.Add(results[d].Stats)
	}
	if notConverged != nil {
		return nil, notConverged
	}

	// The global prefix union: every member RIB's prefixes plus every
	// member static. Members partition the network and their RIBs are
	// byte-identical to the monolithic run's, so this is exactly the
	// prefix set the monolithic classifier would see — passed to every
	// engine (domain and check) via ClassifyPrefixes so destination
	// classes, and therefore equivalence classes and their order, agree
	// everywhere.
	pfxSet := make(map[netip.Prefix]struct{})
	for d := 0; d < nd; d++ {
		for local, member := range subs[d].Member {
			if !member {
				continue
			}
			for pfx := range results[d].BGP.RIBs[local] {
				pfxSet[pfx] = struct{}{}
			}
			for _, gs := range results[d].Statics[local] {
				pfxSet[gs.Prefix] = struct{}{}
			}
		}
	}
	prefixes := make([]netip.Prefix, 0, len(pfxSet))
	for pfx := range pfxSet {
		prefixes = append(prefixes, pfx)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if prefixes[i].Bits() != prefixes[j].Bits() {
			return prefixes[i].Bits() > prefixes[j].Bits()
		}
		return prefixes[i].Addr().Less(prefixes[j].Addr())
	})

	// Global equivalence classes, assigned to domains by ingress.
	reps, _ := core.GlobalClasses(net, prefixes, flows, opts.DisableGlobalEquiv)
	classesOf := make([][]int, nd)
	for i, rep := range reps {
		d := part.Domain[rep.Ingress]
		classesOf[d] = append(classesOf[d], i)
	}

	// The iteration bound must be derived from the global network (the
	// monolithic engine derives it from diameter + longest SR path), so a
	// contained flow executes the same number of wavefront steps in its
	// domain as it would monolithically.
	maxIter := net.HopBound(cfgs.LongestSRPath())

	// Execute every class inside its domain, domains in parallel (each
	// has a private manager). A class that cannot fit a domain budget
	// simply joins the precision-fallback set.
	engOpts := core.Options{
		MaxIterations:         maxIter,
		DisableLinkLocalEquiv: opts.DisableLinkLocalEquiv,
		DisableGlobalEquiv:    opts.DisableGlobalEquiv,
		CheckK:                opts.CheckK,
		Ctx:                   opts.Ctx,
		NodeBudget:            opts.MaxNodes,
		Obs:                   opts.Obs,
		ClassifyPrefixes:      prefixes,
	}
	// Each domain seals the STFs it contained, with their global link IDs,
	// in class order; contained[d] lists their classes.
	sealed := make([]*core.SealedSTFs, nd)
	contained := make([][]int, nd)
	fatal := make([]error, nd)
	var wg sync.WaitGroup
	for d := 0; d < nd; d++ {
		if len(classesOf[d]) == 0 {
			continue
		}
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			sub := subs[d]
			eng := core.NewEngine(results[d], engOpts)
			borderDirs := make(map[topo.DirLinkID]bool, 2*len(sub.Border))
			for _, bl := range sub.Border {
				borderDirs[topo.MakeDirLinkID(bl, topo.AtoB)] = true
				borderDirs[topo.MakeDirLinkID(bl, topo.BtoA)] = true
			}
			zero := mgrs[d].Zero()
			var done, kept []*core.FlowSTF
			for _, ci := range classesOf[d] {
				rep := reps[ci]
				local := rep
				local.Ingress = sub.RouterIndex[rep.Ingress]
				s, err := eng.ExecuteGoverned(local, done)
				if err != nil {
					if errors.Is(err, govern.ErrNodeBudget) {
						// This class outgrew the domain budget; the check
						// engine re-executes it monolithically.
						continue
					}
					fatal[d] = err
					return
				}
				done = append(done, s)
				// Containment audit: traffic that crossed a border link —
				// or was still in flight at the iteration cap — escapes
				// the domain's view, so the STF is only trusted when
				// neither happened.
				inside := s.InFlight == zero
				if inside {
					for dl := range s.Links {
						if borderDirs[dl] {
							inside = false
							break
						}
					}
				}
				if inside {
					kept = append(kept, core.TranslateSTF(s, sub.ToGlobalLink, rep))
					contained[d] = append(contained[d], ci)
				}
			}
			sealed[d] = core.SealSTFs(kept)
		}(d)
	}
	wg.Wait()
	for d := 0; d < nd; d++ {
		if fatal[d] != nil {
			return nil, fatal[d]
		}
		if mgrs[d].Stats().Live > st.DomainPeakNodes {
			st.DomainPeakNodes = mgrs[d].Stats().Live
		}
		core.RecordManager(opts.Obs, fmt.Sprintf("domain.%s", part.Names[d]), mgrs[d])
		st.ContainedClasses += len(contained[d])
	}
	st.FallbackClasses = len(reps) - st.ContainedClasses

	// Assemble the check engine over the global failure variables. When
	// every class was contained the route-sim result is empty — the check
	// manager never holds global guard state, only the final STFs. With
	// fallback classes it carries a full monolithic route simulation, so
	// those classes execute exactly as the monolithic pipeline would.
	mCheck := mtbdd.New()
	if opts.MaxNodes > 0 {
		mCheck.SetNodeBudget(opts.MaxNodes)
	}
	fvCheck := routesim.NewFailVars(mCheck, net, opts.Mode, opts.K)
	var rsCheck *routesim.Result
	if st.FallbackClasses > 0 {
		var err error
		rsCheck, err = routesim.RunContext(opts.Ctx, fvCheck, cfgs, nil)
		if err != nil {
			return nil, err
		}
		st.RouteSim.Add(rsCheck.Stats)
	} else {
		rsCheck = routesim.EmptyResult(fvCheck)
	}
	eng := core.NewEngine(rsCheck, engOpts)
	ver := core.NewAssembledVerifier(eng, flows, sealed, contained)
	return &Built{Verifier: ver, Engine: eng, Stats: st}, nil
}
