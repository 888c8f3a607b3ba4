package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// gate tallies the correctness verdict of a run: every timed operation
// and every cross-check is one attempt, and any miss is a failure that
// the final line reports (failed, correct) and failed_share divides.
type gate struct {
	attempted, failed int
	notes             []string
}

// check records one attempt; ok=false is a failure explained by the
// formatted note.
func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

func (g *gate) share() float64 {
	if g.attempted == 0 {
		return 0
	}
	return float64(g.failed) / float64(g.attempted)
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// golden is the recorded SHA-256 of every canonical output a workload
// produces at the default seed and full size, one "<op> <hex>" line per
// operation (batch workloads have verify.V, one per input of the run;
// the daemon has cold.V, delta.N and tlp.N).
type golden struct {
	path    string
	want    map[string]string
	got     map[string]string
	enabled bool
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, "golden", workload+".sha256")
}

// loadGolden reads a workload's digests. They only describe the default
// seed at full size; anywhere else the gate is off and the cross-path
// and witness checks carry correctness.
func loadGolden(dir, workload string, enabled bool) (*golden, error) {
	g := &golden{path: goldenPath(dir, workload), want: map[string]string{}, got: map[string]string{}, enabled: enabled}
	if !enabled {
		return g, nil
	}
	f, err := os.Open(g.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 {
			g.want[fields[0]] = fields[1]
		}
	}
	return g, sc.Err()
}

// match gates one operation's output: it must repeat what the same
// operation produced earlier in this run (another iteration, the other
// pass), and where digests are recorded it must match its own.
func (g *golden) match(gt *gate, op, text string) {
	d := digest(text)
	if prev, seen := g.got[op]; seen {
		gt.check(prev == d, "%s: output differs from an earlier %s of this run", op, op)
		return
	}
	g.got[op] = d
	if g.enabled {
		want, ok := g.want[op]
		gt.check(ok && want == d, "golden: %s digest %s, recorded %q", op, d, want)
	}
}

// write records the digests seen in this run (-update-golden).
func (g *golden) write() error {
	ops := make([]string, 0, len(g.got))
	for op := range g.got {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var sb strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&sb, "%s %s\n", op, g.got[op])
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(g.path, []byte(sb.String()), 0o644)
}

// Witness replay tolerances, as in internal/difftest: float noise of
// ECMP fraction arithmetic, and the verifier's own epsilon slack at a
// bound.
const (
	replayTol  = 1e-6
	replaySlop = 3 * replayTol
)

// Witnesses replayed per run: up to maxWitnesses while replayBudget
// lasts, and never fewer than minWitnesses (a concrete scenario on the
// 120-router WAN with 6000 flows takes most of a second).
const (
	maxWitnesses = 16
	minWitnesses = 2
	replayBudget = 2 * time.Second
)

// replayWitnesses re-runs a seeded sample of the reported violation
// witnesses through internal/concrete — an independent, non-symbolic
// simulator — and requires each to reproduce the reported value and to
// genuinely cross its bound. A right verdict with a wrong witness fails
// here and nowhere else.
func replayWitnesses(gt *gate, v *verdict, k int, rng *rand.Rand) {
	spec := v.spec
	sim := concrete.NewSim(spec.Net, spec.Configs)
	type witness struct {
		label   string
		links   []topo.LinkID
		routers []topo.RouterID
		ok      func(res *concrete.ScenarioResult) error
	}
	var all []witness
	if v.rep != nil {
		for i, viol := range v.rep.Violations {
			viol := viol
			all = append(all, witness{
				label: fmt.Sprintf("violation %d (%s)", i, viol.Kind), links: viol.FailedLinks, routers: viol.FailedRouters,
				ok: func(res *concrete.ScenarioResult) error {
					var conc float64
					switch viol.Kind {
					case "link-load":
						conc = res.Load[viol.Link]
					case "delivered":
						conc = deliveredInto(spec, res, viol.Prefix.Contains)
					default:
						return fmt.Errorf("unknown kind")
					}
					if math.Abs(conc-viol.Value) > replayTol {
						return fmt.Errorf("reported %.9g, concrete re-run %.9g", viol.Value, conc)
					}
					if !crosses(conc, viol.Min, viol.Max) {
						return fmt.Errorf("concrete %.9g inside [%.9g, %.9g]", conc, viol.Min, viol.Max)
					}
					return nil
				},
			})
		}
	}
	if v.port != nil {
		for i, vd := range v.port.Verdicts {
			if vd.Status != tlp.StatusViolated {
				continue
			}
			p, vd := v.port.Props[i], vd
			all = append(all, witness{
				label: fmt.Sprintf("property %d (%s)", i, p.Kind), links: vd.FailedLinks, routers: vd.FailedRouters,
				ok: func(res *concrete.ScenarioResult) error { return replayProp(spec, res, p, vd) },
			})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > maxWitnesses {
		all = all[:maxWitnesses]
	}
	start := time.Now()
	for i, w := range all {
		if i >= minWitnesses && time.Since(start) > replayBudget {
			break
		}
		if n := len(w.links) + len(w.routers); n > k {
			gt.check(false, "witness: %s has %d failures, budget %d", w.label, n, k)
			continue
		}
		sc := concrete.NewScenario(spec.Net)
		for _, l := range w.links {
			sc.LinkDown[l] = true
		}
		for _, r := range w.routers {
			sc.RouterDown[r] = true
		}
		err := w.ok(sim.Simulate(sc, spec.Flows))
		gt.check(err == nil, "witness: %s: %v", w.label, err)
	}
}

func crosses(conc, min, max float64) bool {
	return (!math.IsInf(max, 1) && conc > max-replaySlop) || (min > 0 && conc < min+replaySlop)
}

func deliveredInto(spec *config.Spec, res *concrete.ScenarioResult, contains func(netip.Addr) bool) float64 {
	total := 0.0
	for fi, f := range spec.Flows {
		if contains(f.Dst) {
			total += res.Delivered[fi]
		}
	}
	return total
}

// replayProp checks one violated portfolio property against the
// concrete loads of its witness scenario: some subject of the property
// must carry exactly the reported value, beyond the bound.
func replayProp(spec *config.Spec, res *concrete.ScenarioResult, p topo.TLProp, vd tlp.Verdict) error {
	net := spec.Net
	dirs := func(link topo.LinkID, one bool) []topo.DirLinkID {
		if one {
			return []topo.DirLinkID{topo.MakeDirLinkID(link, p.Dir)}
		}
		return []topo.DirLinkID{topo.MakeDirLinkID(link, topo.AtoB), topo.MakeDirLinkID(link, topo.BtoA)}
	}
	switch p.Kind {
	case topo.TLPLinkLoad:
		for _, dl := range dirs(p.Link, p.DirSpecified) {
			if conc := res.Load[dl]; math.Abs(conc-vd.Value) <= replayTol && crosses(conc, p.Min, p.Max) {
				return nil
			}
		}
		return fmt.Errorf("reported %.9g not reproduced on %s", vd.Value, net.LinkName(p.Link))
	case topo.TLPUtil:
		links := []topo.LinkID{p.Link}
		if p.AllLinks {
			links = links[:0]
			for li := 0; li < net.NumLinks(); li++ {
				links = append(links, topo.LinkID(li))
			}
		}
		for _, li := range links {
			limit := p.Factor * net.Link(li).Capacity
			for _, dl := range dirs(li, !p.AllLinks && p.DirSpecified) {
				if conc := res.Load[dl]; math.Abs(conc-vd.Value) <= replayTol && conc > limit-replaySlop {
					return nil
				}
			}
		}
		return fmt.Errorf("utilization %.9g reproduced on no link", vd.Value)
	case topo.TLPDelivered:
		conc := deliveredInto(spec, res, p.Prefix.Contains)
		if math.Abs(conc-vd.Value) > replayTol {
			return fmt.Errorf("reported %.9g, concrete delivered %.9g", vd.Value, conc)
		}
		if !crosses(conc, p.Min, p.Max) {
			return fmt.Errorf("delivered %.9g inside [%.9g, %.9g]", conc, p.Min, p.Max)
		}
		return nil
	}
	return fmt.Errorf("property kind %s is not generated by this benchmark", p.Kind)
}
