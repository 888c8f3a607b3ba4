package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/serve"
	"github.com/yu-verify/yu/internal/topo"
)

// daemon is one in-process yud: serve.Server behind httptest, with its
// state directory (WAL, warm cache) under the benchmark's out directory
// and one keep-alive client connection.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
}

// startDaemon is the daemon workload's share of set-up: temp dir and
// server start. The spec is loaded by the first timed operation.
func startDaemon(in *input, outDir string) (*daemon, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "state-")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		K: in.sh.k, Mode: topo.FailLinks, ModeSet: true,
		OverloadFactor: overloadFactor, StatePath: dir,
	})
	d := &daemon{srv: srv, dir: dir}
	d.ts = httptest.NewServer(srv.Handler())
	d.client = d.ts.Client()
	return d, nil
}

func (d *daemon) close() {
	d.ts.Close()
	os.RemoveAll(d.dir)
}

// reply is what the benchmark reads of the daemon's JSON response bodies.
type reply struct {
	Report string `json:"report"`
	Error  string `json:"error"`
}

// call makes one request and reads the whole body; the returned
// duration is send → last body byte, which is what a client waits
// (less hypervisor steal, see stopwatch).
func (d *daemon) call(method, path string, body any) (time.Duration, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, d.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	watch := startWatch()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := watch.elapsed()
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return elapsed, data, nil
}

// callJSON is call for the endpoints that answer a reply.
func (d *daemon) callJSON(method, path string, body any) (time.Duration, reply, error) {
	elapsed, data, err := d.call(method, path, body)
	if err != nil {
		return 0, reply{}, err
	}
	var r reply
	if err := json.Unmarshal(data, &r); err != nil {
		return 0, reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if r.Error != "" {
		return 0, reply{}, fmt.Errorf("%s %s: %s", method, path, r.Error)
	}
	return elapsed, r, nil
}

// coldVerify is the daemon's verify_s operation: POST the spec, then GET
// the report — what a client pays to bring a fresh daemon to a verdict.
func (d *daemon) coldVerify(in *input) (time.Duration, string, error) {
	post, first, err := d.callJSON(http.MethodPost, "/v1/verify", map[string]string{"spec": in.specText})
	if err != nil {
		return 0, "", err
	}
	get, rep, err := d.callJSON(http.MethodGet, "/v1/report", nil)
	if err != nil {
		return 0, "", err
	}
	if rep.Report != first.Report {
		return 0, "", fmt.Errorf("GET /v1/report differs from the POST /v1/verify answer")
	}
	return post + get, rep.Report, nil
}

// deltasPerRound sets the script's rhythm: two writes, then one read, so
// a gain for one that costs the other shows in the same run.
const deltasPerRound = 2

// daemonSamples are the per-operation measurements of one scripted pass.
type daemonSamples struct {
	final   *verdict  // cold library verify of the daemon's final spec
	cold    []float64 // s
	deltaMS []float64
	tlpMS   []float64
	peakRSS float64 // MB, read when the script ends, before the cross-checks
}

// httpPass drives the whole daemon workload over HTTP, untraced: one
// cold verify of each input on a fresh daemon, then the delta/tlp script
// on the last one until budget is spent (never fewer than minRounds
// rounds), then the final cross-checks. d is the daemon set-up left
// running; httpPass closes it (or the fresh one that replaced it).
func (c *runConfig) httpPass(ins []*input, d *daemon, minRounds int, budget time.Duration) (*daemonSamples, error) {
	gt, gold := &c.gate, c.gold
	s := &daemonSamples{}
	begin := time.Now()
	defer func() { d.close() }()
	// The process's first cold verify grows the heap from nothing and reads
	// slow: input 0 is verified once untimed (v = -1) before the timed colds.
	for v := -1; v < len(ins); v++ {
		in := ins[max(v, 0)]
		if v >= 0 {
			d.close()
			quiesce()
			var err error
			d, err = startDaemon(in, c.outDir())
			if err != nil {
				return nil, err
			}
		}
		if v == len(ins)-1 {
			// peak_rss_mb is the footprint of the daemon that goes on to serve
			// the script: its cold verify and everything it keeps warm after.
			resetPeakRSS()
		}
		elapsed, text, err := d.coldVerify(in)
		gt.check(err == nil, "daemon: cold verify: %v", err)
		if err != nil {
			return nil, err
		}
		if v >= 0 {
			s.cold = append(s.cold, elapsed.Seconds())
		}
		gold.match(gt, fmt.Sprintf("cold.%d", max(v, 0)), text)
	}

	in := ins[len(ins)-1]
	rounds := min(len(in.deltas)/deltasPerRound, len(in.tlpTexts))
	var lastTLP, lastTLPText string
	for r := 0; r < rounds && (r < minRounds || time.Since(begin) < budget); r++ {
		for j := 0; j < deltasPerRound; j++ {
			i := r*deltasPerRound + j
			elapsed, rep, err := d.callJSON(http.MethodPost, "/v1/delta",
				map[string]any{"deltas": []serve.Delta{in.deltas[i]}, "verify": true})
			gt.check(err == nil, "daemon: delta %d (%s): %v", i, in.deltas[i].Op, err)
			if err != nil {
				continue
			}
			s.deltaMS = append(s.deltaMS, elapsed.Seconds()*1e3)
			gold.match(gt, fmt.Sprintf("delta.%d", i), rep.Report)
		}
		elapsed, rep, err := d.callJSON(http.MethodPost, "/v1/tlp", map[string]string{"portfolio": in.tlpTexts[r]})
		gt.check(err == nil, "daemon: tlp %d: %v", r, err)
		if err != nil {
			continue
		}
		s.tlpMS = append(s.tlpMS, elapsed.Seconds()*1e3)
		gold.match(gt, fmt.Sprintf("tlp.%d", r), rep.Report)
		lastTLP, lastTLPText = rep.Report, in.tlpTexts[r]
	}

	s.peakRSS = peakRSSMB()

	// Cross-path gate: whatever warm state the deltas left behind, the
	// daemon's answers must equal a cold library run on its final spec.
	_, specText, err := d.call(http.MethodGet, "/v1/spec", nil)
	if err != nil {
		return nil, err
	}
	_, final, err := d.callJSON(http.MethodGet, "/v1/report", nil)
	if err != nil {
		return nil, err
	}
	n, err := yu.LoadString(string(specText))
	if err != nil {
		return nil, fmt.Errorf("daemon: final /v1/spec text: %w", err)
	}
	opts := in.verifyOptions()
	rep, err := n.Verify(opts)
	gt.check(err == nil && canon.FormatReport(n.Topology(), rep) == final.Report,
		"daemon: final report differs from a cold verify of the final /v1/spec text (err %v)", err)
	if err == nil {
		s.final = &verdict{text: final.Report, spec: n.Spec(), rep: rep}
	}
	if lastTLP != "" {
		props, err := config.ParsePortfolioString(lastTLPText, n.Topology())
		if err != nil {
			return nil, err
		}
		opts.OverloadFactor = 0
		res, err := n.VerifyPortfolio(props, opts)
		gt.check(err == nil && canon.FormatPortfolio(n.Topology(), res) == lastTLP,
			"daemon: last /v1/tlp answer differs from a cold VerifyPortfolio on the final spec (err %v)", err)
	}
	return s, nil
}

// directResult is what the traced direct-call pass leaves for the
// staged cold runs that follow it.
type directResult struct {
	finalSpec   string // canonical spec text after the last delta
	finalReport string // the daemon's report for it
	tlpText     string // the last portfolio query
	tlpReport   string // and the daemon's answer
}

// directPass is the traced twin of httpPass on the input that carries
// the script (the last): its cold verify and the first rounds of the
// script through serve.Server's methods, a span around each. Every
// output goes through the same golden ops, so a text that differs from
// the HTTP pass (or the recorded digest) fails the gate.
func (c *runConfig) directPass(in *input, tr *tracer, rounds int) (*directResult, error) {
	d, err := startDaemon(in, c.outDir())
	if err != nil {
		return nil, err
	}
	defer d.close()
	srv := d.srv

	tr.newOp()
	root := tr.begin(pipelineRoot)
	sp := tr.begin("serve.load")
	_, err = srv.LoadSpecText(in.specText)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.report_cold")
	res, err := srv.Report()
	tr.end(sp)
	if err != nil || res.Err != nil {
		return nil, fmt.Errorf("cold report: %v %v", err, res.Err)
	}
	c.gold.match(&c.gate, fmt.Sprintf("cold.%d", variants-1), res.Text)

	out := &directResult{}
	var hit []float64
	fullInv := 0
	for r := 0; r < min(rounds, len(in.deltas)/deltasPerRound, len(in.tlpTexts)); r++ {
		for j := 0; j < deltasPerRound; j++ {
			i := r*deltasPerRound + j
			tr.newOp()
			sp = tr.begin("serve.apply")
			_, err = srv.ApplyDeltas([]serve.Delta{in.deltas[i]})
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("serve.report")
			res, err = srv.Report()
			tr.end(sp)
			if err != nil || res.Err != nil {
				return nil, fmt.Errorf("report after delta %d: %v %v", i, err, res.Err)
			}
			c.gold.match(&c.gate, fmt.Sprintf("delta.%d", i), res.Text)
			if n := res.Stats.CacheHits + res.Stats.CacheMisses; n > 0 {
				hit = append(hit, float64(res.Stats.CacheHits)/float64(n))
				if res.Stats.CacheHits == 0 {
					fullInv++
				}
			}
		}
		tr.newOp()
		sp = tr.begin("serve.tlp_eval")
		tres, err := srv.EvalPortfolioCtx(context.Background(), in.tlpTexts[r])
		tr.end(sp)
		if err != nil || tres.Err != nil {
			return nil, fmt.Errorf("tlp eval %d: %v %v", r, err, tres.Err)
		}
		c.gold.match(&c.gate, fmt.Sprintf("tlp.%d", r), tres.Text)
		out.tlpText, out.tlpReport = in.tlpTexts[r], tres.Text
	}
	tr.newOp()
	sp = tr.begin("serve.save_state")
	err = srv.SaveState()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.end(root)

	c.metrics["serve.cache_hit_ratio"] = median(hit)
	c.metrics["serve.full_invalidation_deltas"] = float64(fullInv)
	if fi, err := os.Stat(filepath.Join(d.dir, "delta.wal")); err == nil {
		c.metrics["serve.wal_bytes"] = float64(fi.Size())
	}
	// The current version is verified and cached, so a GET /v1/report now
	// costs only the HTTP layer: admission, JSON, loopback.
	var overhead []float64
	for i := 0; i < 5; i++ {
		elapsed, _, err := d.callJSON(http.MethodGet, "/v1/report", nil)
		if err != nil {
			return nil, err
		}
		overhead = append(overhead, elapsed.Seconds()*1e3)
	}
	c.metrics["serve.http_overhead_ms"] = median(overhead)
	out.finalSpec, _ = srv.SpecText()
	out.finalReport = res.Text
	return out, nil
}

// tracedRounds is the length of the traced direct-call pass: long enough
// for a median, short enough that the traced run fits beside the others.
const tracedRounds = 2

// runDaemon runs the daemon workload: the HTTP pass for the end-to-end
// numbers; in the traced modes, the direct-call pass and staged cold
// runs on its final spec for the per-layer ones.
func (c *runConfig) runDaemon() error {
	var ins []*input
	var d *daemon
	discard := func() {
		if d != nil {
			d.close()
			d = nil
		}
	}
	err := c.timeSetup(func() (err error) {
		if ins, err = generateAll(c.sh, c.seed); err != nil {
			return err
		}
		d, err = startDaemon(ins[0], c.outDir())
		return err
	}, discard)
	if err != nil {
		discard()
		return err
	}
	in := ins[len(ins)-1] // the input the script runs on
	witnessRNG := rand.New(rand.NewSource(c.seed))
	if c.trace == traceOnly {
		discard() // the traced pass starts its own
	} else {
		budget := time.Duration(c.seconds * float64(time.Second))
		s, err := c.httpPass(ins, d, c.sh.minIters, budget)
		if err != nil {
			return err
		}
		if len(s.deltaMS) == 0 || len(s.tlpMS) == 0 {
			return fmt.Errorf("daemon: no delta or tlp request succeeded")
		}
		c.logSamples("verify_s", s.cold)
		c.logSamples("delta_p50_ms", s.deltaMS)
		c.logSamples("tlp_query_p50_ms", s.tlpMS)
		c.metrics["verify_s"] = median(s.cold)
		c.metrics["delta_p50_ms"] = median(s.deltaMS)
		c.metrics["tlp_query_p50_ms"] = median(s.tlpMS)
		c.metrics["peak_rss_mb"] = s.peakRSS
		c.samples["verify_s"], c.samples["delta_p50_ms"], c.samples["tlp_query_p50_ms"] = len(s.cold), len(s.deltaMS), len(s.tlpMS)
		if s.final != nil {
			replayWitnesses(&c.gate, s.final, c.sh.k, witnessRNG)
		}
	}
	if c.trace == traceOff {
		return nil
	}

	quiesce()
	tr, reg := newTracer(), obs.New()
	before := readRuntime()
	dr, err := c.directPass(in, tr, tracedRounds)
	c.gate.check(err == nil, "daemon: direct pass: %v", err)
	if err != nil {
		return err
	}
	// The layers below serve are out of reach inside Server.Report and
	// EvalPortfolioCtx, so their breakdown comes from the staged pipelines
	// on the daemon's final spec — which are also the cold runs its last
	// answers must equal.
	cold := &input{sh: c.sh, specText: dr.finalSpec, workers: 1}
	cold.sh.pipe = pipeVerify
	staged, err := cold.verifyStaged(tr, reg, c.metrics)
	c.gate.check(err == nil && staged.text == dr.finalReport,
		"daemon: final report differs from a staged cold verify of the final spec (err %v)", err)
	if err != nil {
		return err
	}
	cold.sh.pipe = pipePortfolio
	if cold.props, err = config.ParsePortfolioString(dr.tlpText, staged.spec.Net); err != nil {
		return err
	}
	port, err := cold.verifyStaged(tr, reg, c.metrics)
	c.gate.check(err == nil && port.text == dr.tlpReport,
		"daemon: last tlp answer differs from a staged cold portfolio run on the final spec (err %v)", err)
	if err != nil {
		return err
	}
	c.setRuntime(before, readRuntime())
	if err := probeFormatSpec(tr, staged.spec); err != nil {
		return err
	}
	c.setTraceMetrics(tr, reg, 0)
	if coldS := c.metrics["serve.report_cold_s"]; coldS > 0 {
		c.metrics["serve.warm_vs_cold"] = c.metrics["serve.report_s"] / coldS
	}
	if c.trace == traceOnly {
		replayWitnesses(&c.gate, staged, c.sh.k, witnessRNG)
	}
	return tr.write(c.outDir(), c.name, c.seed)
}
