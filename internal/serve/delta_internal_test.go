// White-box tests of the delta path: a batch is applied to a copy of the
// current version's spec, which it never writes, and gives the text the
// plain path gives (parse, apply, render); an accepted delta parses once.
package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
)

// referenceApply is the plain delta path: parse the text, apply the batch to
// that parse, render it.
func referenceApply(text string, deltas []Delta) (string, error) {
	spec, err := config.ParseSpecString(text)
	if err != nil {
		return "", err
	}
	for _, d := range deltas {
		if err := applyDelta(spec, d); err != nil {
			return "", err
		}
	}
	return canon.FormatSpec(spec)
}

// unwritten holds a version's spec to its text: the spec still renders to it
// byte for byte.
func unwritten(t *testing.T, v *version, what string) {
	t.Helper()
	got, err := canon.FormatSpec(v.spec)
	if err != nil {
		t.Fatalf("%s: version %d no longer renders: %v", what, v.id, err)
	}
	if got != v.text {
		t.Fatalf("%s: version %d's spec was written: it renders %d bytes, its text is %d", what, v.id, len(got), len(v.text))
	}
}

// TestDeltaLeavesItsBaseUnwritten: every op of the delta vocabulary, and a
// batch whose second delta is rejected, leaves the version it started from
// as it was, and an accepted batch's text is the plain path's.
func TestDeltaLeavesItsBaseUnwritten(t *testing.T) {
	spec, text, cfg := daemonSized(t)
	s := NewServer(cfg)
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	apply := func(what string, deltas []Delta) {
		t.Helper()
		prev := s.cur.Load()
		want, err := referenceApply(prev.text, deltas)
		if err != nil {
			t.Fatalf("%s: the plain path rejects the batch: %v", what, err)
		}
		if _, err := s.ApplyDeltas(deltas); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		unwritten(t, prev, what)
		if got := s.cur.Load().text; got != want {
			t.Fatalf("%s: the new text differs from the plain path's", what)
		}
	}
	for _, k := range deltaKinds(t, spec) {
		if k.setup != nil {
			apply(k.op+" setup", k.setup)
		}
		apply(k.op, k.do)
		apply(k.op+" undo", k.undo)
	}

	// A prefix of a batch of every op — the removals, which filter in place,
	// first, so that the additions after them are valid — then a rejected
	// delta. Each removed entry has another after it in its list, which a
	// removal in place would shift.
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	kinds := deltaKinds(t, spec)
	var tails []Delta
	for _, k := range kinds {
		if k.setup != nil {
			apply(k.op+" setup", k.setup)
			tail := k.setup[0]
			tail.Flow, tail.Prefix = "tail", "198.51.100.0/24"
			if tail.Op == "add-flow" {
				tail.Prefix = ""
			}
			tails = append(tails, tail)
		}
	}
	apply("tails", tails)
	var batch []Delta
	for _, removal := range []bool{true, false} {
		for _, k := range kinds {
			if (k.setup != nil) == removal {
				batch = append(batch, k.do...)
			}
		}
	}
	for _, bad := range []struct {
		Delta
		why string
	}{
		{Delta{Op: "add-flow", Flow: "neg", Ingress: spec.Net.Routers[0].Name, Src: "10.250.0.2", Dst: spec.Flows[0].Dst.String(), Gbps: -60},
			"(add-flow): gbps must be a positive finite number, got -60"},
		{Delta{Op: "remove-static", Router: spec.Net.Routers[0].Name, Prefix: "203.0.113.0/24"},
			"(remove-static): " + spec.Net.Routers[0].Name + " has no static for 203.0.113.0/24"},
	} {
		prev := s.cur.Load()
		for i := range batch {
			if _, err := referenceApply(prev.text, batch[:i+1]); err != nil {
				t.Fatalf("the first %d deltas of the batch are rejected: %v", i+1, err)
			}
			rejected := append(append([]Delta(nil), batch[:i+1]...), bad.Delta)
			if _, err := s.ApplyDeltas(rejected); err == nil || !strings.Contains(err.Error(), bad.why) {
				t.Fatalf("a batch ending in %+v: error %v, want one naming %q", bad.Delta, err, bad.why)
			}
			if s.cur.Load() != prev {
				t.Fatalf("a rejected batch published a version")
			}
			unwritten(t, prev, "rejected batch after "+batch[i].Op)
		}
	}
}

// TestAcceptedDeltaParsesOnce: an accepted delta allocates less than two
// parses of its spec do. buildVersion parses the new text once; the batch
// itself is applied to a copy of the current version's spec, not to a parse
// of its text.
func TestAcceptedDeltaParsesOnce(t *testing.T) {
	spec, text, cfg := daemonSized(t)
	parse := testing.AllocsPerRun(2, func() {
		if _, err := config.ParseSpecString(text); err != nil {
			t.Fatal(err)
		}
	})
	s := NewServer(cfg)
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	k := deltaKinds(t, spec)[2] // add-static, then its removal
	n := 0
	delta := testing.AllocsPerRun(4, func() {
		d := k.do
		if n%2 == 1 {
			d = k.undo
		}
		n++
		if _, err := s.ApplyDeltas(d); err != nil {
			t.Fatal(err)
		}
	})
	if delta >= 1.5*parse {
		t.Fatalf("a delta allocates %.0f times, one parse %.0f: the delta parses more than once", delta, parse)
	}
}

// TestDeltaPrefixesMasked: a delta's prefix names what the spec parser reads
// it as, host bits masked — a static or an export-deny added with host bits
// is removed by either spelling, and adding one twice in two spellings adds
// it once.
func TestDeltaPrefixesMasked(t *testing.T) {
	base, err := os.ReadFile(filepath.Join("..", "..", "testdata", "motivating.yu"))
	if err != nil {
		t.Fatal(err)
	}
	static := func(op, pfx string) Delta { return Delta{Op: op, Router: "B", Prefix: pfx, Discard: true} }
	deny := func(op, pfx string) Delta { return Delta{Op: op, Router: "F", Neighbor: "10.0.0.5", Prefix: pfx} }
	for _, row := range []struct {
		name         string
		setup, batch []Delta
		// want is the batch whose text the row's gives; nil: the base text.
		want []Delta
	}{
		{"remove-static with host bits after add-static with them",
			[]Delta{static("add-static", "55.0.0.1/8")}, []Delta{static("remove-static", "55.0.0.1/8")}, nil},
		{"add-static with host bits, remove-static masked, one batch",
			nil, []Delta{static("add-static", "55.0.0.1/8"), static("remove-static", "55.0.0.0/8")}, nil},
		{"add-export-deny with host bits, remove-export-deny masked, one batch",
			nil, []Delta{deny("add-export-deny", "100.0.0.9/24"), deny("remove-export-deny", "100.0.0.0/24")}, nil},
		{"add-export-deny in two spellings",
			nil, []Delta{deny("add-export-deny", "100.0.0.9/24"), deny("add-export-deny", "100.0.0.0/24")}, []Delta{deny("add-export-deny", "100.0.0.0/24")}},
	} {
		s := NewServer(Config{})
		if _, err := s.LoadSpecText(string(base)); err != nil {
			t.Fatal(err)
		}
		want, _ := s.SpecText()
		if row.want != nil {
			if want, err = referenceApply(want, row.want); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		}
		for _, ds := range [][]Delta{row.setup, row.batch} {
			if ds == nil {
				continue
			}
			if _, err := s.ApplyDeltas(ds); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		}
		if got, _ := s.SpecText(); got != want {
			t.Errorf("%s: the text is\n%s\nwant\n%s", row.name, got, want)
		}
	}
}

// FuzzDeltaHTTP posts arbitrary bodies to /v1/delta. No body gets a 5xx or
// panics the daemon; a rejected body leaves /v1/spec and the version as they
// were; an accepted body's text is the version the plain path's text
// (referenceApply) builds.
func FuzzDeltaHTTP(f *testing.F) {
	base, err := os.ReadFile(filepath.Join("..", "..", "testdata", "motivating.yu"))
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"deltas":[{"op":"add-static","router":"B","prefix":"55.0.0.0/8","discard":true}]}`,
		`{"deltas":[{"op":"add-static","router":"B","prefix":"55.0.0.0/8","next_hop":"2.3.0.2"},{"op":"remove-static","router":"B","prefix":"55.0.0.0/8"}]}`,
		`{"deltas":[{"op":"add-static","router":"A","prefix":"99.0.0.0/8","next_hop":"4.5.0.2"}]}`,
		`{"deltas":[{"op":"set-link-cost","a":"C","b":"E","cost":5}],"verify":true}`,
		`{"deltas":[{"op":"set-local-pref","router":"C","neighbor":"10.0.0.4","local_pref":200}]}`,
		`{"deltas":[{"op":"add-export-deny","router":"F","neighbor":"10.0.0.5","prefix":"100.0.0.0/24"},{"op":"remove-export-deny","router":"F","neighbor":"10.0.0.5","prefix":"100.0.0.0/24"}]}`,
		`{"deltas":[{"op":"add-flow","flow":"f3","ingress":"C","src":"11.0.0.3","dst":"100.0.0.3","gbps":-60}]}`,
		`{"deltas":[{"op":"add-flow","flow":"f3","ingress":"C","src":"11.0.0.3","dst":"100.0.0.3","dscp":5,"gbps":1e308}]}`,
		`{"deltas":[{"op":"remove-flow","flow":"f1"},{"op":"remove-flow","flow":"f1"}]}`,
		`{"deltas":[{"op":"add-static","router":"B","prefix":"55.0.0.1/8","discard":true}]}`,
		`{"deltas":[{"op":"add-static","router":"B","prefix":"55.0.0.1/8","discard":true},{"op":"remove-static","router":"B","prefix":"55.0.0.0/8"}]}`,
		`{"deltas":[{"op":"add-export-deny","router":"F","neighbor":"10.0.0.5","prefix":"100.0.0.9/24"},{"op":"remove-export-deny","router":"F","neighbor":"10.0.0.5","prefix":"100.0.0.0/24"}]}`,
		`{"deltas":[]}`,
		`{"deltas":[{"op":"reboot"}]}`,
		`{"deltas":`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := NewServer(Config{})
		if _, err := s.LoadSpecText(string(base)); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		spec := func() (string, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/spec", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /v1/spec: %d %s", rec.Code, rec.Body)
			}
			return rec.Body.String(), rec.Header().Get("X-Yu-Version")
		}
		text0, id0 := spec()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/delta", strings.NewReader(string(body))))
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/delta answered %d: %s", rec.Code, rec.Body)
		}
		text, id := spec()
		if id == id0 {
			if rec.Code == http.StatusOK {
				t.Fatalf("answered 200 but published no version: %s", rec.Body)
			}
			if text != text0 {
				t.Fatal("a rejected body changed /v1/spec")
			}
			return
		}
		if want := strconv.FormatInt(s.Version(), 10); id != want {
			t.Fatalf("/v1/spec cites version %s, the server %s", id, want)
		}
		var req deltaRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("a body that does not decode was accepted: %v", err)
		}
		if rec.Code != http.StatusOK && !(req.Verify && rec.Code == http.StatusConflict) {
			t.Fatalf("published a version but answered %d: %s", rec.Code, rec.Body)
		}
		want, err := referenceApply(text0, req.Deltas)
		if err != nil {
			t.Fatalf("accepted a batch the plain path rejects: %v", err)
		}
		// A non-canonical operand renders as given and becomes canonical in
		// the version's own render-and-compare.
		ref, err := (&Server{}).buildVersion(want)
		if err != nil {
			t.Fatalf("accepted a batch whose plain-path text builds no version: %v", err)
		}
		if text != ref.text {
			t.Fatalf("accepted text differs from the plain path's\n--- got\n%s--- want\n%s", text, ref.text)
		}
	})
}
