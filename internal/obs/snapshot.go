package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CacheCounters is one cache's cumulative hit/miss tally. The counters
// are cumulative over the manager's lifetime: ClearCaches (and GC,
// which calls it) drops cache *contents*, never the counters.
type CacheCounters struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// ManagerStats is one MTBDD manager's end-of-life stats snapshot,
// mirrored from mtbdd.Stats without importing it (obs is a leaf
// package). Caches is keyed by cache name: fused, kreduce, neg,
// range. CacheBytes is what the manager's unique and terminal tables and
// computed tables held when it was recorded — the first two grow with the
// nodes they hold, so it says what the manager cost, not what it was born
// with. NodeBytes is what its node slabs held then: over Live, the bytes a
// live node costs in slabs.
type ManagerStats struct {
	Name         string                   `json:"name"`
	Created      int                      `json:"created"`
	Live         int                      `json:"live"`
	PeakLive     int                      `json:"peak_live"`
	GCRuns       uint64                   `json:"gc_runs"`
	KReduceCalls uint64                   `json:"kreduce_calls"`
	FusionCuts   uint64                   `json:"fusion_cuts"`
	MaxProbe     int                      `json:"max_probe"`
	CacheBytes   uint64                   `json:"cache_bytes"`
	NodeBytes    uint64                   `json:"node_bytes"`
	Caches       map[string]CacheCounters `json:"caches"`
}

// PhaseStat is one aggregated phase span. Paths are slash-separated
// ("check/kreduce" nests under "check"); Count is how many spans
// completed under the path.
type PhaseStat struct {
	Path  string  `json:"path"`
	MS    float64 `json:"ms"`
	Count int64   `json:"count"`
}

// TimerStat is one named timer's aggregate.
type TimerStat struct {
	MS    float64 `json:"ms"`
	Count int64   `json:"count"`
}

// Snapshot is the serializable view of a Registry, the payload behind
// `yu -metrics=json` and the daemon's /v1/metrics.
type Snapshot struct {
	Phases   []PhaseStat              `json:"phases"`
	Counters map[string]int64         `json:"counters"`
	TimersMS map[string]TimerStat     `json:"timers"`
	Managers []ManagerStats           `json:"managers"`
	Caches   map[string]CacheCounters `json:"caches"`
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes a human-oriented rendering: the phase tree, cache
// efficacy table, per-manager node counts, then counters and timers in
// sorted order.
func (s *Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "phases:\n"); err != nil {
		return err
	}
	for _, p := range s.Phases {
		if _, err := fmt.Fprintf(w, "  %-24s %10.1f ms  x%d\n", p.Path, p.MS, p.Count); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "caches (cumulative, all managers):\n")
	for _, name := range knownCaches {
		cc := s.Caches[name]
		total := cc.Hits + cc.Misses
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(cc.Hits) / float64(total)
		}
		fmt.Fprintf(w, "  %-8s hits %12d  misses %12d  (%.1f%% hit)\n", name, cc.Hits, cc.Misses, rate)
	}
	if len(s.Managers) > 0 {
		fmt.Fprintf(w, "managers:\n")
		for _, m := range s.Managers {
			fmt.Fprintf(w, "  %-20s created %d live %d peak %d gc %d kreduce-calls %d nodes %.1f MB tables %.1f MB\n",
				m.Name, m.Created, m.Live, m.PeakLive, m.GCRuns, m.KReduceCalls, float64(m.NodeBytes)/(1<<20), float64(m.CacheBytes)/(1<<20))
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-32s %d\n", k, s.Counters[k])
		}
	}
	if len(s.TimersMS) > 0 {
		fmt.Fprintf(w, "timers:\n")
		for _, k := range sortedKeys(s.TimersMS) {
			t := s.TimersMS[k]
			fmt.Fprintf(w, "  %-32s %10.1f ms  x%d\n", k, t.MS, t.Count)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
