package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"p2ppool/internal/stats"
)

// tracedRun measures the per-layer metrics: an untraced reference run
// (for the tracing overhead), then a traced set-up and run whose spans
// give each layer's busy and self time. Both runs must agree on every
// simulated result — tracing has no observer effect. The spans are
// written under .bench_build/spans in the current directory.
func tracedRun(w workloadSpec, seed int64) (report, error) {
	ref, err := measure(w, w.repeats)
	if err != nil {
		return report{}, err
	}
	runtime.GC()
	tr := newTracer()
	run, err := w.setup(tr)
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res, err := run(tr)
	if err != nil {
		return report{}, err
	}
	res.check("tracing changes no simulated result", sameSim(ref.res, res))
	for i, m := range []string{"ok_rate", "op_p50_ms", "op_p99_ms"} {
		res.check("stationary "+m, stationary(m, res.halves, i))
	}

	st := tr.stats()
	p50, p99 := 0.0, 0.0
	if s := st["sched.tick"]; s != nil {
		p50, p99 = median(s.Durs), stats.Percentile(s.Durs, 99)
	}
	c := res.counts
	plans, failures := c["sched.plans"], c["sched.plan_failures"]
	ratio := 0.0
	if plans+failures > 0 {
		ratio = plans / (plans + failures)
	}
	v := map[string]float64{
		"topology.generate_s":      layerBusy(st, "topology.generate"),
		"bandwidth.estimate_s":     layerBusy(st, "bandwidth.estimate_all"),
		"dht.build_s":              layerBusy(st, "dht.build_ring"),
		"coords.solve_s":           layerBusy(st, "coords.solve_leafset"),
		"eventsim.self_s":          layerSelf(st, "eventsim"),
		"eventsim.events_per_s":    c["eventsim.events"] / ref.res.cpuS,
		"alm.plan_s":               layerBusy(st, "alm.amcast", "alm.plan_with_helpers", "alm.adjust"),
		"alm.latency_calls":        float64(res.latencyCalls),
		"sched.tick_s":             layerBusy(st, "sched.tick"),
		"sched.tick_p50_ms":        p50,
		"sched.tick_p99_ms":        p99,
		"sched.submit_s":           layerBusy(st, "sched.submit"),
		"sched.node_failed_s":      layerBusy(st, "sched.node_failed"),
		"sched.node_recovered_s":   layerBusy(st, "sched.node_recovered"),
		"sched.add_member_s":       layerBusy(st, "sched.add_member"),
		"sched.end_session_s":      layerBusy(st, "sched.end_session"),
		"sched.plan_success_ratio": ratio,
		"dataplane.self_s":         layerSelf(st, "dataplane"),
		"invariant.sweep_s":        layerBusy(st, "invariant.sweep"),
		"invariant.violations":     float64(res.violations),
		"runtime.allocs":           float64(ref.allocs),
		"runtime.gc_cycles":        float64(ref.gcs),
		"trace.sim_rate":           res.simRate(),
		"trace.overhead":           1 - res.simRate()/ref.res.simRate(),
		"trace.spans":              float64(len(tr.spans)),
	}
	for _, name := range perLayerCounts {
		v[name] = c[name]
	}
	rep := newReport(res)
	rep.Metrics = make(map[string]metric, len(v))
	for k, x := range v {
		rep.Metrics[k] = metric{x, perLayerUnit(k)}
	}
	printReport(w.name+" (traced)", rep, res.checks)
	fmt.Printf("  stationarity (first half / second half): ok_rate %.6g / %.6g, op_p50_ms %.6g / %.6g, op_p99_ms %.6g / %.6g\n",
		res.halves[0].okRate, res.halves[1].okRate, res.halves[0].p50, res.halves[1].p50, res.halves[0].p99, res.halves[1].p99)
	total, self := tr.timedShares("eventsim.run_until")
	fmt.Printf("  self time as a share of the traced timed run (%.3f s):", total)
	for _, layer := range sortedKeys(self) {
		fmt.Printf(" %s %.1f%%", layer, 100*self[layer]/total)
	}
	fmt.Println()
	if v["coords.solve_s"] > 0 {
		setup := layerBusy(st, "topology.generate", "netmodel.new", "alm.paper_degrees", "coords.solve_leafset",
			"bandwidth.estimate_all", "dht.build_ring", "somo.new_agents")
		fmt.Printf("  coords.solve_s is %.1f%% of the set-up's layer calls (%.3f s)\n", 100*v["coords.solve_s"]/setup, setup)
	}
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv.gz", w.name, seed))
	start := time.Now()
	if err := tr.write(path); err != nil {
		return report{}, err
	}
	fmt.Printf("  %d spans written to %s in %.1f s\n", len(tr.spans), path, time.Since(start).Seconds())
	return rep, nil
}

// perLayerCounts are the per-layer metrics read straight from the
// run's counts.
var perLayerCounts = []string{
	"coords.err_p50",
	"eventsim.events",
	"transport.msgs", "transport.bytes", "transport.msgs_per_node_s",
	"dht.heartbeats", "dht.routed", "dht.lookup_hops_mean", "dht.neighbor_failures",
	"somo.depth", "somo.records", "somo.staleness_ms",
	"alm.helpers", "alm.height_ms", "alm.tree_improvement",
	"sched.plans", "sched.plan_failures", "sched.replans", "sched.repairs",
	"sched.preemptions", "sched.preempt_deferred", "sched.peak_live", "sched.rejected",
	"sched.shed_deadline", "sched.shed_overload", "sched.shed_budget",
	"dataplane.tx_mb", "dataplane.expected", "dataplane.on_time_tree",
	"dataplane.pull_recovered", "dataplane.late", "dataplane.lost", "dataplane.tree_misses",
	"dataplane.duplicates", "dataplane.pulls_sent", "dataplane.pull_yield",
	"dataplane.source_offload", "dataplane.delivered_kbps",
	"faultnet.crashes", "faultnet.restarts",
}

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "events_per_s"):
		return "1/s"
	case strings.HasSuffix(name, ".bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_kbps"):
		return "kbps"
	case strings.HasSuffix(name, "msgs_per_node_s"):
		return "1/s"
	case strings.HasSuffix(name, "sim_rate"):
		return "sim-s/cpu-s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "err_p50"), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_yield"),
		strings.HasSuffix(name, "_offload"), strings.HasSuffix(name, "_improvement"), strings.HasSuffix(name, "overhead"):
		return "fraction"
	}
	return "count"
}

// sameSim checks that two runs of one world agree on every simulated
// result and count.
func sameSim(a, b *result) error {
	if a.attempted != b.attempted || a.ok != b.ok || a.failed != b.failed {
		return fmt.Errorf("operations %d/%d/%d vs %d/%d/%d", a.attempted, a.ok, a.failed, b.attempted, b.ok, b.failed)
	}
	if a.p50 != b.p50 || a.p99 != b.p99 || a.halves != b.halves {
		return fmt.Errorf("latency quantiles differ")
	}
	if !reflect.DeepEqual(a.counts, b.counts) {
		for _, k := range sortedKeys(b.counts) {
			if a.counts[k] != b.counts[k] {
				return fmt.Errorf("%s: %v vs %v", k, a.counts[k], b.counts[k])
			}
		}
		return fmt.Errorf("count sets differ")
	}
	return nil
}

// stationary checks that the first and second half of a run agree on
// one metric within its bound (as a share of their mean).
func stationary(name string, h [2]half, i int) error {
	vals := [2]float64{}
	for k := range h {
		vals[k] = [3]float64{h[k].okRate, h[k].p50, h[k].p99}[i]
	}
	mean := (vals[0] + vals[1]) / 2
	if mean == 0 {
		return nil
	}
	if d := math.Abs(vals[0]-vals[1]) / mean; d > bounds[name] {
		return fmt.Errorf("%s: first half %.6g, second half %.6g differ by %.3f, bound %.3f", name, vals[0], vals[1], d, bounds[name])
	}
	return nil
}

// bounds are the simulated end-to-end metrics' regression bounds, as
// declared in BENCHMARK.json (TestBoundsMatchBenchmarkJSON keeps them
// equal).
var bounds = map[string]float64{
	"ok_rate":   0.1,
	"op_p50_ms": 0.1,
	"op_p99_ms": 0.25,
}
