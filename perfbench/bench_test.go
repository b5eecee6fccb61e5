package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"

	"p2ppool/internal/alm"
	"p2ppool/internal/core"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/topology"
)

// The ring's pool is built layer by layer so each layer gets its own
// span; it must be exactly the pool core.BuildFast builds.
func TestPoolMatchesBuildFast(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1200-host pool twice")
	}
	cfg := defaultRing(1, 15, runtime.NumCPU())
	got, err := buildPool(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BuildFast(core.Options{Seed: cfg.WorldSeed, Workers: cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Degrees, want.Degrees) {
		t.Error("Degrees differ from core.BuildFast")
	}
	if !reflect.DeepEqual(got.Coords, want.Coords) {
		t.Error("Coords differ from core.BuildFast")
	}
	if !reflect.DeepEqual(got.Bandwidth, want.Bandwidth) {
		t.Error("Bandwidth differs from core.BuildFast")
	}
}

// Small versions of the three workloads, for the determinism test.
func smallRing(seed int64, workers int) ringConfig {
	cfg := defaultRing(seed, 1, workers)
	top := topology.DefaultConfig()
	top.StubDomainsPerTransit, top.StubPerDomain, top.Hosts = 1, 2, 200
	cfg.Topology = top
	cfg.Runtime = 60 * eventsim.Second
	cfg.LookupStart = 20 * eventsim.Second
	cfg.GroupSize = 20
	return cfg
}

func smallMarket(seed int64) marketConfig {
	cfg := defaultMarket(seed, 1)
	cfg.Hosts, cfg.ArrivalRate = 400, 0.4
	cfg.Warmup, cfg.Window = 60*eventsim.Second, 60*eventsim.Second
	return cfg
}

func smallStream(seed int64) streamConfig {
	cfg := defaultStream(seed, 1)
	cfg.Hosts, cfg.Sessions, cfg.GroupSize = 900, 2, 30
	cfg.Replicas, cfg.Chunks = 2, 20
	return cfg
}

func runSmall(t *testing.T, workload string, seed int64, workers int, tr *tracer) *result {
	t.Helper()
	var res *result
	var err error
	switch workload {
	case "ring":
		cfg := smallRing(seed, workers)
		pool, perr := buildPool(cfg, tr)
		if perr != nil {
			t.Fatal(perr)
		}
		rr, perr := placeRing(cfg, pool, tr)
		if perr != nil {
			t.Fatal(perr)
		}
		res, err = runRing(rr, tr)
	case "market":
		m, serr := setupMarket(smallMarket(seed), tr)
		if serr != nil {
			t.Fatal(serr)
		}
		res, err = runMarket(m, tr)
	case "stream":
		st, serr := setupStream(smallStream(seed), tr)
		if serr != nil {
			t.Fatal(serr)
		}
		res, err = runStream(st, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.failures() {
		t.Errorf("%s: check %q failed: %v", workload, c.name, c.err)
	}
	return res
}

// Every simulated metric and every count repeats exactly across runs
// and across worker counts. Only the ring and its pool build run on
// several workers; market and stream are single-threaded.
func TestDeterminism(t *testing.T) {
	for _, w := range []string{"ring", "market", "stream"} {
		t.Run(w, func(t *testing.T) {
			a := runSmall(t, w, 3, 1, nil)
			b := runSmall(t, w, 3, runtime.NumCPU(), nil)
			c := runSmall(t, w, 3, runtime.NumCPU(), nil)
			if err := sameSim(a, b); err != nil {
				t.Errorf("Workers 1 vs %d: %v", runtime.NumCPU(), err)
			}
			if err := sameSim(b, c); err != nil {
				t.Errorf("two runs: %v", err)
			}
			if a.attempted == 0 {
				t.Error("no operations attempted")
			}
		})
	}
}

// Tracing must not change what is simulated, and every span a layer
// call records inside the timed run nests under an eventsim.run_until
// span (the ring's lookups are recorded from its shard goroutines).
func TestTracingHasNoObserverEffect(t *testing.T) {
	for _, w := range []string{"ring", "market", "stream"} {
		t.Run(w, func(t *testing.T) {
			plain := runSmall(t, w, 5, runtime.NumCPU(), nil)
			tr := newTracer()
			traced := runSmall(t, w, 5, runtime.NumCPU(), tr)
			if err := sameSim(plain, traced); err != nil {
				t.Error(err)
			}
			nested := map[string]string{"ring": "dht.route", "market": "sched.tick", "stream": "dataplane.timer"}[w]
			found := false
			for _, s := range tr.spans {
				if tr.names[s.Name] != nested {
					continue
				}
				found = true
				if s.Parent < 0 || tr.names[tr.spans[s.Parent].Name] != "eventsim.run_until" {
					t.Fatalf("%s span not nested in eventsim.run_until", nested)
				}
			}
			if !found {
				t.Fatalf("no %s spans; have %v", nested, sortedKeys(tr.stats()))
			}
		})
	}
}

// --- each correctness check rejects a corrupted result ---

func TestCheckLookups(t *testing.T) {
	sorted := []ids.ID{100, 200, 300}
	issued := map[int64]lookup{1: {ID: 1, Key: 150}, 2: {ID: 2, Key: 350}}
	good := []delivery{{ID: 1, By: 200}, {ID: 2, By: 100}}
	if out := checkLookups(issued, good, sorted); out.err != nil || out.failed != 0 || len(out.first) != 2 {
		t.Fatalf("correct deliveries rejected: %+v", out)
	}
	wrongOwner := []delivery{{ID: 1, By: 300}, {ID: 2, By: 100}}
	if out := checkLookups(issued, wrongOwner, sorted); out.err == nil || out.failed != 1 {
		t.Errorf("delivery to the wrong owner accepted: %+v", out)
	}
	lost := []delivery{{ID: 1, By: 200}}
	if out := checkLookups(issued, lost, sorted); out.err == nil || out.failed != 1 {
		t.Errorf("undelivered lookup accepted: %+v", out)
	}
	twice := []delivery{{ID: 1, By: 200}, {ID: 1, By: 200}, {ID: 2, By: 100}}
	if out := checkLookups(issued, twice, sorted); out.err == nil {
		t.Error("duplicate delivery accepted")
	}
}

func TestCheckRecords(t *testing.T) {
	if err := checkRecords(true, 1200, 1200); err != nil {
		t.Fatal(err)
	}
	if checkRecords(true, 1199, 1200) == nil {
		t.Error("missing record accepted")
	}
	if checkRecords(false, 0, 1200) == nil {
		t.Error("missing root accepted")
	}
}

func TestCheckTree(t *testing.T) {
	tree := alm.NewTree(0)
	for _, e := range [][2]int{{1, 0}, {2, 0}, {3, 1}} {
		if err := tree.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	two := func(int) int { return 2 }
	if err := checkTree(tree, 0, []int{1, 2, 3}, two); err != nil {
		t.Fatal(err)
	}
	if checkTree(tree, 0, []int{1, 2, 3}, func(int) int { return 1 }) == nil {
		t.Error("degree overflow accepted")
	}
	if checkTree(tree, 0, []int{1, 2, 3, 4}, two) == nil {
		t.Error("missing member accepted")
	}
	if checkTree(tree, 1, []int{2, 3}, two) == nil {
		t.Error("wrong root accepted")
	}
}

func TestCheckViolations(t *testing.T) {
	if err := checkViolations(0, ""); err != nil {
		t.Fatal(err)
	}
	if checkViolations(1, "sched/ledger") == nil {
		t.Error("violation accepted")
	}
}

func TestCheckPartition(t *testing.T) {
	good := dataplane.Stats{Expected: 10, OnTimeTree: 6, PullRecovered: 2, Late: 1, Lost: 1, TreeMisses: 4}
	if err := checkPartition(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Late++
	if checkPartition(bad) == nil {
		t.Error("pair counted twice accepted")
	}
	bad = good
	bad.TreeMisses = 3
	if checkPartition(bad) == nil {
		t.Error("tree-miss mismatch accepted")
	}
}

func TestStationary(t *testing.T) {
	steady := [2]half{{okRate: 0.6, p50: 100, p99: 1000}, {okRate: 0.61, p50: 102, p99: 1100}}
	for i, m := range []string{"ok_rate", "op_p50_ms", "op_p99_ms"} {
		if err := stationary(m, steady, i); err != nil {
			t.Fatal(err)
		}
	}
	drift := [2]half{{p99: 1000}, {p99: 2000}}
	if stationary("op_p99_ms", drift, 2) == nil {
		t.Error("drifting p99 accepted")
	}
}

// The stationarity check uses the bounds BENCHMARK.json declares.
func TestBoundsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m.Bound
	}
	for name, b := range bounds {
		if d, ok := declared[name]; !ok || d != b {
			t.Errorf("%s: stationarity bound %v, BENCHMARK.json declares %v (present %v)", name, b, d, ok)
		}
	}
}

func TestSameSim(t *testing.T) {
	a := newResult()
	a.counts["eventsim.events"] = 10
	b := newResult()
	b.counts["eventsim.events"] = 10
	if err := sameSim(a, b); err != nil {
		t.Fatal(err)
	}
	b.counts["eventsim.events"] = 11
	if sameSim(a, b) == nil {
		t.Error("differing counts accepted")
	}
}
