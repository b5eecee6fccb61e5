// Command perfbench is the repository's benchmark. It drives three
// workloads — ring (the DHT/SOMO resource pool), market (sched.Service
// at saturation) and stream (chunk delivery over planned trees) — by
// calling the layers' public functions directly, checks their outputs,
// and prints its metrics; the last line of standard output is one JSON
// object. See README.md for the metrics and the reasons behind them.
//
//	go run . --workload ring --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// worldSeed builds every workload's world: the pool, host placement
// and capacities, and the stream's sessions. It is fixed so that the
// run seed varies the workload's inputs on one world, and runs at
// different seeds measure the same system.
const worldSeed = 1

// workloadSpec builds a fresh world (the set-up) and returns its timed
// run. The run may be called once.
type workloadSpec struct {
	name string
	// repeats is how many times set-up runs; setup_s is the median.
	repeats int
	setup   func(tr *tracer) (func(tr *tracer) (*result, error), error)
}

func workloads(seed int64, seconds float64, workers int) []workloadSpec {
	return []workloadSpec{
		{"ring", 3, func(tr *tracer) (func(*tracer) (*result, error), error) {
			cfg := defaultRing(seed, seconds, workers)
			pool, err := buildPool(cfg, tr)
			if err != nil {
				return nil, err
			}
			rr, err := placeRing(cfg, pool, tr)
			if err != nil {
				return nil, err
			}
			return func(tr *tracer) (*result, error) { return runRing(rr, tr) }, nil
		}},
		{"market", 201, func(tr *tracer) (func(*tracer) (*result, error), error) {
			m, err := setupMarket(defaultMarket(seed, seconds), tr)
			if err != nil {
				return nil, err
			}
			return func(tr *tracer) (*result, error) { return runMarket(m, tr) }, nil
		}},
		{"stream", 15, func(tr *tracer) (func(*tracer) (*result, error), error) {
			st, err := setupStream(defaultStream(seed, seconds), tr)
			if err != nil {
				return nil, err
			}
			return func(tr *tracer) (*result, error) { return runStream(st, tr) }, nil
		}},
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measured is one timed run with its host-side measurements.
type measured struct {
	res         *result
	allocs, gcs uint64
	setupS      float64
}

// measure runs set-up repeats times (keeping the last world), then the
// timed run.
func measure(w workloadSpec, repeats int) (measured, error) {
	var run func(*tracer) (*result, error)
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		run = nil
		runtime.GC()
		start := cpuSeconds()
		var err error
		if run, err = w.setup(nil); err != nil {
			return measured{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, cpuSeconds()-start)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := run(nil)
	if err != nil {
		return measured{}, err
	}
	runtime.ReadMemStats(&after)
	return measured{
		res:    res,
		allocs: after.Mallocs - before.Mallocs,
		gcs:    uint64(after.NumGC - before.NumGC),
		setupS: median(setups),
	}, nil
}

func main() {
	workload := flag.String("workload", "", "ring, market, stream, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "run length: each workload's simulated length scales with it; at 15 a run takes 8 s (stream) to 40 s (market) on a 2-core host")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, tracing overhead, spans written under .bench_build/spans")
	flag.Parse()

	var chosen []workloadSpec
	for _, w := range workloads(*seed, *seconds, runtime.NumCPU()) {
		if *workload == w.name || *workload == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ring|market|stream|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	allCorrect := true
	for _, w := range chosen {
		var rep report
		var err error
		if *trace == 1 {
			rep, err = tracedRun(w, *seed)
		} else {
			rep, err = untracedRun(w)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		out, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		allCorrect = allCorrect && rep.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w workloadSpec) (report, error) {
	m, err := measure(w, w.repeats)
	if err != nil {
		return report{}, err
	}
	res := m.res
	rep := newReport(res)
	rep.Metrics = map[string]metric{
		"setup_s":      {m.setupS, "s"},
		"sim_rate":     {m.res.simRate(), "sim-s/cpu-s"},
		"peak_heap_mb": {res.heapMB, "MB"},
		"ok_rate":      {res.okRate(), "fraction"},
		"op_p50_ms":    {res.p50, "ms"},
		"op_p99_ms":    {res.p99, "ms"},
	}
	printReport(w.name, rep, res.checks)
	return rep, nil
}

func newReport(res *result) report {
	return report{Correct: len(res.failures()) == 0, Attempted: res.attempted, Failed: res.failed}
}

// printReport prints the metrics and checks in readable form.
func printReport(name string, rep report, checks []checkResult) {
	fmt.Printf("workload %s: attempted %d, failed %d\n", name, rep.Attempted, rep.Failed)
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Printf("  %-28s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	for _, c := range checks {
		if c.err != nil {
			fmt.Printf("  FAIL %s: %v\n", c.name, c.err)
		} else {
			fmt.Printf("  ok   %s\n", c.name)
		}
	}
}
