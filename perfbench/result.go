package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"

	"p2ppool/internal/alm"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/stats"
)

// result is one timed run of a workload. Everything except cpuS, rates
// and heapMB is simulated or counted, so it repeats exactly at a fixed
// seed.
type result struct {
	// cpuS is the CPU time the timed run took and simS its simulated
	// length, both in seconds; rates are the simulated seconds per CPU
	// second of each slice of the run.
	cpuS, simS float64
	rates      []float64
	// heapMB is the largest live heap at the end of any slice of the
	// timed run.
	heapMB float64

	// attempted counts the workload's operations; ok those that met
	// their target (a lookup at the true owner, a session admitted
	// within its class deadline, a chunk on time); failed those the
	// system got wrong (a lookup misdelivered or never delivered, a
	// (member, chunk) pair outside the outcome partition). A missed
	// deadline only lowers ok.
	attempted, ok, failed int
	// p50/p99 are the operation latency quantiles in simulated ms, over
	// the whole run and per half for the stationarity check.
	p50, p99 float64
	halves   [2]half

	// counts are the per-layer values the run computes from the layers'
	// own Stats/Totals/Counters/Finalize, all deterministic.
	counts map[string]float64

	violations     int
	firstViolation string
	// checks lists every correctness check in the order run; a nil
	// error is a pass.
	checks []checkResult

	// latencyCalls counts the planner's latency calls in traced runs.
	latencyCalls int64
}

type half struct {
	okRate, p50, p99 float64
}

type checkResult struct {
	name string
	err  error
}

func newResult() *result {
	return &result{counts: make(map[string]float64)}
}

func (r *result) check(name string, err error) {
	r.checks = append(r.checks, checkResult{name, err})
}

// failures returns the failed checks.
func (r *result) failures() []checkResult {
	var out []checkResult
	for _, c := range r.checks {
		if c.err != nil {
			out = append(out, c)
		}
	}
	return out
}

func (r *result) okRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.ok) / float64(r.attempted)
}

// setOps sets the latency quantiles from per-half samples.
func (r *result) setOps(lat [2][]float64) {
	all := append(append([]float64(nil), lat[0]...), lat[1]...)
	r.p50 = stats.Percentile(all, 50)
	r.p99 = stats.Percentile(all, 99)
	for h := range lat {
		r.halves[h].p50 = stats.Percentile(lat[h], 50)
		r.halves[h].p99 = stats.Percentile(lat[h], 99)
	}
}

// countLatency wraps a latency function so the calls the planner makes
// through it are counted; untraced runs get lat itself.
func (r *result) countLatency(lat alm.LatencyFunc, traced bool) alm.LatencyFunc {
	if !traced {
		return lat
	}
	return func(a, b int) float64 {
		r.latencyCalls++
		return lat(a, b)
	}
}

// advance runs the simulation from one virtual time to another in
// equal slices, timing each. The run's sim_rate is the median slice
// rate in simulated seconds per CPU second of the process. CPU time
// leaves out the time the process waits for a core, and on a
// paravirtualised host the time the hypervisor steals, which on a
// shared host move wall time by tens of percent from run to run; the
// median leaves out slices that a transient stall still reaches.
//
// Each slice is one span named eventsim.run_until; the heap reading
// between slices falls outside the spans.
func (r *result) advance(tr *tracer, run func(until eventsim.Time), from, to eventsim.Time, slices int) {
	for i := 1; i <= slices; i++ {
		until := from + (to-from)*eventsim.Time(i)/eventsim.Time(slices)
		prev := from + (to-from)*eventsim.Time(i-1)/eventsim.Time(slices)
		sp := tr.begin("eventsim.run_until", 0)
		start := cpuSeconds()
		run(until)
		cpu := cpuSeconds() - start
		tr.end(sp)
		sim := float64(until-prev) / float64(eventsim.Second)
		r.cpuS += cpu
		r.simS += sim
		r.rates = append(r.rates, sim/cpu)
		// Between slices no event is running, so after a collection
		// the live heap is exactly the simulation's resident state.
		runtime.GC()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(live)
		r.heapMB = math.Max(r.heapMB, float64(live[0].Value.Uint64())/1e6)
	}
}

func (r *result) simRate() float64 { return median(r.rates) }

// cpuSeconds returns the CPU time the process has used, user and
// system, summed over its threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// --- correctness checks, one function per check so each can be fed a
// corrupted result in tests ---

// checkRecords checks that the SOMO root snapshot holds every member's
// record.
func checkRecords(haveRoot bool, records, want int) error {
	if !haveRoot {
		return fmt.Errorf("no SOMO root")
	}
	if records != want {
		return fmt.Errorf("SOMO root holds %d records, want %d", records, want)
	}
	return nil
}

// checkTree checks that a planned tree is structurally valid, within
// every node's degree bound, and spans the root and every member.
func checkTree(t *alm.Tree, root int, members []int, bound alm.DegreeFunc) error {
	if t == nil {
		return fmt.Errorf("no tree")
	}
	if t.Root != root {
		return fmt.Errorf("tree rooted at %d, want %d", t.Root, root)
	}
	if err := t.Validate(bound); err != nil {
		return err
	}
	for _, m := range members {
		if !t.Contains(m) {
			return fmt.Errorf("member %d missing from the tree", m)
		}
	}
	return nil
}

// checkViolations checks that the invariant sweeps found nothing.
func checkViolations(n int, first string) error {
	if n > 0 {
		return fmt.Errorf("%d invariant violations, first: %s", n, first)
	}
	return nil
}

// checkPartition checks a pump's outcome partition: every expected
// (member, chunk) pair lands in exactly one bucket.
func checkPartition(st dataplane.Stats) error {
	sum := st.OnTimeTree + st.PullRecovered + st.Late + st.Lost
	if sum != st.Expected {
		return fmt.Errorf("on_time_tree %d + pull_recovered %d + late %d + lost %d = %d, expected %d",
			st.OnTimeTree, st.PullRecovered, st.Late, st.Lost, sum, st.Expected)
	}
	if st.TreeMisses != st.PullRecovered+st.Late+st.Lost {
		return fmt.Errorf("tree_misses %d != pull_recovered + late + lost = %d",
			st.TreeMisses, st.PullRecovered+st.Late+st.Lost)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
