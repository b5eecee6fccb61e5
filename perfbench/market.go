package main

import (
	"fmt"
	"math"
	"math/rand"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/invariant"
	"p2ppool/internal/sched"
	"p2ppool/internal/transport"
)

// marketConfig is the market workload: the load study's steady cell —
// sched.Service at saturation under Poisson arrivals and churn, with
// continuous invariant sweeps.
type marketConfig struct {
	Hosts       int
	ArrivalRate float64 // sessions per simulated second
	// Warmup runs before measurement starts, long enough for live
	// sessions to reach their steady count; Window is the measured
	// stretch after it.
	Warmup eventsim.Time
	Window eventsim.Time
	// WorldSeed places the hosts and draws their degree bounds; Seed
	// draws the arrivals and the crash schedule.
	WorldSeed int64
	Seed      int64
}

func defaultMarket(seed int64, seconds float64) marketConfig {
	return marketConfig{
		Hosts:       8000,
		ArrivalRate: 8,
		Warmup:      600 * eventsim.Second,
		Window:      eventsim.Time(160*seconds) * eventsim.Second,
		WorldSeed:   worldSeed,
		Seed:        seed,
	}
}

// The load study's steady-cell session shape and churn.
const (
	marketGroupSize    = 4 // hosts per session, the root included
	marketLifetimeMean = 5 * eventsim.Minute
	marketCrashRate    = 4 // crashes per simulated minute
	marketRestartDelay = 20 * eventsim.Second
	marketDetectDelay  = 2 * eventsim.Second
)

// The control plane's periods, shared by market and stream: Tick every
// 250 ms as in the load and stream studies, and continuous invariant
// sweeps every 5 s.
const (
	tickEvery  = 250 * eventsim.Millisecond
	sweepEvery = 5 * eventsim.Second
)

// euclideanWorld places hosts uniformly on a 200x200 plane: latency is
// 5 ms plus Euclidean distance, a metric, so the planner's indexed
// helper search is exact.
func euclideanWorld(hosts int, r *rand.Rand) alm.LatencyFunc {
	xs := make([]float64, hosts)
	ys := make([]float64, hosts)
	for h := 0; h < hosts; h++ {
		xs[h] = r.Float64() * 200
		ys[h] = r.Float64() * 200
	}
	return func(a, b int) float64 {
		if a == b {
			return 0
		}
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return 5 + math.Sqrt(dx*dx+dy*dy)
	}
}

// arrival is one session arrival.
type arrival struct {
	at, life eventsim.Time
	id       sched.SessionID
	pri      int
	roster   []int // root first
}

// arrivals draws Poisson arrivals one at a time: priorities split
// 20/30/50, distinct rosters, exponential lifetimes. Drawing each
// arrival only when the previous one fires keeps the event queue, and
// so the measured heap, free of the inputs still to come.
type arrivals struct {
	rate  float64 // sessions per simulated second
	hosts int
	rng   *rand.Rand
	at    eventsim.Time
	id    sched.SessionID
}

// next draws the next arrival.
func (g *arrivals) next() arrival {
	g.at += eventsim.Time(g.rng.ExpFloat64() / g.rate * float64(eventsim.Second))
	g.id++
	pri := 3
	switch u := g.rng.Float64(); {
	case u < 0.2:
		pri = 1
	case u < 0.5:
		pri = 2
	}
	roster := make([]int, 0, marketGroupSize)
	seen := make(map[int]bool, marketGroupSize)
	for len(roster) < marketGroupSize {
		if h := g.rng.Intn(g.hosts); !seen[h] {
			seen[h] = true
			roster = append(roster, h)
		}
	}
	return arrival{
		at:     g.at,
		life:   eventsim.Time(g.rng.ExpFloat64() * float64(marketLifetimeMean)),
		id:     g.id,
		pri:    pri,
		roster: roster,
	}
}

// crashScript schedules crashes of uniformly drawn victims over
// [from, end), each restarting after the restart delay; gap draws the
// time to the next crash.
func crashScript(f *faultnet.Net, victims []int, gap func() eventsim.Time, restart, from, end eventsim.Time, rng *rand.Rand) {
	for at := from + gap(); at < end; at += gap() {
		v := transport.Addr(victims[rng.Intn(len(victims))])
		f.CrashAt(at, v)
		f.RestartAt(at+restart, v)
	}
}

// controlPlane is the sched.Service wiring the market and stream
// workloads share: churn detection, the Tick loop and continuous
// invariant sweeps, each call wrapped in a span of the current tracer.
type controlPlane struct {
	engine *eventsim.Engine
	f      *faultnet.Net
	sv     *sched.Service
	tr     *tracer // nil while untraced (and during warm-up)
	res    *result
	err    error
	// detect is the crash detection delay before NodeFailed.
	detect eventsim.Time

	downSince map[int]eventsim.Time
	ireg      *invariant.Registry
	world     *invariant.World
}

func newControlPlane(engine *eventsim.Engine, f *faultnet.Net, sv *sched.Service, bounds []int, detect eventsim.Time, res *result) *controlPlane {
	cp := &controlPlane{engine: engine, f: f, sv: sv, res: res, detect: detect,
		downSince: make(map[int]eventsim.Time), ireg: invariant.NewRegistry()}
	cp.world = &invariant.World{
		Sched:  sv.Scheduler(),
		Bounds: bounds,
		Down:   func(h int) bool { return f.Crashed(transport.Addr(h)) },
		DownSince: func(h int) (eventsim.Time, bool) {
			t, ok := cp.downSince[h]
			return t, ok
		},
		RepairLag: detect + tickEvery + 2*eventsim.Second,
	}
	return cp
}

func (cp *controlPlane) fail(err error) {
	if cp.err == nil {
		cp.err = err
	}
}

// wireChurn routes crash detection (after the detection delay) to
// NodeFailed and restarts to NodeRecovered, then calls onRestart.
func (cp *controlPlane) wireChurn(onRestart func(h int)) {
	cp.f.OnCrash(func(a transport.Addr) {
		h := int(a)
		cp.downSince[h] = cp.f.Now()
		cp.f.After(cp.detect, func() {
			if cp.f.Crashed(a) {
				sp := cp.tr.begin("sched.node_failed", 0)
				cp.sv.NodeFailed(cp.f.Now(), h)
				cp.tr.end(sp)
			}
		})
	})
	cp.f.OnRestart(func(a transport.Addr) {
		h := int(a)
		delete(cp.downSince, h)
		sp := cp.tr.begin("sched.node_recovered", 0)
		cp.sv.NodeRecovered(cp.f.Now(), h)
		cp.tr.end(sp)
		if onRestart != nil {
			onRestart(h)
		}
	})
}

// startTicks runs Tick every tickEvery until end.
func (cp *controlPlane) startTicks(end eventsim.Time) {
	var tick func()
	tick = func() {
		sp := cp.tr.begin("sched.tick", 0)
		err := cp.sv.Tick(cp.f.Now())
		cp.tr.end(sp)
		if err != nil {
			cp.fail(fmt.Errorf("tick at %.0f ms: %w", float64(cp.f.Now()), err))
			return
		}
		if cp.f.Now() < end {
			cp.f.After(tickEvery, tick)
		}
	}
	cp.f.After(tickEvery, tick)
}

// startSweeps runs the continuous invariant checks every sweepEvery
// until end.
func (cp *controlPlane) startSweeps(end eventsim.Time) {
	for t := sweepEvery; t <= end; t += sweepEvery {
		cp.engine.At(t, cp.sweep)
	}
}

func (cp *controlPlane) sweep() {
	cp.world.Now = cp.engine.Now()
	sp := cp.tr.begin("invariant.sweep", 0)
	viol := cp.ireg.Sweep(cp.world, invariant.Continuous)
	cp.tr.end(sp)
	for _, v := range viol {
		cp.res.violations++
		if cp.res.firstViolation == "" {
			cp.res.firstViolation = fmt.Sprintf("t=%.1fs %s", float64(cp.engine.Now())/1000, v.String())
		}
	}
}

// checkLiveTrees validates every live session's tree against the
// physical degree bounds at the end of the run.
func (cp *controlPlane) checkLiveTrees(bounds []int) error {
	bound := func(h int) int { return bounds[h] }
	for _, s := range cp.sv.Scheduler().Sessions() {
		if s.Tree == nil {
			continue
		}
		if err := checkTree(s.Tree, s.Root, nil, bound); err != nil {
			return fmt.Errorf("session %d: %w", s.ID, err)
		}
	}
	return nil
}

// serviceCounts records the scheduler's cumulative counters.
func serviceCounts(sv *sched.Service, f *faultnet.Net) map[string]float64 {
	st := sv.Stats()
	tot := sv.Scheduler().Totals()
	fc := f.Counters()
	c := map[string]float64{
		"sched.plans":            float64(st.Plans),
		"sched.plan_failures":    float64(st.PlanFailures),
		"sched.replans":          float64(tot.Replans),
		"sched.repairs":          float64(tot.Repairs),
		"sched.preemptions":      float64(tot.Preemptions),
		"sched.preempt_deferred": float64(st.PreemptDeferred),
		"sched.peak_live":        float64(st.PeakLive),
		"faultnet.crashes":       float64(fc.Crashes),
		"faultnet.restarts":      float64(fc.Restarts),
	}
	for p := 1; p <= sched.NumClasses; p++ {
		cl := st.Class[p]
		c["sched.submitted"] += float64(cl.Submitted)
		c["sched.admitted_in_slo"] += float64(cl.AdmittedInSLO)
		c["sched.rejected"] += float64(cl.Rejected)
		c["sched.shed_deadline"] += float64(cl.ShedDeadline)
		c["sched.shed_overload"] += float64(cl.ShedOverload)
		c["sched.shed_budget"] += float64(cl.ShedBudget)
	}
	return c
}

// market is a built market world ready for its timed run.
type market struct {
	cfg     marketConfig
	engine  *eventsim.Engine
	f       *faultnet.Net
	sv      *sched.Service
	cp      *controlPlane
	res     *result
	degrees []int
}

// setupMarket builds the world, the service and the pre-drawn inputs.
func setupMarket(cfg marketConfig, tr *tracer) (*market, error) {
	if marketGroupSize+1 > cfg.Hosts {
		return nil, fmt.Errorf("market: group size %d exceeds %d hosts", marketGroupSize, cfg.Hosts)
	}
	m := &market{cfg: cfg, res: newResult()}
	r := rand.New(rand.NewSource(cfg.WorldSeed + 2))
	lat := euclideanWorld(cfg.Hosts, r)
	tr.do("alm.paper_degrees", 0, func() { m.degrees = alm.PaperDegrees(cfg.Hosts, r) })
	planLat := m.res.countLatency(lat, tr != nil)
	tr.do("eventsim.new", 0, func() { m.engine = eventsim.New(cfg.Seed) })
	sim := transport.NewSim(m.engine, transport.SimOptions{Latency: transport.LatencyFunc(lat)})
	tr.do("faultnet.new", 0, func() { m.f = faultnet.New(sim, faultnet.Options{Seed: cfg.Seed * 100}) })
	tr.do("sched.new_service", 0, func() {
		m.sv = sched.NewService(m.degrees, planLat, sched.ServiceConfig{
			Sched: sched.Config{ScoreLatency: planLat, MetricScore: true},
			Seed:  cfg.Seed*10 + 5,
			// Sized to the pool as in the load study: market planning
			// preempts a helper or two per high-class admission, so the
			// stock 8/s bucket would throttle planning itself.
			PreemptRate:  16 * cfg.ArrivalRate,
			PreemptBurst: 32 * cfg.ArrivalRate,
		})
	})
	end := cfg.Warmup + cfg.Window
	m.cp = newControlPlane(m.engine, m.f, m.sv, m.degrees, marketDetectDelay, m.res)
	gen := &arrivals{rate: cfg.ArrivalRate, hosts: cfg.Hosts, rng: rand.New(rand.NewSource(cfg.Seed*1000 + 3))}
	var schedule func()
	schedule = func() {
		a := gen.next()
		if a.at >= end {
			return
		}
		m.engine.At(a.at, func() {
			m.arrive(a)
			m.engine.At(a.at+a.life, func() {
				sp := m.cp.tr.begin("sched.end_session", int64(a.id))
				m.sv.EndSession(a.id)
				m.cp.tr.end(sp)
			})
			schedule()
		})
	}
	schedule()
	all := make([]int, cfg.Hosts)
	for h := range all {
		all[h] = h
	}
	crng := rand.New(rand.NewSource(cfg.Seed*1000 + 7))
	poisson := func() eventsim.Time {
		return eventsim.Time(crng.ExpFloat64() / marketCrashRate * float64(eventsim.Minute))
	}
	crashScript(m.f, all, poisson, marketRestartDelay, 0, end, crng)
	m.cp.wireChurn(nil)
	m.cp.startTicks(end)
	m.cp.startSweeps(end)
	return m, nil
}

// arrive submits a session unless its root is down; crashed members
// are left out of the roster.
func (m *market) arrive(a arrival) {
	if m.f.Crashed(transport.Addr(a.roster[0])) {
		return
	}
	members := make([]int, 0, len(a.roster)-1)
	for _, h := range a.roster[1:] {
		if !m.f.Crashed(transport.Addr(h)) {
			members = append(members, h)
		}
	}
	if len(members) == 0 {
		return
	}
	s := &sched.Session{ID: a.id, Priority: a.pri, Root: a.roster[0], Members: members}
	sp := m.cp.tr.begin("sched.submit", int64(a.id))
	_, err := m.sv.Submit(m.f.Now(), s)
	m.cp.tr.end(sp)
	if err != nil {
		m.cp.fail(fmt.Errorf("submit session %d: %w", a.id, err))
	}
}

// runMarket warms the service up untraced, then measures Window.
func runMarket(m *market, tr *tracer) (*result, error) {
	cfg, res := m.cfg, m.res
	m.engine.RunUntil(cfg.Warmup)
	before := serviceCounts(m.sv, m.f)
	lat0 := len(m.sv.AdmitLatencies())
	ev0 := m.engine.Processed()
	m.cp.tr = tr
	res.latencyCalls = 0

	mid := cfg.Warmup + cfg.Window/2
	end := cfg.Warmup + cfg.Window
	runUntil := func(t eventsim.Time) { m.engine.RunUntil(t) }
	res.advance(tr, runUntil, cfg.Warmup, mid, 10)
	atMid := serviceCounts(m.sv, m.f)
	lat1 := len(m.sv.AdmitLatencies())
	res.advance(tr, runUntil, mid, end, 10)
	if m.cp.err != nil {
		return nil, fmt.Errorf("market: %w", m.cp.err)
	}
	after := serviceCounts(m.sv, m.f)

	lats := m.sv.AdmitLatencies()
	res.setOps([2][]float64{lats[lat0:lat1], lats[lat1:]})
	okRate := func(a, b map[string]float64) float64 {
		return (b["sched.admitted_in_slo"] - a["sched.admitted_in_slo"]) / (b["sched.submitted"] - a["sched.submitted"])
	}
	res.halves[0].okRate = okRate(before, atMid)
	res.halves[1].okRate = okRate(atMid, after)
	res.attempted = int(after["sched.submitted"] - before["sched.submitted"])
	res.ok = int(after["sched.admitted_in_slo"] - before["sched.admitted_in_slo"])

	for k, v := range after {
		if k != "sched.peak_live" {
			v -= before[k]
		}
		res.counts[k] = v
	}
	res.counts["eventsim.events"] = float64(m.engine.Processed() - ev0)
	res.check("invariant sweeps report no violations", checkViolations(res.violations, res.firstViolation))
	res.check("live trees valid and within degree bounds", m.cp.checkLiveTrees(m.degrees))
	return res, nil
}
