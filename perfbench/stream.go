package main

import (
	"fmt"
	"math"
	"math/rand"

	"p2ppool/internal/alm"
	"p2ppool/internal/bandwidth"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/obs"
	"p2ppool/internal/sched"
	"p2ppool/internal/transport"
)

// streamConfig is the stream workload: VoD sessions pumped chunk by
// chunk down scheduler-planned trees under member churn, with each
// restarted member rejoining its session through Service.AddMember.
type streamConfig struct {
	Hosts     int
	Sessions  int
	GroupSize int // including the source
	// Replicas independent streams of Chunks chunks each run one after
	// another: the delivery-latency tail grows with the churn repairs a
	// stream has absorbed, so one long stream has no steady tail.
	Replicas int
	Chunks   int
	// WorldSeed places the hosts, draws their capacities and bandwidth
	// estimates, and draws the sessions; Seed draws the churn and the
	// pull meshes.
	WorldSeed int64
	Seed      int64
}

func defaultStream(seed int64, seconds float64) streamConfig {
	return streamConfig{
		Hosts:     8000,
		Sessions:  6,
		GroupSize: 100,
		Replicas:  2 * max(1, int(math.Round(0.2*seconds))),
		Chunks:    300,
		WorldSeed: worldSeed,
		Seed:      seed,
	}
}

// The stream study's VoD cell at its lowest rung. Its 600 kbps cells
// and its cells without rejoin degrade with stream length, so they
// have no steady numbers.
const (
	chunkDur      = eventsim.Second
	rungKbps      = 250
	playout       = 15 * eventsim.Second
	pullNeighbors = 4
	// streamLeafset is the leafset size the bandwidth estimates sample.
	streamLeafset = 16
)

// The stream's member churn: one crash every 10 s, each member back
// after 10 s and detected after 0.8 s.
const (
	streamCrashRate    = 6 // member crashes per simulated minute
	streamRestartDelay = 10 * eventsim.Second
	streamDetectDelay  = 800 * eventsim.Millisecond
)

// streamSession is one pre-drawn session.
type streamSession struct {
	id      sched.SessionID
	pri     int
	root    int
	members []int
}

// drawSessions draws disjoint rosters from the hosts whose estimated
// downlink carries the rung, with each roster's best estimated uplink
// as the source.
func drawSessions(cfg streamConfig, est []bandwidth.Estimates, rng *rand.Rand) ([]streamSession, error) {
	var eligible []int
	for h := range est {
		if est[h].Down >= rungKbps {
			eligible = append(eligible, h)
		}
	}
	if cfg.Sessions*cfg.GroupSize > len(eligible) {
		return nil, fmt.Errorf("stream: %d sessions x %d members need more than %d eligible hosts",
			cfg.Sessions, cfg.GroupSize, len(eligible))
	}
	perm := rng.Perm(len(eligible))
	out := make([]streamSession, 0, cfg.Sessions)
	for s := 0; s < cfg.Sessions; s++ {
		roster := make([]int, cfg.GroupSize)
		best := 0
		for i := range roster {
			roster[i] = eligible[perm[s*cfg.GroupSize+i]]
			if est[roster[i]].Up > est[roster[best]].Up {
				best = i
			}
		}
		members := make([]int, 0, len(roster)-1)
		for i, h := range roster {
			if i != best {
				members = append(members, h)
			}
		}
		out = append(out, streamSession{id: sched.SessionID(s + 1), pri: s%sched.NumClasses + 1, root: roster[best], members: members})
	}
	return out, nil
}

// uplinkDegrees is each host's degree bound at the rung: the chunk
// flows its estimated uplink sustains with 1.3x headroom per child,
// clamped to [1, 16].
func uplinkDegrees(est []bandwidth.Estimates, rung float64) []int {
	out := make([]int, len(est))
	for i, e := range est {
		out[i] = min(max(int(e.Up/(1.3*rung))+1, 1), 16)
	}
	return out
}

// latencyBounds buckets chunk delivery latency finely enough (5%
// steps from 1 ms to 30 s) for the quantiles read off it.
func latencyBounds() []float64 {
	var b []float64
	for v := 1.0; v < 30000; v *= 1.05 {
		b = append(b, v)
	}
	return b
}

// histQuantile interpolates quantile q (0..1) of a bucketed histogram.
func histQuantile(h obs.HistogramValue, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := h.Min, h.Max
			if i > 0 {
				lo = math.Max(lo, h.Bounds[i-1])
			}
			if i < len(h.Bounds) {
				hi = math.Min(hi, h.Bounds[i])
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Max
}

// tracedNet wraps the data plane's network so each callback the event
// loop makes into the data plane (a timer or a message delivery) runs
// inside a span.
type tracedNet struct {
	transport.Network
	tr *tracer
}

func (n *tracedNet) Attach(a transport.Addr, h transport.Handler) {
	n.Network.Attach(a, func(from transport.Addr, msg transport.Message) {
		sp := n.tr.begin("dataplane.deliver", 0)
		h(from, msg)
		n.tr.end(sp)
	})
}

func (n *tracedNet) After(d eventsim.Time, fn func()) transport.CancelFunc {
	return n.Network.After(d, func() {
		sp := n.tr.begin("dataplane.timer", 0)
		fn()
		n.tr.end(sp)
	})
}

// streamWorld is what every replica shares: host placement,
// capacities, degree bounds and the sessions.
type streamWorld struct {
	cfg      streamConfig
	lat      alm.LatencyFunc
	up, down []float64
	degrees  []int
	sessions []streamSession
}

// replica is one independent stream over the world: its own event
// loop, service, data plane and churn.
type replica struct {
	engine  *eventsim.Engine
	sim     *transport.Sim
	f       *faultnet.Net
	sv      *sched.Service
	cp      *controlPlane
	reg     *obs.Registry
	pumps   []*dataplane.Pump
	rejoins int
	end     eventsim.Time
}

// stream is a built stream workload ready for its timed run.
type stream struct {
	w    *streamWorld
	reps []*replica
	res  *result
}

const streamPumpStart = 2 * eventsim.Second

// setupStream builds the world and every replica's service, data plane
// and pre-drawn churn.
func setupStream(cfg streamConfig, tr *tracer) (*stream, error) {
	w, err := buildStreamWorld(cfg, tr)
	if err != nil {
		return nil, err
	}
	st := &stream{w: w, res: newResult()}
	for r := 0; r < cfg.Replicas; r++ {
		rep, err := newReplica(w, cfg.Seed*1000+int64(r)*10, st.res, tr)
		if err != nil {
			return nil, err
		}
		st.reps = append(st.reps, rep)
	}
	return st, nil
}

func buildStreamWorld(cfg streamConfig, tr *tracer) (*streamWorld, error) {
	w := &streamWorld{cfg: cfg, lat: euclideanWorld(cfg.Hosts, rand.New(rand.NewSource(cfg.WorldSeed+2)))}
	var model *netmodel.Model
	var err error
	tr.do("netmodel.new", 0, func() { model, err = netmodel.New(cfg.Hosts, netmodel.Options{Seed: cfg.WorldSeed + 3}) })
	if err != nil {
		return nil, err
	}
	// Random-membership leafsets, the DHT's shape.
	lr := rand.New(rand.NewSource(cfg.WorldSeed + 4))
	leafs := make([][]int, cfg.Hosts)
	for i := range leafs {
		seen := map[int]bool{i: true}
		for len(leafs[i]) < streamLeafset {
			if x := lr.Intn(cfg.Hosts); !seen[x] {
				seen[x] = true
				leafs[i] = append(leafs[i], x)
			}
		}
	}
	var est []bandwidth.Estimates
	tr.do("bandwidth.estimate_all", 0, func() {
		est = bandwidth.EstimateAll(model, func(i int) []int { return leafs[i] }, 1500, nil)
	})
	w.degrees = uplinkDegrees(est, rungKbps)
	if w.sessions, err = drawSessions(cfg, est, rand.New(rand.NewSource(cfg.WorldSeed*1000+3))); err != nil {
		return nil, err
	}
	w.up = make([]float64, cfg.Hosts)
	w.down = make([]float64, cfg.Hosts)
	for h := range w.up {
		w.up[h] = model.Up(h)
		w.down[h] = model.Down(h)
	}
	return w, nil
}

// newReplica builds one stream: the service with its sessions queued
// for admission, churn with rejoins, ticks, sweeps and one pump per
// session. seed derives all of the replica's randomness.
func newReplica(w *streamWorld, seed int64, res *result, tr *tracer) (*replica, error) {
	cfg := w.cfg
	rep := &replica{}
	planLat := res.countLatency(w.lat, tr != nil)
	tr.do("eventsim.new", 0, func() { rep.engine = eventsim.New(seed) })
	rep.sim = transport.NewSim(rep.engine, transport.SimOptions{Latency: transport.LatencyFunc(w.lat)})
	tr.do("faultnet.new", 0, func() { rep.f = faultnet.New(rep.sim, faultnet.Options{Seed: seed + 1}) })
	tr.do("sched.new_service", 0, func() {
		rep.sv = sched.NewService(w.degrees, planLat, sched.ServiceConfig{
			Sched: sched.Config{ScoreLatency: planLat, MetricScore: true, HelperMinDegree: 2},
			Seed:  seed + 2,
		})
	})

	streamEnd := streamPumpStart + eventsim.Time(cfg.Chunks)*chunkDur + playout
	rep.end = streamEnd + 10*eventsim.Second
	rep.cp = newControlPlane(rep.engine, rep.f, rep.sv, w.degrees, streamDetectDelay, res)
	for _, s := range w.sessions {
		s := s
		rep.engine.At(100*eventsim.Millisecond, func() {
			sess := &sched.Session{ID: s.id, Priority: s.pri, Root: s.root, Members: append([]int(nil), s.members...)}
			sp := rep.cp.tr.begin("sched.submit", int64(s.id))
			_, err := rep.sv.Submit(rep.f.Now(), sess)
			rep.cp.tr.end(sp)
			if err != nil {
				rep.cp.fail(fmt.Errorf("submit session %d: %w", s.id, err))
			}
		})
	}
	sessionOf := make(map[int]sched.SessionID)
	var victims []int
	for _, s := range w.sessions {
		for _, m := range s.members {
			sessionOf[m] = s.id
			victims = append(victims, m)
		}
	}
	// A restarted member rejoins its session.
	rep.cp.wireChurn(func(h int) {
		sp := rep.cp.tr.begin("sched.add_member", int64(sessionOf[h]))
		err := rep.sv.AddMember(sessionOf[h], h)
		rep.cp.tr.end(sp)
		if err != nil {
			rep.cp.fail(fmt.Errorf("member %d rejoining session %d: %w", h, sessionOf[h], err))
			return
		}
		rep.rejoins++
	})
	// Sources are spared: a dead source ends the stream. Crashes come
	// at a fixed period from a random phase, so every replica absorbs
	// the same number of repairs and replans.
	crng := rand.New(rand.NewSource(seed + 3))
	period := eventsim.Time(float64(eventsim.Minute) / streamCrashRate)
	next := eventsim.Time(crng.Float64()) * period
	periodic := func() eventsim.Time {
		gap := next
		next = period
		return gap
	}
	crashScript(rep.f, victims, periodic, streamRestartDelay, streamPumpStart+3*eventsim.Second,
		streamEnd-playout, crng)
	rep.cp.startTicks(rep.end)
	rep.cp.startSweeps(rep.end)

	var net transport.Network = rep.f
	if tr != nil {
		net = &tracedNet{Network: rep.f, tr: tr}
	}
	rep.reg = obs.New()
	rep.reg.Histogram("dataplane.delivery_ms", latencyBounds())
	var plane *dataplane.Plane
	tr.do("dataplane.new_plane", 0, func() {
		plane = dataplane.NewPlane(net, w.up, w.down)
		plane.Attach(cfg.Hosts)
		plane.Instrument(rep.reg)
	})
	alive := func(h int) bool { return !rep.f.Crashed(transport.Addr(h)) }
	rep.engine.At(streamPumpStart-eventsim.Millisecond, func() {
		for i, s := range w.sessions {
			s := s
			treeOf := func() *alm.Tree {
				if live := rep.sv.Scheduler().Session(s.id); live != nil {
					return live.Tree
				}
				return nil
			}
			var p *dataplane.Pump
			var err error
			rep.cp.tr.do("dataplane.start_pump", int64(s.id), func() {
				p, err = plane.StartPump(int(s.id), s.root, s.members, treeOf, alive, streamPumpStart, dataplane.Config{
					ChunkDur:      chunkDur,
					BitrateKbps:   rungKbps,
					Playout:       playout,
					Chunks:        cfg.Chunks,
					PullNeighbors: pullNeighbors,
					Seed:          seed*100 + int64(i),
				})
			})
			if err != nil {
				rep.cp.fail(err)
				return
			}
			rep.pumps = append(rep.pumps, p)
		}
	})
	return rep, nil
}

// runStream runs the replicas one after another; the first half of
// them and the second half are the run's halves.
func runStream(st *stream, tr *tracer) (*result, error) {
	cfg, res := st.w.cfg, st.res
	var hists [2]obs.HistogramValue
	var tot [2]dataplane.Stats
	counts := make(map[string]float64)
	for r, rep := range st.reps {
		rep.cp.tr = tr
		res.advance(tr, func(t eventsim.Time) { rep.engine.RunUntil(t) }, 0, rep.end, 1)
		if rep.cp.err != nil {
			return nil, fmt.Errorf("stream replica %d: %w", r, rep.cp.err)
		}
		k := 2 * r / len(st.reps)
		h, _ := rep.reg.Snapshot().Histogram("dataplane.delivery_ms")
		hists[k] = histAdd(hists[k], h)
		for i, p := range rep.pumps {
			var s dataplane.Stats
			tr.do("dataplane.finalize", int64(st.w.sessions[i].id), func() { s = p.Finalize() })
			res.check(fmt.Sprintf("outcome partition, replica %d session %d", r, st.w.sessions[i].id), checkPartition(s))
			addStats(&tot[k], s)
		}
		for name, v := range serviceCounts(rep.sv, rep.f) {
			if name == "sched.peak_live" {
				counts[name] = math.Max(counts[name], v)
			} else {
				counts[name] += v
			}
		}
		ts := rep.sim.Stats()
		counts["transport.msgs"] += float64(ts.MessagesSent)
		counts["transport.bytes"] += float64(ts.BytesSent)
		counts["eventsim.events"] += float64(rep.engine.Processed())
		counts["sched.rejoins"] += float64(rep.rejoins)
		res.check(fmt.Sprintf("live trees valid and within degree bounds, replica %d", r), rep.cp.checkLiveTrees(st.w.degrees))
	}

	all := histAdd(hists[0], hists[1])
	for k := range res.halves {
		res.halves[k] = half{okRate: tot[k].OnTimeFraction(), p50: histQuantile(hists[k], 0.50), p99: histQuantile(hists[k], 0.99)}
	}
	sum := tot[0]
	addStats(&sum, tot[1])
	res.attempted = sum.Expected
	res.ok = sum.OnTimeTree + sum.PullRecovered
	// A pair is a failed operation only when the partition loses track
	// of it; late and lost chunks are missed deadlines, counted by
	// ok_rate.
	res.failed = abs(sum.Expected - (sum.OnTimeTree + sum.PullRecovered + sum.Late + sum.Lost))
	res.p50 = histQuantile(all, 0.50)
	res.p99 = histQuantile(all, 0.99)

	c := res.counts
	for k, v := range counts {
		c[k] = v
	}
	c["transport.msgs_per_node_s"] = c["transport.msgs"] / float64(cfg.Hosts) / res.simS
	c["dataplane.expected"] = float64(sum.Expected)
	c["dataplane.on_time_tree"] = float64(sum.OnTimeTree)
	c["dataplane.pull_recovered"] = float64(sum.PullRecovered)
	c["dataplane.late"] = float64(sum.Late)
	c["dataplane.lost"] = float64(sum.Lost)
	c["dataplane.tree_misses"] = float64(sum.TreeMisses)
	c["dataplane.duplicates"] = float64(sum.Duplicates)
	c["dataplane.pulls_sent"] = float64(sum.PullsSent)
	if sum.PullsSent > 0 {
		c["dataplane.pull_yield"] = float64(sum.PullRecovered) / float64(sum.PullsSent)
	}
	c["dataplane.source_offload"] = sum.SourceOffload()
	c["dataplane.tx_mb"] = float64(sum.TotalTxBytes) / 1e6
	c["dataplane.delivered_kbps"] = rungKbps * sum.OnTimeFraction()
	res.check("invariant sweeps report no violations", checkViolations(res.violations, res.firstViolation))
	return res, nil
}

// histAdd sums two histograms with the same bounds (a may be empty).
func histAdd(a, b obs.HistogramValue) obs.HistogramValue {
	if a.Count == 0 {
		return b
	}
	out := a
	out.Buckets = make([]uint64, len(a.Buckets))
	for i := range a.Buckets {
		out.Buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	out.Count += b.Count
	out.Sum += b.Sum
	out.Min = math.Min(a.Min, b.Min)
	out.Max = math.Max(a.Max, b.Max)
	return out
}

func addStats(a *dataplane.Stats, b dataplane.Stats) {
	a.Expected += b.Expected
	a.OnTimeTree += b.OnTimeTree
	a.PullRecovered += b.PullRecovered
	a.Late += b.Late
	a.Lost += b.Lost
	a.TreeMisses += b.TreeMisses
	a.Duplicates += b.Duplicates
	a.PullsSent += b.PullsSent
	a.SourceTxBytes += b.SourceTxBytes
	a.TotalTxBytes += b.TotalTxBytes
}

func abs(x int) int { return max(x, -x) }
