package main

import (
	"fmt"
	"math/rand"
	"sort"

	"p2ppool/internal/alm"
	"p2ppool/internal/bandwidth"
	"p2ppool/internal/coords"
	"p2ppool/internal/core"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/invariant"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/somo"
	"p2ppool/internal/topology"
	"p2ppool/internal/transport"
)

// ringConfig is the ring workload: the paper's 1200-host pool on 600
// transit-stub routers, a leafset-radius-8 DHT ring with a SOMO agent
// per node on the 8-shard event loop, open-loop lookups, and one
// Leafset+adjust vs AMCast plan at the end.
type ringConfig struct {
	// Topology is the underlay; its Seed and Workers are filled from
	// WorldSeed and Workers.
	Topology topology.Config
	// Runtime is the simulated length of the whole run; lookups begin
	// at LookupStart.
	Runtime     eventsim.Time
	LookupStart eventsim.Time
	GroupSize   int
	Workers     int
	// WorldSeed builds the pool; Seed draws the ring's node IDs, the
	// lookups and the planned session.
	WorldSeed int64
	Seed      int64
}

func defaultRing(seed int64, seconds float64, workers int) ringConfig {
	return ringConfig{
		Topology:    topology.DefaultConfig(),
		Runtime:     eventsim.Time(60+20*seconds) * eventsim.Second,
		LookupStart: 60 * eventsim.Second,
		GroupSize:   100,
		Workers:     workers,
		WorldSeed:   worldSeed,
		Seed:        seed,
	}
}

const (
	// ringShards is the sharded loop's shard count. It is structural:
	// it is part of the seed schedule, so changing it changes results.
	ringShards = 8
	// lookupEvery is each node's mean interval between lookups
	// (Poisson). Lookups stop lookupDrain before the end of the run so
	// every one can complete.
	lookupEvery = 10 * eventsim.Second
	lookupDrain = 5 * eventsim.Second
	// fixFingersInterval is the DHT finger refresh period. At the DHT's
	// 10 s default the finger tables fill for minutes and lookup p50
	// falls 15% within one run; at 1 s they converge in the warm-up.
	fixFingersInterval = eventsim.Second
)

// The pool's construction constants, as core.BuildFast derives them
// from its defaults.
const (
	poolLeafsetRadius = 16
	poolCoordDim      = 7
	poolCoordRounds   = 15
)

// buildPool assembles the resource pool one layer at a time, calling
// each layer core.BuildFast calls, in the same order and with the same
// derived seeds, so each layer's span times exactly the work
// core.BuildFast does.
func buildPool(cfg ringConfig, tr *tracer) (*core.Pool, error) {
	top := cfg.Topology
	top.Seed = cfg.WorldSeed
	top.Workers = cfg.Workers
	p := &core.Pool{}
	var err error
	tr.do("topology.generate", 0, func() { p.Net, err = topology.Generate(top) })
	if err != nil {
		return nil, err
	}
	n := p.Net.NumHosts()
	tr.do("netmodel.new", 0, func() { p.Model, err = netmodel.New(n, netmodel.Options{Seed: cfg.WorldSeed + 1}) })
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.WorldSeed + 2))
	tr.do("alm.paper_degrees", 0, func() { p.Degrees = alm.PaperDegrees(n, r) })
	neighbors := ringNeighbors(n, 2*poolLeafsetRadius, r)
	tr.do("coords.solve_leafset", 0, func() {
		p.Coords, err = coords.SolveLeafset(p.Net.Latency, n, neighbors, coords.LeafsetConfig{
			Dim:    poolCoordDim,
			Rounds: poolCoordRounds,
			Seed:   cfg.WorldSeed + 3,
			Core:   2*poolLeafsetRadius + 1,
		})
	})
	if err != nil {
		return nil, err
	}
	tr.do("bandwidth.estimate_all", 0, func() {
		p.Bandwidth = bandwidth.EstimateAll(p.Model, neighbors, 1500, rand.New(rand.NewSource(cfg.WorldSeed+4)))
	})
	return p, nil
}

// ringNeighbors places hosts on a random ring and returns each host's
// L closest ring neighbors, drawing from r exactly as core.BuildFast
// does.
func ringNeighbors(n, L int, r *rand.Rand) func(i int) []int {
	perm := r.Perm(n)
	posOf := make([]int, n)
	for pos, h := range perm {
		posOf[h] = pos
	}
	if L > n-1 {
		L = n - 1
	}
	half := L / 2
	return func(h int) []int {
		pos := posOf[h]
		out := make([]int, 0, L)
		for k := 1; k <= half; k++ {
			out = append(out, perm[(pos+k)%n], perm[(pos-k+n)%n])
		}
		for k := half + 1; len(out) < L; k++ {
			out = append(out, perm[(pos+k)%n])
		}
		return out
	}
}

// lookupMsg is the payload of one benchmark lookup.
type lookupMsg struct{ ID int64 }

// lookup is one issued lookup; delivery is one arrival at a key owner.
type lookup struct {
	ID  int64
	Key ids.ID
	At  eventsim.Time
}

type delivery struct {
	ID   int64
	At   eventsim.Time
	Hops int
	By   ids.ID
}

// ringRun is a placed ring ready for its timed run.
type ringRun struct {
	cfg    ringConfig
	pool   *core.Pool
	sim    *transport.ShardedSim
	nodes  []*dht.Node
	agents []*somo.Agent
}

// placeRing builds the DHT ring with a SOMO agent per node on the
// sharded event loop, with the scale study's derived seeds.
func placeRing(cfg ringConfig, pool *core.Pool, tr *tracer) (*ringRun, error) {
	n := pool.NumHosts()
	top := pool.Net.Config()
	sim := transport.NewShardedSim(transport.ShardedSimOptions{
		Latency:   pool.TrueLatency,
		Shards:    ringShards,
		Lookahead: eventsim.Time(2 * top.LastHopMin),
		Workers:   cfg.Workers,
		Seed:      cfg.Seed + int64(n),
	})
	r := rand.New(rand.NewSource(cfg.Seed + int64(n) + 7))
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	var nodes []*dht.Node
	var err error
	tr.do("dht.build_ring", 0, func() {
		nodes, err = dht.BuildRingOn(sim.View, dht.RandomIDs(n, r), addrs, dht.Config{
			LeafsetRadius:      8,
			FixFingersInterval: fixFingersInterval,
		})
	})
	if err != nil {
		return nil, err
	}
	agents := make([]*somo.Agent, n)
	tr.do("somo.new_agents", 0, func() {
		scfg := somo.Config{ReportInterval: 5 * eventsim.Second}
		for i, nd := range nodes {
			i := i
			agents[i] = somo.NewAgent(nd, scfg, func() interface{} { return i })
		}
	})
	return &ringRun{cfg: cfg, pool: pool, sim: sim, nodes: nodes, agents: agents}, nil
}

// runRing is the timed run: the ring's heartbeat, finger and SOMO
// traffic plus open-loop lookups, then the root query and the plans.
func runRing(rr *ringRun, tr *tracer) (*result, error) {
	cfg := rr.cfg
	n := len(rr.nodes)
	res := newResult()

	// Lookup bookkeeping is per node: each slice is touched only from
	// its node's shard goroutine, and merged after the run.
	issued := make([][]lookup, n)
	got := make([][]delivery, n)
	last := cfg.Runtime - lookupDrain
	for i, nd := range rr.nodes {
		i, nd := i, nd
		view := nd.Network()
		nd.OnRouted(func(key ids.ID, from dht.Entry, hops int, payload interface{}) {
			if m, ok := payload.(lookupMsg); ok {
				got[i] = append(got[i], delivery{ID: m.ID, At: view.Now(), Hops: hops, By: nd.Self().ID})
			}
		})
		addr := nd.Self().Addr
		rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(addr)))
		var fire func()
		next := func() {
			at := view.Now() + eventsim.Time(rng.ExpFloat64()*float64(lookupEvery))
			if view.Now() < cfg.LookupStart {
				at += cfg.LookupStart - view.Now()
			}
			if at < last {
				view.After(at-view.Now(), fire)
			}
		}
		fire = func() {
			l := lookup{ID: int64(addr)<<32 | int64(len(issued[i])), Key: ids.ID(rng.Uint64()), At: view.Now()}
			issued[i] = append(issued[i], l)
			start := tr.mark()
			nd.Route(l.Key, 64, lookupMsg{ID: l.ID})
			tr.record("dht.route", tr.open(), l.ID, start)
			next()
		}
		next()
	}

	// Metrics of the first and second half of the lookup window.
	mid := cfg.LookupStart + (last-cfg.LookupStart)/2
	// The first LookupStart of the run is warm-up: fingers converge and
	// SOMO reports climb the tree. The lookup window after it is the
	// timed stretch.
	rr.sim.RunUntil(cfg.LookupStart)
	warmEvents := rr.sim.Processed()
	res.advance(tr, func(t eventsim.Time) { rr.sim.RunUntil(t) }, cfg.LookupStart, cfg.Runtime, 20)

	// Check every lookup against the key's true owner.
	sorted := make([]ids.ID, n)
	for i, nd := range rr.nodes {
		sorted[i] = nd.Self().ID
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	byID := make(map[int64]lookup)
	for _, ls := range issued {
		for _, l := range ls {
			byID[l.ID] = l
		}
	}
	var all []delivery
	for _, ds := range got {
		all = append(all, ds...)
	}
	outcome := checkLookups(byID, all, sorted)
	res.check("lookups delivered to the true owner", outcome.err)
	res.attempted = len(byID)
	res.failed = outcome.failed
	res.ok = len(byID) - outcome.failed
	halfOf := func(l lookup) int {
		if l.At >= mid {
			return 1
		}
		return 0
	}
	var lat [2][]float64
	var perHalf [2]int
	var hops float64
	for _, l := range byID {
		perHalf[halfOf(l)]++
	}
	for _, d := range outcome.first {
		l := byID[d.ID]
		lat[halfOf(l)] = append(lat[halfOf(l)], float64(d.At-l.At))
		hops += float64(d.Hops)
	}
	res.setOps(lat)
	for h := range perHalf {
		res.halves[h].okRate = float64(len(lat[h])) / float64(perHalf[h])
	}
	if len(outcome.first) > 0 {
		res.counts["dht.lookup_hops_mean"] = hops / float64(len(outcome.first))
	}

	// The SOMO root snapshot.
	var root *somo.Agent
	depth := 0
	for _, a := range rr.agents {
		if a.IsRoot() {
			root = a
		}
		if l := a.Representative().Level; l > depth {
			depth = l
		}
	}
	var snap somo.Snapshot
	if root != nil {
		tr.do("somo.query", 0, func() { root.Query(func(s somo.Snapshot) { snap = s }) })
	}
	res.check("SOMO root holds every record", checkRecords(root != nil, len(snap.Records), n))
	staleness := 0.0
	for _, rec := range snap.Records {
		if age := float64(snap.Time - rec.Time); age > staleness {
			staleness = age
		}
	}

	// Cross-layer invariants over the final ring.
	world := &invariant.World{Now: rr.sim.Now(), Nodes: make([]*dht.Node, n), Agents: make([]*somo.Agent, n)}
	for i, nd := range rr.nodes {
		world.Nodes[int(nd.Self().Addr)] = nd
		world.Agents[int(nd.Self().Addr)] = rr.agents[i]
	}
	var viol []invariant.Violation
	tr.do("invariant.sweep", 0, func() { viol = invariant.NewRegistry().Sweep(world, invariant.Continuous) })
	res.violations = len(viol)
	if len(viol) > 0 {
		res.firstViolation = viol[0].String()
	}
	res.check("invariant sweep reports no violations", checkViolations(res.violations, res.firstViolation))

	// One GroupSize-member session: Leafset+adjust against AMCast.
	pool := rr.pool
	perm := rand.New(rand.NewSource(cfg.Seed + int64(n) + 13)).Perm(n)
	sroot, members := perm[0], perm[1:cfg.GroupSize+1]
	lat2 := res.countLatency(pool.TrueLatency, tr != nil)
	prob := alm.Problem{Root: sroot, Members: members, Latency: lat2, Degree: pool.DegreeBound}
	var base, tree *alm.Tree
	var err error
	tr.do("alm.amcast", 1, func() { base, err = alm.AMCast(prob) })
	if err != nil {
		return nil, fmt.Errorf("ring: AMCast plan: %w", err)
	}
	cands := make([]int, 0, n)
	inSession := map[int]bool{sroot: true}
	for _, m := range members {
		inSession[m] = true
	}
	for h := 0; h < n; h++ {
		if !inSession[h] {
			cands = append(cands, h)
		}
	}
	tr.do("alm.plan_with_helpers", 2, func() {
		tree, err = alm.PlanWithHelpers(prob, alm.HelperSet{
			Candidates:   cands,
			Radius:       100,
			ScoreLatency: pool.CoordLatency,
			MetricScore:  true,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("ring: Leafset plan: %w", err)
	}
	tr.do("alm.adjust", 2, func() { alm.Adjust(tree, lat2, pool.DegreeBound) })
	res.check("AMCast tree valid", checkTree(base, sroot, members, pool.DegreeBound))
	res.check("Leafset+adjust tree valid", checkTree(tree, sroot, members, pool.DegreeBound))
	hBase := base.MaxHeight(pool.TrueLatency)
	h := tree.MaxHeight(pool.TrueLatency)

	stats := rr.sim.Stats()
	var ds dht.Stats
	for _, nd := range rr.nodes {
		s := nd.Stats()
		ds.HeartbeatsSent += s.HeartbeatsSent
		ds.Routed += s.Routed
		ds.Failures += s.Failures
	}
	pairs := coords.RandomPairs(n, 2000, rand.New(rand.NewSource(cfg.WorldSeed+17)))
	c := res.counts
	c["eventsim.events"] = float64(rr.sim.Processed() - warmEvents)
	c["transport.msgs"] = float64(stats.MessagesSent)
	c["transport.bytes"] = float64(stats.BytesSent)
	c["transport.msgs_per_node_s"] = float64(stats.MessagesSent) / float64(n) / (float64(cfg.Runtime) / float64(eventsim.Second))
	c["dht.heartbeats"] = float64(ds.HeartbeatsSent)
	c["dht.routed"] = float64(ds.Routed)
	c["dht.neighbor_failures"] = float64(ds.Failures)
	c["somo.depth"] = float64(depth)
	c["somo.records"] = float64(len(snap.Records))
	c["somo.staleness_ms"] = staleness
	c["coords.err_p50"] = median(coords.PairErrors(pool.Coords, pool.TrueLatency, pairs))
	c["alm.helpers"] = float64(tree.Size() - 1 - len(members))
	c["alm.height_ms"] = h
	c["alm.tree_improvement"] = 1 - h/hBase
	return res, nil
}

// lookupOutcome is checkLookups' verdict: the first delivery of every
// correctly delivered lookup, and how many lookups failed.
type lookupOutcome struct {
	first  []delivery
	failed int
	err    error
}

// checkLookups checks that every issued lookup was delivered exactly
// once, to the owner of its key: the node with the first ID at or
// clockwise after the key (sorted holds every node ID ascending).
func checkLookups(issued map[int64]lookup, got []delivery, sorted []ids.ID) lookupOutcome {
	var out lookupOutcome
	seen := make(map[int64]bool, len(got))
	sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	for _, d := range got {
		l, ok := issued[d.ID]
		switch {
		case !ok:
			out.fail(fmt.Errorf("delivery of unknown lookup %d", d.ID))
		case seen[d.ID]:
			out.fail(fmt.Errorf("lookup %d delivered twice", d.ID))
		case d.By != owner(sorted, l.Key):
			seen[d.ID] = true
			out.fail(fmt.Errorf("lookup %d for key %v delivered to %v, owner is %v", d.ID, l.Key, d.By, owner(sorted, l.Key)))
		default:
			seen[d.ID] = true
			out.first = append(out.first, d)
		}
	}
	for id := range issued {
		if !seen[id] {
			out.fail(fmt.Errorf("lookup %d never delivered", id))
		}
	}
	return out
}

func (o *lookupOutcome) fail(err error) {
	o.failed++
	if o.err == nil {
		o.err = err
	}
}

// owner returns the ID of key's owner on a ring whose node IDs are
// sorted ascending: zones are (predecessor, self].
func owner(sorted []ids.ID, key ids.ID) ids.ID {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= key })
	if i == len(sorted) {
		i = 0
	}
	return sorted[i]
}
