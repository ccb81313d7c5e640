package netsim

// The three-tier k-ary fat tree (Al-Fares et al.): k pods, each with k/2
// edge and k/2 aggregation switches, (k/2)^2 cores, and k^3/4 hosts —
// the paper-grade topology the datacenter FCT evaluations (CONGA, HULL)
// report against, and the scale the event-driven core exists for.
//
// Host ids are dense: host h = p*(k^2/4) + e*(k/2) + j sits on port
// k/2+j of edge e in pod p, so h/(k/2) is the host's global edge index —
// exactly the leaf-of-host convention the leaf routing transactions
// assume, which is why an edge switch runs an unmodified leaf routing
// program: its "leaves" are the k*k/2 edges, its "spines" the k/2 pod
// aggs. Aggregation switches run fat_agg_route (pod-local down, hashed
// core up); cores run spine_route with "hosts per leaf" = hosts per pod,
// so out_port = destination pod.
//
// Port map (HALF = k/2):
//
//	edge e, pod p:  [0,HALF) → agg a of pod p;   [HALF,k) → hosts
//	agg  a, pod p:  [0,HALF) → core a*HALF+i;    [HALF,k) → edge e of pod p
//	core c:         port p → pod p (lands on agg c/HALF of that pod)

import (
	"fmt"
	"sort"

	"domino/internal/algorithms"
	"domino/internal/codegen"
	"domino/internal/switchsim"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// FatTreeConfig sizes and programs a k-ary fat tree. Programs are
// supplied as compiled pipelines, one per tier, mirroring
// LeafSpineConfig. Positions are poked control-plane state: edge e's
// algorithms.LeafIDState gets its global edge index, and each agg of pod
// p gets the pod's edge range [p*k/2, (p+1)*k/2) in
// algorithms.FatAggEdgeLoState/FatAggEdgeHiState.
type FatTreeConfig struct {
	K int // pods; must be even and >= 2

	EdgeProgram *codegen.Program
	AggProgram  *codegen.Program
	CoreProgram *codegen.Program

	// UplinkBytesPerTick caps every switch↔switch link (both directions);
	// DownlinkBytesPerTick caps edge→host links. Zero keeps switchsim's
	// default service rate.
	UplinkBytesPerTick   int64
	DownlinkBytesPerTick int64
	LinkDelay            int64
	QueueCapBytes        int64
	RouteField           string
	Telemetry            telemetry.Sink
	Trace                *telemetry.Ring
}

// FatTree is a built fabric.
type FatTree struct {
	Net   *Network
	Edges []NodeID // global edge index: pod*K/2 + e
	Aggs  []NodeID // global agg index: pod*K/2 + a
	Cores []NodeID
	Hosts []NodeID // dense: host h on edge h/(K/2)
	cfg   FatTreeConfig
}

// K returns the fabric's arity.
func (ft *FatTree) K() int { return ft.cfg.K }

// NewFatTree builds and fully wires a k-ary fat tree.
func NewFatTree(cfg FatTreeConfig) (*FatTree, error) {
	k := cfg.K
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("netsim: fat tree needs an even k >= 2, got %d", k)
	}
	if cfg.EdgeProgram == nil || cfg.AggProgram == nil || cfg.CoreProgram == nil {
		return nil, fmt.Errorf("netsim: fat tree needs an edge, an agg and a core program")
	}
	half := k / 2
	ft := &FatTree{Net: New(), cfg: cfg}
	n := ft.Net
	if err := n.SetTelemetry(cfg.Telemetry, cfg.Trace); err != nil {
		return nil, err
	}
	swCfg := func(ports int) switchsim.Config {
		return switchsim.Config{
			Ports:               ports,
			QueueCapBytes:       cfg.QueueCapBytes,
			ServiceBytesPerTick: cfg.UplinkBytesPerTick,
			RouteField:          cfg.RouteField,
		}
	}
	for c := 0; c < half*half; c++ {
		id, err := n.AddSwitch(fmt.Sprintf("core%d", c), cfg.CoreProgram, swCfg(k))
		if err != nil {
			return nil, err
		}
		ft.Cores = append(ft.Cores, id)
	}
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			id, err := n.AddSwitch(fmt.Sprintf("agg%d_%d", p, a), cfg.AggProgram, swCfg(k))
			if err != nil {
				return nil, err
			}
			w := n.nodes[id].sw
			w.pokeIdentity(algorithms.FatAggEdgeLoState, int32(p*half))
			w.pokeIdentity(algorithms.FatAggEdgeHiState, int32((p+1)*half))
			ft.Aggs = append(ft.Aggs, id)
		}
		for e := 0; e < half; e++ {
			id, err := n.AddSwitch(fmt.Sprintf("edge%d_%d", p, e), cfg.EdgeProgram, swCfg(k))
			if err != nil {
				return nil, err
			}
			n.nodes[id].sw.pokeIdentity(algorithms.LeafIDState, int32(p*half+e))
			ft.Edges = append(ft.Edges, id)
			for j := 0; j < half; j++ {
				hid, err := n.AddHost(fmt.Sprintf("host%d", (p*half+e)*half+j), id)
				if err != nil {
					return nil, err
				}
				ft.Hosts = append(ft.Hosts, hid)
			}
		}
	}
	up := LinkOptions{Delay: cfg.LinkDelay, CapacityBytesPerTick: cfg.UplinkBytesPerTick}
	down := LinkOptions{Delay: cfg.LinkDelay, CapacityBytesPerTick: cfg.DownlinkBytesPerTick}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			edge := ft.Edges[p*half+e]
			for a := 0; a < half; a++ {
				agg := ft.Aggs[p*half+a]
				if err := n.Connect(edge, a, agg, up); err != nil {
					return nil, err
				}
				if err := n.Connect(agg, half+e, edge, up); err != nil {
					return nil, err
				}
			}
			for j := 0; j < half; j++ {
				h := (p*half+e)*half + j
				if err := n.Connect(edge, half+j, ft.Hosts[h], down); err != nil {
					return nil, err
				}
			}
		}
		for a := 0; a < half; a++ {
			agg := ft.Aggs[p*half+a]
			for i := 0; i < half; i++ {
				core := ft.Cores[a*half+i]
				if err := n.Connect(agg, i, core, up); err != nil {
					return nil, err
				}
				if err := n.Connect(core, p, agg, up); err != nil {
					return nil, err
				}
			}
		}
	}
	return ft, nil
}

// FatTreeExperimentConfig parameterizes one RunFatTreeFCT call: a k-ary
// fat tree running one edge routing policy under a heavy-tailed
// (web-search/Hadoop-style) flow-arrival workload, reporting flow
// completion times. Zero values take the bracketed defaults.
type FatTreeExperimentConfig struct {
	Routing string // edge routing catalog name (ecmp_route, flowlet_route, conga_route)
	K       int    // fat-tree arity [4]

	Seed  int64
	Flows int // flow arrivals [8 × hosts]
	// Workload shape (see workload.HeavyTailedConfig).
	MeanGapTicks     float64 // mean flow inter-arrival [64]
	Alpha            float64 // Pareto tail exponent [1.1]
	MinPkts, MaxPkts int     // flow size bounds, packets [1, 1000]
	PacketBytes      int32   // MTU [1500]

	UplinkBytesPerTick   int64 // switch↔switch capacity [3000]
	DownlinkBytesPerTick int64 // edge→host capacity [6000]
	LinkDelay            int64 // [1]
	QueueCapBytes        int64 // [1 << 20]

	ECN               bool
	ECNThresholdBytes int32
	INT               bool

	Telemetry telemetry.Sink
	Ring      *telemetry.Ring

	DrainLimit int64 // safety bound on total ticks [1 << 22]
}

func (c *FatTreeExperimentConfig) setDefaults() {
	if c.K == 0 {
		c.K = 4
	}
	if c.Flows == 0 {
		c.Flows = 8 * c.K * c.K * c.K / 4
	}
	if c.MeanGapTicks == 0 {
		c.MeanGapTicks = 64
	}
	if c.PacketBytes == 0 {
		c.PacketBytes = 1500
	}
	if c.UplinkBytesPerTick == 0 {
		c.UplinkBytesPerTick = 3000
	}
	if c.DownlinkBytesPerTick == 0 {
		c.DownlinkBytesPerTick = 6000
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 1
	}
	if c.QueueCapBytes == 0 {
		c.QueueCapBytes = 1 << 20
	}
	if c.DrainLimit == 0 {
		c.DrainLimit = 1 << 22
	}
}

// Trace builds the experiment's heavy-tailed workload over the fabric's
// host count.
func (c FatTreeExperimentConfig) Trace() *workload.NetTrace {
	c.setDefaults()
	return workload.HeavyTailedTrace(c.Seed, workload.HeavyTailedConfig{
		Hosts: c.K * c.K * c.K / 4, Flows: c.Flows,
		MeanGapTicks: c.MeanGapTicks, Alpha: c.Alpha,
		MinPkts: c.MinPkts, MaxPkts: c.MaxPkts, Size: c.PacketBytes,
	})
}

// Build constructs the fat tree for the configured routing policy
// without running it — the entry point for callers that drive the
// network themselves (the tick-vs-event differential, benchmarks).
func (c FatTreeExperimentConfig) Build() (*FatTree, *algorithms.RoutingAlg, error) {
	c.setDefaults()
	r, err := algorithms.RoutingByName(c.Routing)
	if err != nil {
		return nil, nil, err
	}
	if !r.Leaf {
		return nil, nil, fmt.Errorf("netsim: %q is not a leaf routing policy", c.Routing)
	}
	// One compile per tier: every switch of a tier shares the program,
	// and NewFatTree pokes each one's position. Edges see the k*k/2
	// edges as leaves and the pod's aggs as spines; cores see pods as
	// leaves.
	half := c.K / 2
	tier := func(leaves, hostsPerLeaf int) algorithms.RouteParams {
		return algorithms.RouteParams{
			Leaves: leaves, Spines: half, HostsPerLeaf: hostsPerLeaf,
			ECN: c.ECN, ECNThresholdBytes: c.ECNThresholdBytes, INT: c.INT,
		}
	}
	edge, err := compileRoute(r.Source, tier(c.K*half, half))
	if err != nil {
		return nil, nil, err
	}
	agg, err := compileRoute(algorithms.FatAggRouteSource, tier(c.K, half))
	if err != nil {
		return nil, nil, err
	}
	core, err := compileRoute(algorithms.SpineRouteSource, tier(c.K, half*half))
	if err != nil {
		return nil, nil, err
	}
	ft, err := NewFatTree(FatTreeConfig{
		K:                    c.K,
		EdgeProgram:          edge,
		AggProgram:           agg,
		CoreProgram:          core,
		UplinkBytesPerTick:   c.UplinkBytesPerTick,
		DownlinkBytesPerTick: c.DownlinkBytesPerTick,
		LinkDelay:            c.LinkDelay,
		QueueCapBytes:        c.QueueCapBytes,
		RouteField:           algorithms.RouteOutPort,
		Telemetry:            c.Telemetry,
		Trace:                c.Ring,
	})
	if err != nil {
		return nil, nil, err
	}
	ft.Net.Feedback = r.Feedback
	return ft, &r, nil
}

// FatTreeFCTResult is one heavy-tailed fat-tree run's summary. The size
// split follows the evaluation convention: mice are flows under 10
// packets (latency-bound), elephants 100 packets and up.
type FatTreeFCTResult struct {
	Routing string
	K       int
	FT      *FatTree

	Ticks int64 // simulated ticks
	Steps int64 // processed steps (Ticks − Steps = skipped idle)

	Flows, Completed   int
	FCTP50, FCTP95     int64
	FCTP99, FCTMax     int64
	MiceP99            int64 // p99 FCT over flows < 10 pkts (-1 if none)
	ElephantP99        int64 // p99 FCT over flows >= 100 pkts (-1 if none)
	Injected, Dropped  int64
	Delivered          int64   // data packets; Injected also counts feedback
	Feedback           int64   // reflected feedback packets delivered
	OfferedBytesPerSec float64 // offered load ÷ ticks, bytes/tick
}

// pctile returns the p-th percentile of sorted (ascending) samples.
func pctile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return -1
	}
	return sorted[(len(sorted)*p)/100]
}

// RunFatTreeFCT builds the fabric, replays the heavy-tailed trace to
// completion with the event core, checks conservation and summarizes
// flow completion times.
func RunFatTreeFCT(c FatTreeExperimentConfig) (*FatTreeFCTResult, error) {
	c.setDefaults()
	ft, _, err := c.Build()
	if err != nil {
		return nil, err
	}
	tr := c.Trace()
	if err := ft.Net.SetTrace(tr, ft.Hosts); err != nil {
		return nil, err
	}
	if err := ft.Net.Drain(c.DrainLimit); err != nil {
		return nil, err
	}
	if err := ft.Net.CheckConservation(); err != nil {
		return nil, fmt.Errorf("netsim: fat-tree %s run leaked packets: %w", c.Routing, err)
	}

	res := &FatTreeFCTResult{
		Routing: c.Routing, K: c.K, FT: ft,
		Ticks: ft.Net.Now(), Steps: ft.Net.Steps(),
	}
	var all, mice, elephants []int64
	for f, fct := range ft.Net.FlowFCTs() {
		res.Flows++
		if fct < 0 {
			continue
		}
		all = append(all, fct)
		switch pkts := tr.FlowPkts[f]; {
		case pkts < 10:
			mice = append(mice, fct)
		case pkts >= 100:
			elephants = append(elephants, fct)
		}
	}
	res.Completed = len(all)
	for _, s := range [][]int64{all, mice, elephants} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	res.FCTP50, res.FCTP95, res.FCTP99 = pctile(all, 50), pctile(all, 95), pctile(all, 99)
	res.FCTMax = -1
	if len(all) > 0 {
		res.FCTMax = all[len(all)-1]
	}
	res.MiceP99 = pctile(mice, 99)
	res.ElephantP99 = pctile(elephants, 99)

	t := ft.Net.Totals()
	res.Injected, res.Dropped = t.InjectedPkts, t.DroppedPkts
	res.Delivered, res.Feedback = t.DeliveredPkts-t.FbDeliveredPkts, t.FbDeliveredPkts
	if res.Ticks > 0 {
		var offered int64
		for _, b := range tr.FlowBytes {
			offered += b
		}
		res.OfferedBytesPerSec = float64(offered) / float64(res.Ticks)
	}
	return res, nil
}
