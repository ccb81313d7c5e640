package netsim

// The load-balance experiment: a leaf-spine fabric running one routing
// policy from the internal/algorithms catalog over a cross-leaf
// permutation traffic matrix — the evaluation CONGA and flowlet switching
// are judged by (max-link utilization balance and flow completion times),
// shared by the tests, paper-eval -net and examples/leafspine.

import (
	"fmt"
	"sort"

	"domino/internal/algorithms"
	"domino/internal/codegen"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// ExperimentConfig parameterizes one RunLeafSpine call. Zero values take
// the defaults in brackets.
type ExperimentConfig struct {
	Routing string // leaf routing catalog name (ecmp_route, flowlet_route, conga_route)

	Leaves, Spines, HostsPerLeaf int // fabric shape [4, 2, 2]

	Seed         int64
	FlowsPerHost int   // [2]
	PktsPerFlow  int   // [64]
	PacketBytes  int32 // [1500]
	MeanBurst    int   // packets per flowlet burst [8]
	BurstGap     int   // idle gap between bursts, ticks [40]

	UplinkBytesPerTick   int64 // core link capacity [3000]
	DownlinkBytesPerTick int64 // access link capacity [6000]
	LinkDelay            int64 // propagation ticks [1]
	QueueCapBytes        int64 // per-port queue bound [1 << 20]

	// ECN embeds the ecn_mark block in every leaf and spine program:
	// packets passing a port whose queue depth exceeds ECNThresholdBytes
	// (default algorithms.DefaultECNThresholdBytes) get their ecn bit
	// set, which the reliable transport's ACKs echo to the sender.
	ECN               bool
	ECNThresholdBytes int32

	// INT embeds the int_stamp block in every leaf and spine program:
	// each hop stamps hop count, queue-depth max/sum and the path digest
	// into the packet's telemetry fields (see algorithms.INTStampSource).
	INT bool

	// Telemetry and Ring, when non-nil, instrument the run (see
	// Network.SetTelemetry): per-switch and network metrics land in the
	// sink, sampled per-packet events in the ring.
	Telemetry telemetry.Sink
	Ring      *telemetry.Ring

	DrainLimit int64 // safety bound on total ticks [1 << 20]
}

func (c *ExperimentConfig) setDefaults() {
	if c.Leaves == 0 {
		c.Leaves = 4
	}
	if c.Spines == 0 {
		c.Spines = 2
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 2
	}
	if c.FlowsPerHost == 0 {
		c.FlowsPerHost = 2
	}
	if c.PktsPerFlow == 0 {
		c.PktsPerFlow = 64
	}
	if c.PacketBytes == 0 {
		c.PacketBytes = 1500
	}
	if c.MeanBurst == 0 {
		c.MeanBurst = 8
	}
	if c.BurstGap == 0 {
		c.BurstGap = 40
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
		c.DrainLimit = 1 << 20
	}
}

// ExperimentResult is one run's summary.
type ExperimentResult struct {
	Routing string
	LS      *LeafSpine

	Ticks     int64
	CoreBytes []int64 // per core link (leaf↔spine), creation order
	// Imbalance is (max-min)/mean over core link bytes; MaxCoreUtil the
	// busiest core link's average utilization over the run.
	Imbalance   float64
	MaxCoreUtil float64

	Flows, Completed int
	FCTMean          float64
	FCTP95, FCTMax   int64

	// Packet counts. Delivered counts data packets only; Feedback counts
	// the reflected feedback packets delivered back to their senders
	// (CONGA's; zero for the other routings). Injected counts both.
	Injected, Delivered, Feedback, Dropped int64
}

// Trace builds the experiment's traffic: a cross-leaf permutation matrix
// (every host sends to a host under a different leaf, so all data
// traffic crosses the core) with bursty flows.
func (c ExperimentConfig) Trace() *workload.NetTrace {
	c.setDefaults()
	hosts := c.Leaves * c.HostsPerLeaf
	perm := workload.CrossLeafPermutation(c.Seed, c.Leaves, c.HostsPerLeaf)
	pairs := make([][2]int, hosts)
	for h, p := range perm {
		pairs[h] = [2]int{h, p}
	}
	return workload.HostPairTrace(c.Seed, pairs, c.FlowsPerHost, c.PktsPerFlow,
		c.PacketBytes, c.MeanBurst, c.BurstGap)
}

// Build constructs the fabric for the configured routing policy (without
// running it) — the entry point for callers that drive the network
// themselves (benchmarks, determinism tests).
func (c ExperimentConfig) Build() (*LeafSpine, *algorithms.RoutingAlg, error) {
	c.setDefaults()
	r, err := algorithms.RoutingByName(c.Routing)
	if err != nil {
		return nil, nil, err
	}
	if !r.Leaf {
		return nil, nil, fmt.Errorf("netsim: %q is not a leaf routing policy", c.Routing)
	}
	// One compile per tier: every leaf shares the leaf program (its
	// position is poked by NewLeafSpine), every spine the spine program.
	p := algorithms.RouteParams{
		Leaves: c.Leaves, Spines: c.Spines, HostsPerLeaf: c.HostsPerLeaf,
		ECN: c.ECN, ECNThresholdBytes: c.ECNThresholdBytes, INT: c.INT,
	}
	leafProg, err := compileRoute(r.Source, p)
	if err != nil {
		return nil, nil, err
	}
	spineProg, err := compileRoute(algorithms.SpineRouteSource, p)
	if err != nil {
		return nil, nil, err
	}
	ls, err := NewLeafSpine(LeafSpineConfig{
		Leaves: c.Leaves, Spines: c.Spines, HostsPerLeaf: c.HostsPerLeaf,
		LeafProgram:          leafProg,
		SpineProgram:         spineProg,
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
	ls.Net.Feedback = r.Feedback
	return ls, &r, nil
}

// compileRoute compiles one routing transaction for a fabric tier.
func compileRoute(source func(algorithms.RouteParams) (string, error), p algorithms.RouteParams) (*codegen.Program, error) {
	src, err := source(p)
	if err != nil {
		return nil, err
	}
	return codegen.CompileLeastSource(src)
}

// RunLeafSpine builds the fabric, replays the trace to completion and
// summarizes balance and flow completion.
func RunLeafSpine(c ExperimentConfig) (*ExperimentResult, error) {
	c.setDefaults()
	ls, _, err := c.Build()
	if err != nil {
		return nil, err
	}
	tr := c.Trace()
	if err := ls.Net.SetTrace(tr, ls.Hosts); err != nil {
		return nil, err
	}
	if err := ls.Net.Drain(c.DrainLimit); err != nil {
		return nil, err
	}
	if err := ls.Net.CheckConservation(); err != nil {
		return nil, fmt.Errorf("netsim: %s run leaked packets: %w", c.Routing, err)
	}

	res := &ExperimentResult{Routing: c.Routing, LS: ls, Ticks: ls.Net.Now()}
	res.CoreBytes = ls.CoreLinkBytes()
	res.Imbalance = Imbalance(res.CoreBytes)
	for _, l := range ls.Net.LinkStats() {
		if u := l.Utilization(res.Ticks); isCore(l) && u > res.MaxCoreUtil {
			res.MaxCoreUtil = u
		}
	}

	var done []int64
	for _, fct := range ls.Net.FlowFCTs() {
		res.Flows++
		if fct >= 0 {
			done = append(done, fct)
		}
	}
	res.Completed = len(done)
	if len(done) > 0 {
		sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
		var sum int64
		for _, f := range done {
			sum += f
		}
		res.FCTMean = float64(sum) / float64(len(done))
		res.FCTP95 = done[(len(done)*95)/100]
		res.FCTMax = done[len(done)-1]
	}

	t := ls.Net.Totals()
	res.Injected, res.Dropped = t.InjectedPkts, t.DroppedPkts
	res.Delivered, res.Feedback = t.DeliveredPkts-t.FbDeliveredPkts, t.FbDeliveredPkts
	return res, nil
}
