package main

// leafspine_gray: dense traffic on a 4-leaf, 2-spine conga_route fabric
// with ECN and INT, the reliable transport with fast retransmit, live
// telemetry, and a seeded gray-failure schedule spread over the whole
// trace. Each op is one Network.Run window, repeated until the transport
// has resolved every offered packet; every eighth op also scrapes the
// telemetry snapshot, as a monitoring poller would.

import (
	"fmt"
	"math/rand"
	"time"

	"domino/internal/netsim"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

type leafSpineConfig struct {
	exp         netsim.ExperimentConfig
	window      int64 // simulated ticks per op
	scrapeEvery int   // ops per telemetry snapshot
}

func defaultLeafSpineConfig() leafSpineConfig {
	return leafSpineConfig{
		exp: netsim.ExperimentConfig{
			Routing: "conga_route", Leaves: 4, Spines: 2, HostsPerLeaf: 4,
			FlowsPerHost: 8, PktsPerFlow: 4224, ECN: true, INT: true,
		},
		window:      64,
		scrapeEvery: 8,
	}
}

type leafSpine struct{ cfg leafSpineConfig }

func newLeafSpine(cfg leafSpineConfig) *leafSpine { return &leafSpine{cfg} }

type leafSpineEpoch struct {
	cfg       leafSpineConfig
	ls        *netsim.LeafSpine
	tr        *workload.NetTrace
	tp        *netsim.Transport
	faults    *netsim.FaultSchedule
	fab       fabric
	ops       int
	snapshots int
	snapBytes int
}

func (w *leafSpine) setup(seed int64, t *tracer, _ quota) (epoch, error) {
	c := w.cfg.exp
	c.Seed = seed
	c.Telemetry = telemetry.NewRegistry()
	c.Ring = telemetry.NewRing(256, 16, uint64(seed))
	e := &leafSpineEpoch{cfg: w.cfg}
	var err error
	sp := t.begin("fabric.build")
	e.ls, _, err = c.Build()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("workload.trace")
	e.tr = c.Trace()
	e.faults = grayFaults(seed, e.ls, e.tr)
	t.end(sp)
	sp = t.begin("netsim.SetTrace")
	err = e.ls.Net.SetTrace(e.tr, e.ls.Hosts)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("netsim.EnableTransport")
	e.tp, err = e.ls.Net.EnableTransport(netsim.TransportConfig{Seed: seed})
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("netsim.SetFaults")
	err = e.ls.Net.SetFaults(e.faults)
	t.end(sp)
	e.fab = fabric{net: e.ls.Net, window: w.cfg.window}
	return e, err
}

// grayFaults spreads one seeded gray-failure schedule over the trace's
// arrival span: corruption, reordering and duplication on one uplink, an
// outage with recovery on another, a flap storm on a third, and a restart
// of the fourth leaf while the outage lasts. Only leaf→spine directions
// fail (a spine has one path down to each leaf), and everything recovers.
func grayFaults(seed int64, ls *netsim.LeafSpine, tr *workload.NetTrace) *netsim.FaultSchedule {
	rng := rand.New(rand.NewSource(seed))
	span := tr.Packets[len(tr.Packets)-1].Arrival
	at := func(frac float64) int64 { return int64(frac*float64(span)) + rng.Int63n(span/50+1) }
	leaves := len(ls.Leaves)
	fail, spine := rng.Intn(leaves), rng.Intn(len(ls.Spines))
	gray, flap, restart := ls.Leaves[(fail+1)%leaves], ls.Leaves[(fail+2)%leaves], ls.Leaves[(fail+3)%leaves]
	grayOn, grayOff := at(0.1), at(0.6)
	down, up := at(0.3), at(0.5)
	f := &netsim.FaultSchedule{Seed: seed}
	f.LinkCorrupt(grayOn, gray, spine, 5).LinkCorrupt(grayOff, gray, spine, 0).
		LinkReorder(grayOn, gray, spine, 4).LinkReorder(grayOff, gray, spine, 0).
		LinkDuplicate(grayOn, gray, spine, 5).LinkDuplicate(grayOff, gray, spine, 0).
		LinkDown(down, ls.Leaves[fail], spine).LinkUp(up, ls.Leaves[fail], spine).
		LinkFlap(at(0.7), flap, (spine+1)%len(ls.Spines), 3, 40, 80).
		SwitchRestart((down+up)/2, restart)
	return f
}

func (e *leafSpineEpoch) precheck(*tracer) (int, []error) { return 0, nil }

func (e *leafSpineEpoch) op(t *tracer) (int64, error) {
	n, err := e.fab.run(t, func(tot netsim.NetTotals) int64 { return tot.AcceptedPkts })
	if err != nil {
		return 0, err
	}
	e.ops++
	if e.ops%e.cfg.scrapeEvery == 0 {
		sp := t.begin("telemetry.SnapshotJSON")
		b, err := e.ls.Net.SnapshotJSON()
		t.end(sp)
		if err != nil {
			return n, err
		}
		e.snapshots++
		e.snapBytes = len(b)
	}
	return n, nil
}

func (e *leafSpineEpoch) done(time.Duration) bool { return e.tp.Done() }

// sampleEnd is always false, as in fattree_fct.
func (e *leafSpineEpoch) sampleEnd() bool { return false }

func (e *leafSpineEpoch) finish(t *tracer, m map[string]float64) (int, []error) {
	var errs []error
	sp := t.begin("netsim.Drain")
	err := e.ls.Net.Drain(1 << 20)
	t.end(sp)
	if err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, e.fab.check(t)...)
	tt := e.tp.Totals()
	if tt.OfferedPkts != int64(len(e.tr.Packets)) || tt.OfferedPkts != tt.AckedPkts+tt.GivenUpPkts || tt.OutstandingPkts != 0 {
		errs = append(errs, fmt.Errorf("transport: offered %d of %d trace packets, acked %d + given up %d, %d outstanding",
			tt.OfferedPkts, len(e.tr.Packets), tt.AckedPkts, tt.GivenUpPkts, tt.OutstandingPkts))
	}
	e.fab.record(m, e.ls.Leaves, e.ls.Spines)
	m["transport.offered"] = float64(tt.OfferedPkts)
	m["transport.acked"] = float64(tt.AckedPkts)
	m["transport.retrans"] = float64(tt.RetransPkts)
	m["transport.fast_retrans"] = float64(tt.FastRetransPkts)
	m["transport.given_up"] = float64(tt.GivenUpPkts)
	m["transport.rate_cuts"] = float64(tt.RateCuts)
	m["transport.mean_ack_ticks"] = e.tp.MeanAckTicks()
	m["telemetry.snapshots"] = float64(e.snapshots)
	m["telemetry.snapshot_bytes"] = float64(e.snapBytes)
	return 3, errs
}

func (e *leafSpineEpoch) digest() uint64 { return traceDigest(e.tr, e.faults) }
