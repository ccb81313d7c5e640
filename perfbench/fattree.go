package main

// fattree_fct: the paper-eval -fct path in its sparse regime. Set-up
// builds a k=8 fat tree running flowlet_route and generates a
// heavy-tailed flow trace; each op is one Network.Run over a fixed window
// of simulated ticks, repeated until the trace drains. Most ticks are
// idle and skipped, so per-step fixed costs dominate.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"domino/internal/netsim"
	"domino/internal/workload"
)

type fatTreeConfig struct {
	exp    netsim.FatTreeExperimentConfig
	window int64 // simulated ticks per op
}

func defaultFatTreeConfig() fatTreeConfig {
	return fatTreeConfig{
		exp: netsim.FatTreeExperimentConfig{
			Routing: "flowlet_route", K: 8, Flows: 16384, MeanGapTicks: 96, MaxPkts: 256,
		},
		window: 2048,
	}
}

type fatTree struct{ cfg fatTreeConfig }

func newFatTree(cfg fatTreeConfig) *fatTree { return &fatTree{cfg} }

type fatTreeEpoch struct {
	ft  *netsim.FatTree
	tr  *workload.NetTrace
	fab fabric
}

func (w *fatTree) setup(seed int64, t *tracer, _ quota) (epoch, error) {
	c := w.cfg.exp
	c.Seed = seed
	e := &fatTreeEpoch{}
	var err error
	sp := t.begin("fabric.build")
	e.ft, _, err = c.Build()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("workload.trace")
	e.tr = c.Trace()
	t.end(sp)
	sp = t.begin("netsim.SetTrace")
	err = e.ft.Net.SetTrace(e.tr, e.ft.Hosts)
	t.end(sp)
	e.fab = fabric{net: e.ft.Net, window: w.cfg.window}
	return e, err
}

func (e *fatTreeEpoch) precheck(*tracer) (int, []error) { return 0, nil }

// op runs one window; a window in which nothing happened (an idle gap
// between flow arrivals) is extended until one step has run, so every op
// carries real work.
func (e *fatTreeEpoch) op(t *tracer) (int64, error) {
	return e.fab.run(t, func(tot netsim.NetTotals) int64 { return tot.DeliveredPkts - tot.FbDeliveredPkts })
}

func (e *fatTreeEpoch) done(time.Duration) bool {
	tot := e.ft.Net.Totals()
	return tot.InjectedPkts-tot.FbInjectedPkts == int64(len(e.tr.Packets)) &&
		tot.QueuedPkts == 0 && tot.InFlightPkts == 0
}

// sampleEnd is always false: no stretch of a trace replays another, and
// choosing among epochs would choose among traces.
func (e *fatTreeEpoch) sampleEnd() bool { return false }

func (e *fatTreeEpoch) finish(t *tracer, m map[string]float64) (int, []error) {
	errs := e.fab.check(t)
	fcts := e.ft.Net.FlowFCTs()
	incomplete := 0
	for _, f := range fcts {
		if f < 0 {
			incomplete++
		}
	}
	if incomplete > 0 {
		errs = append(errs, fmt.Errorf("%d of %d flows never completed", incomplete, len(fcts)))
	}
	slices.Sort(fcts)
	if len(fcts) > 0 {
		m["fct.p50_ticks"] = float64(fcts[len(fcts)*50/100])
		m["fct.p99_ticks"] = float64(fcts[len(fcts)*99/100])
	}
	e.fab.record(m, e.ft.Edges, e.ft.Aggs, e.ft.Cores)
	return 3, errs
}

func (e *fatTreeEpoch) digest() uint64 { return traceDigest(e.tr, nil) }

// fabric is the part of an epoch both netsim workloads share: windowed
// Run ops, the conservation and leak checks, and the netsim-layer counts.
type fabric struct {
	net    *netsim.Network
	window int64
	last   int64 // useful units counted so far
}

func (f *fabric) run(t *tracer, useful func(netsim.NetTotals) int64) (int64, error) {
	steps := f.net.Steps()
	for {
		sp := t.begin("netsim.Run")
		err := f.net.Run(f.net.Now() + f.window)
		t.end(sp)
		if err != nil {
			return 0, err
		}
		if f.net.Steps() != steps {
			break
		}
	}
	u := useful(f.net.Totals())
	n := u - f.last
	f.last = u
	return n, nil
}

// check verifies conservation and that no header leaked.
func (f *fabric) check(t *tracer) []error {
	var errs []error
	sp := t.begin("netsim.CheckConservation")
	err := f.net.CheckConservation()
	t.end(sp)
	if err != nil {
		errs = append(errs, err)
	}
	if live := f.net.LiveHeaders(); live != 0 {
		errs = append(errs, fmt.Errorf("%d headers still checked out after the drain", live))
	}
	return errs
}

// record stores the netsim and switch-layer counts of the epoch.
func (f *fabric) record(m map[string]float64, switches ...[]netsim.NodeID) {
	tot := f.net.Totals()
	m["netsim.steps"] = float64(f.net.Steps())
	m["netsim.ticks"] = float64(f.net.Now())
	m["netsim.delivered_pkts"] = float64(tot.DeliveredPkts)
	m["netsim.dropped_pkts"] = float64(tot.DroppedPkts)
	m["netsim.ecn_marked_pkts"] = float64(tot.EcnMarkedPkts)
	var maxQ int64
	for _, ids := range switches {
		for _, id := range ids {
			stats, err := f.net.SwitchStats(id)
			if err != nil {
				continue
			}
			for _, ps := range stats {
				maxQ = max(maxQ, ps.MaxQueue)
			}
		}
	}
	m["switchsim.max_queue_bytes"] = float64(maxQ)
}

// traceDigest fingerprints a network trace and, when given, the fault
// schedule riding on it.
func traceDigest(tr *workload.NetTrace, faults *netsim.FaultSchedule) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, p := range tr.Packets {
		b = b[:0]
		for _, v := range []int32{p.Src, p.Dst, p.Sport, p.Dport, p.Flow, p.Size} {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		h.Write(binary.LittleEndian.AppendUint64(b, uint64(p.Arrival)))
	}
	if faults != nil {
		fmt.Fprintf(h, "%+v", faults.Events)
	}
	return h.Sum64()
}
