package netsim

import (
	"strings"
	"testing"

	"domino/internal/algorithms"
	"domino/internal/codegen"
)

// distinctPrograms counts the distinct compiled programs a network's
// switches run.
func distinctPrograms(n *Network) int {
	progs := map[*codegen.Program]bool{}
	for _, w := range n.switches {
		progs[w.prog] = true
	}
	return len(progs)
}

// checkIdentity asserts one switch's poked position scalar.
func checkIdentity(t *testing.T, n *Network, id NodeID, name string, want int32) {
	t.Helper()
	if v, ok := n.nodes[id].sw.sw.Machine().PeekState(name, 0); !ok || v != want {
		t.Errorf("%s: %s = %d,%v, want %d", n.nodes[id].name, name, v, ok, want)
	}
}

// checkFatTreeIdentity asserts every edge's and agg's poked position.
func checkFatTreeIdentity(t *testing.T, ft *FatTree) {
	t.Helper()
	half := int32(ft.K() / 2)
	for e, id := range ft.Edges {
		checkIdentity(t, ft.Net, id, algorithms.LeafIDState, int32(e))
	}
	for a, id := range ft.Aggs {
		pod := int32(a) / half
		checkIdentity(t, ft.Net, id, algorithms.FatAggEdgeLoState, pod*half)
		checkIdentity(t, ft.Net, id, algorithms.FatAggEdgeHiState, (pod+1)*half)
	}
}

// TestFatTreeOneProgramPerTier: a k=8 fat tree compiles one program per
// tier — edge, agg, core — and the switches' positions are poked state.
// A scrambled restart garbles those cells along with everything else;
// the restart's identity replay must put every switch back in place
// (switch_id included, which the INT block folds into path digests).
func TestFatTreeOneProgramPerTier(t *testing.T) {
	ft, _, err := (FatTreeExperimentConfig{Routing: "flowlet_route", K: 8, INT: true}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := distinctPrograms(ft.Net); got != 3 {
		t.Fatalf("k=8 fat tree holds %d distinct programs, want 3 (one per tier)", got)
	}
	checkFatTreeIdentity(t, ft)
	n := ft.Net
	for i, w := range n.switches {
		n.applyFault(&FaultEvent{Kind: FaultSwitchRestart, Node: w.id, Scramble: i%2 == 0})
	}
	checkFatTreeIdentity(t, ft)
	for _, w := range n.switches {
		checkIdentity(t, n, w.id, algorithms.INTSwitchIDState, int32(w.id))
	}
}

// TestFatTreeTopology pins the k-ary fat-tree shape: k pods of k/2 edge
// and k/2 aggregation switches, (k/2)^2 cores, k^3/4 hosts.
func TestFatTreeTopology(t *testing.T) {
	for _, k := range []int{4, 8} {
		fc := FatTreeExperimentConfig{Routing: "ecmp_route", K: k}
		ft, _, err := fc.Build()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		half := k / 2
		if got, want := len(ft.Edges), k*half; got != want {
			t.Errorf("k=%d: %d edges, want %d", k, got, want)
		}
		if got, want := len(ft.Aggs), k*half; got != want {
			t.Errorf("k=%d: %d aggs, want %d", k, got, want)
		}
		if got, want := len(ft.Cores), half*half; got != want {
			t.Errorf("k=%d: %d cores, want %d", k, got, want)
		}
		if got, want := len(ft.Hosts), k*k*k/4; got != want {
			t.Errorf("k=%d: %d hosts, want %d", k, got, want)
		}
	}
}

// TestFatTreeFCTConservation runs the heavy-tailed FCT experiment on a
// k=4 fat tree for every leaf routing (RunFatTreeFCT checks all four
// conservation identities internally) and sanity-checks the report.
func TestFatTreeFCTConservation(t *testing.T) {
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		routing := routing
		t.Run(routing, func(t *testing.T) {
			t.Parallel()
			res, err := RunFatTreeFCT(FatTreeExperimentConfig{
				Routing: routing, K: 4, Seed: 5,
				Flows: 64, MeanGapTicks: 100, MaxPkts: 128,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != res.Flows {
				t.Errorf("%d of %d flows completed", res.Completed, res.Flows)
			}
			if res.Delivered+res.Feedback != res.Injected {
				t.Errorf("delivered %d + feedback %d of %d injected (dropped %d) on a healthy fabric",
					res.Delivered, res.Feedback, res.Injected, res.Dropped)
			}
			if res.FCTP50 < 1 || res.FCTP99 < res.FCTP50 || res.FCTMax < res.FCTP99 {
				t.Errorf("implausible FCT percentiles: p50 %d p99 %d max %d",
					res.FCTP50, res.FCTP99, res.FCTMax)
			}
			t.Logf("%s: %d ticks in %d steps; FCT p50 %d p95 %d p99 %d max %d (mice p99 %d, elephant p99 %d)",
				routing, res.Ticks, res.Steps, res.FCTP50, res.FCTP95, res.FCTP99, res.FCTMax,
				res.MiceP99, res.ElephantP99)
		})
	}
}

// TestFatTreeWatchdogTripsOnWedge stalls an aggregation switch forever
// with traffic queued behind it: the event core must keep stepping the
// wedged state per-tick (never skipping past it) and the no-progress
// watchdog must trip with its diagnostic.
func TestFatTreeWatchdogTripsOnWedge(t *testing.T) {
	fc := FatTreeExperimentConfig{
		Routing: "ecmp_route", K: 4, Seed: 9,
		Flows: 32, MeanGapTicks: 8, MinPkts: 4, MaxPkts: 32,
	}
	ft, _, err := fc.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := ft.Net
	if err := n.SetTrace(fc.Trace(), ft.Hosts); err != nil {
		t.Fatal(err)
	}
	n.WatchdogTicks = 256
	sched := &FaultSchedule{}
	for _, agg := range ft.Aggs {
		sched.SwitchStall(1, agg) // sever every pod's uplinks — and never recover
	}
	if err := n.SetFaults(sched); err != nil {
		t.Fatal(err)
	}
	err = n.Drain(1 << 20)
	if err == nil {
		t.Fatal("Drain succeeded with every aggregation switch stalled forever")
	}
	if !strings.Contains(err.Error(), "no progress for") {
		t.Fatalf("expected the no-progress watchdog, got: %v", err)
	}
	t.Logf("watchdog tripped as expected: %v", err)
}

// TestFatTreeRejectsBadConfig covers NewFatTree's validation.
func TestFatTreeRejectsBadConfig(t *testing.T) {
	if _, _, err := (FatTreeExperimentConfig{Routing: "ecmp_route", K: 3}).Build(); err == nil {
		t.Error("odd k accepted")
	}
	if _, _, err := (FatTreeExperimentConfig{Routing: "spine_route", K: 4}).Build(); err == nil {
		t.Error("non-leaf routing accepted")
	}
	if _, _, err := (FatTreeExperimentConfig{Routing: "nope", K: 4}).Build(); err == nil {
		t.Error("unknown routing accepted")
	}
	if _, err := NewFatTree(FatTreeConfig{K: 4}); err == nil {
		t.Error("fat tree without programs accepted")
	}
}
