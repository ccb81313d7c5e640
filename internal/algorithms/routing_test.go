package algorithms

import (
	"testing"

	"domino/internal/atoms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/interp"
)

// TestRoutingCatalogCompiles: every routing transaction compiles for a
// range of fabric shapes — the all-or-nothing guarantee applies to
// routing policies like any other transaction.
func TestRoutingCatalogCompiles(t *testing.T) {
	shapes := []RouteParams{
		{LeafID: 0, Leaves: 2, Spines: 2, HostsPerLeaf: 1},
		{LeafID: 1, Leaves: 4, Spines: 2, HostsPerLeaf: 2},
		{LeafID: 3, Leaves: 4, Spines: 3, HostsPerLeaf: 4},
	}
	for _, r := range Routings() {
		for _, p := range shapes {
			src, err := r.Source(p)
			if err != nil {
				t.Fatalf("%s %+v: %v", r.Name, p, err)
			}
			if _, err := codegen.CompileLeastSource(src); err != nil {
				t.Fatalf("%s %+v does not compile: %v", r.Name, p, err)
			}
		}
	}
	if _, err := ECMPRouteSource(RouteParams{LeafID: 5, Leaves: 2, Spines: 2, HostsPerLeaf: 1}); err == nil {
		t.Fatal("out-of-range leaf id accepted")
	}
	// CONGA's best-path table has 64 entries; a bigger fabric would alias.
	if _, err := CongaRouteSource(RouteParams{LeafID: 0, Leaves: 65, Spines: 2, HostsPerLeaf: 1}); err == nil {
		t.Fatal("conga_route accepted a fabric larger than its table")
	}
	if _, err := CongaRouteSource(RouteParams{LeafID: 0, Leaves: 64, Spines: 2, HostsPerLeaf: 1}); err != nil {
		t.Fatalf("conga_route rejected a 64-leaf fabric: %v", err)
	}
	if _, err := RoutingByName("ecmp_route"); err != nil {
		t.Fatal(err)
	}
	if _, err := RoutingByName("nope"); err == nil {
		t.Fatal("unknown routing accepted")
	}
}

func routeMachine(t *testing.T, src string) *banzai.Machine {
	t.Helper()
	p, err := codegen.CompileLeastSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := banzai.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runRoute(t *testing.T, m *banzai.Machine, pkt interp.Packet) interp.Packet {
	t.Helper()
	out, err := m.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestECMPRouteSemantics: local traffic goes down the right host port,
// remote traffic is pinned to one uplink per flow.
func TestECMPRouteSemantics(t *testing.T) {
	p := RouteParams{LeafID: 1, Leaves: 4, Spines: 2, HostsPerLeaf: 2}
	src, err := ECMPRouteSource(p)
	if err != nil {
		t.Fatal(err)
	}
	m := routeMachine(t, src)

	// Host 3 sits under leaf 1 (3/2): local, down port = 2 + 3%2 = 3.
	out := runRoute(t, m, interp.Packet{"sport": 10, "dport": 20, "dst": 3})
	if out["out_port"] != 3 || out["local"] != 1 {
		t.Fatalf("local routing: out_port=%d local=%d, want 3/1", out["out_port"], out["local"])
	}
	// Host 6 sits under leaf 3: remote, uplink in [0, 2), stable per flow.
	first := runRoute(t, m, interp.Packet{"sport": 10, "dport": 20, "dst": 6})
	if first["local"] != 0 || first["out_port"] < 0 || first["out_port"] >= 2 {
		t.Fatalf("remote routing: %v", first)
	}
	for i := 0; i < 5; i++ {
		again := runRoute(t, m, interp.Packet{"sport": 10, "dport": 20, "dst": 6, "arrival": int32(100 * i)})
		if again["out_port"] != first["out_port"] {
			t.Fatal("ECMP re-picked the uplink for one flow")
		}
	}
}

// TestFlowletRouteSemantics: within a burst the uplink is pinned; after a
// gap beyond the threshold it may re-hash (and does, for this flow).
func TestFlowletRouteSemantics(t *testing.T) {
	p := RouteParams{LeafID: 0, Leaves: 4, Spines: 4, HostsPerLeaf: 2}
	src, err := FlowletRouteSource(p)
	if err != nil {
		t.Fatal(err)
	}
	m := routeMachine(t, src)

	pin := runRoute(t, m, interp.Packet{"sport": 7, "dport": 9, "dst": 5, "arrival": 100})
	for _, arr := range []int32{101, 103, 110} {
		out := runRoute(t, m, interp.Packet{"sport": 7, "dport": 9, "dst": 5, "arrival": arr})
		if out["out_port"] != pin["out_port"] {
			t.Fatalf("intra-burst re-route at arrival %d", arr)
		}
	}
	// Find a gap where the re-hash lands on a different spine (4 spines,
	// so most arrivals do).
	changed := false
	for _, arr := range []int32{200, 400, 700, 1100} {
		out := runRoute(t, m, interp.Packet{"sport": 7, "dport": 9, "dst": 5, "arrival": arr})
		if out["out_port"] != pin["out_port"] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("flowlet never re-picked the uplink across large gaps")
	}
}

// TestCongaRouteSemantics: feedback absorbed at the home leaf steers
// later data packets to the reported path; data packets and transiting
// feedback never corrupt the table.
func TestCongaRouteSemantics(t *testing.T) {
	p := RouteParams{LeafID: 1, Leaves: 4, Spines: 2, HostsPerLeaf: 2}
	src, err := CongaRouteSource(p)
	if err != nil {
		t.Fatal(err)
	}
	m := routeMachine(t, src)

	// The probe decision is stateless, so a scratch machine can classify
	// packets without touching m's table. The fixed (sport=5, dport=6)
	// data packet below must be a non-probing one for the best-path
	// assertions to be about the table, not the probe spray.
	scratch := routeMachine(t, src)
	if out := runRoute(t, scratch, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1}); out["probe"] == 0 {
		t.Fatal("test packet (sport=5, dport=6, arrival=0) probes; pick another flow")
	}

	// Feedback for dst-leaf 0 (fb src host 0 sits under leaf 0), arriving
	// for local host 2: path 1 had util 50.
	fb := runRoute(t, m, interp.Packet{"fb": 1, "fb_path": 1, "fb_util": 50, "src": 0, "dst": 2, "sport": 1, "dport": 1})
	if fb["absorb"] != 1 || fb["key"] != 0 {
		t.Fatalf("feedback not absorbed: %v", fb)
	}
	// Data to host 1 (leaf 0) now follows path 1.
	d := runRoute(t, m, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1})
	if d["up"] != 1 || d["out_port"] != 1 {
		t.Fatalf("data ignored feedback: up=%d out_port=%d", d["up"], d["out_port"])
	}
	// Better feedback for path 0 wins.
	runRoute(t, m, interp.Packet{"fb": 1, "fb_path": 0, "fb_util": 10, "src": 1, "dst": 3, "sport": 1, "dport": 1})
	d = runRoute(t, m, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1})
	if d["up"] != 0 {
		t.Fatalf("lower-util path not adopted: up=%d", d["up"])
	}
	// Worse feedback for the current best path raises its util (the
	// second CONGA branch), re-opening the choice.
	runRoute(t, m, interp.Packet{"fb": 1, "fb_path": 0, "fb_util": 90, "src": 1, "dst": 3, "sport": 1, "dport": 1})
	runRoute(t, m, interp.Packet{"fb": 1, "fb_path": 1, "fb_util": 60, "src": 1, "dst": 3, "sport": 1, "dport": 1})
	d = runRoute(t, m, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1})
	if d["up"] != 1 {
		t.Fatalf("congested best path not abandoned: up=%d", d["up"])
	}

	// Data packets must never write the table: hammer the machine with
	// data and transiting feedback, then confirm the choice stands.
	for i := 0; i < 50; i++ {
		runRoute(t, m, interp.Packet{"sport": int32(i), "dport": 99, "src": 2, "dst": 7, "util": int32(i)})
		// Transiting feedback: home leaf of dst 7 is leaf 3, not us.
		runRoute(t, m, interp.Packet{"fb": 1, "fb_path": 0, "fb_util": 1, "src": 2, "dst": 7, "sport": int32(i), "dport": 9})
	}
	d = runRoute(t, m, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1})
	if d["up"] != 1 {
		t.Fatalf("table corrupted by non-absorbed packets: up=%d", d["up"])
	}

	// Probing: a 1-in-PROBE hash-selected slice of data packets explores
	// the arrival-hashed uplink instead of the table's best path — the
	// exploration that keeps feedback covering every path. Both kinds
	// must appear across arrivals, and each must route as specified.
	probed, followed := 0, 0
	for arr := int32(0); arr < 64; arr++ {
		out := runRoute(t, m, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1, "arrival": arr})
		if out["probe"] == 0 {
			probed++
			if out["up"] != out["pup"] {
				t.Fatalf("arrival %d: probing packet took up=%d, want explored pup=%d", arr, out["up"], out["pup"])
			}
		} else {
			followed++
			if out["up"] != out["best"] {
				t.Fatalf("arrival %d: data packet took up=%d, want best=%d", arr, out["up"], out["best"])
			}
		}
	}
	if probed == 0 || followed == 0 {
		t.Fatalf("probe split %d/%d over 64 arrivals; both classes must occur", probed, followed)
	}
}

// TestSpineRouteSemantics: the spine's port is the destination leaf.
func TestSpineRouteSemantics(t *testing.T) {
	src, err := SpineRouteSource(RouteParams{Leaves: 4, Spines: 2, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := routeMachine(t, src)
	for dst := int32(0); dst < 8; dst++ {
		out := runRoute(t, m, interp.Packet{"dst": dst})
		if out["out_port"] != dst/2 {
			t.Fatalf("dst %d routed to port %d, want %d", dst, out["out_port"], dst/2)
		}
	}
	if got := m.State().Scalars["total_pkts"]; got != 8 {
		t.Fatalf("spine packet count = %d, want 8", got)
	}
}

// TestPortUpReroute: the liveness contract the fault harness relies on.
// flowlet_route and conga_route consult port_up and detour to the next
// uplink when their chosen one is poked down; ecmp_route never declares
// the array, so a poke refuses and its route is unmoved — failure-blind
// by construction, not by accident.
func TestPortUpReroute(t *testing.T) {
	t.Run("flowlet", func(t *testing.T) {
		p := RouteParams{LeafID: 0, Leaves: 4, Spines: 4, HostsPerLeaf: 2}
		src, err := FlowletRouteSource(p)
		if err != nil {
			t.Fatal(err)
		}
		m := routeMachine(t, src)
		// Pin a burst; dst 5 sits under leaf 2, so the route is an uplink.
		pkt := func(arr int32) interp.Packet {
			return interp.Packet{"sport": 7, "dport": 9, "dst": 5, "arrival": arr}
		}
		pin := runRoute(t, m, pkt(100))
		up := pin["out_port"]
		alt := up + 1
		if alt == int32(p.Spines) {
			alt = 0
		}
		if !m.PokeState(PortUpState, int(up), 0) {
			t.Fatal("flowlet_route does not expose port_up")
		}
		// Same burst (gap < threshold): saved hop unchanged, but the
		// packet must detour to the next uplink.
		if out := runRoute(t, m, pkt(101)); out["out_port"] != alt {
			t.Fatalf("downed uplink %d: routed to %d, want detour %d", up, out["out_port"], alt)
		}
		m.PokeState(PortUpState, int(up), 1)
		if out := runRoute(t, m, pkt(102)); out["out_port"] != up {
			t.Fatalf("recovered uplink: routed to %d, want %d", out["out_port"], up)
		}
	})

	t.Run("conga", func(t *testing.T) {
		p := RouteParams{LeafID: 1, Leaves: 4, Spines: 2, HostsPerLeaf: 2}
		src, err := CongaRouteSource(p)
		if err != nil {
			t.Fatal(err)
		}
		m := routeMachine(t, src)
		// Feedback steers the table to path 1 (see TestCongaRouteSemantics;
		// the sport=5/dport=6/arrival=0 data packet is non-probing there).
		runRoute(t, m, interp.Packet{"fb": 1, "fb_path": 1, "fb_util": 50, "src": 0, "dst": 2, "sport": 1, "dport": 1})
		d := runRoute(t, m, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1})
		if d["probe"] == 0 {
			t.Fatal("test packet probes; best-path assertions would be vacuous")
		}
		if d["up"] != 1 {
			t.Fatalf("setup: best path = %d, want 1", d["up"])
		}
		if !m.PokeState(PortUpState, 1, 0) {
			t.Fatal("conga_route does not expose port_up")
		}
		// The table still names path 1, but the packet detours to 0.
		d = runRoute(t, m, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1})
		if d["upsel"] != 1 || d["up"] != 0 || d["out_port"] != 0 {
			t.Fatalf("downed best path: upsel=%d up=%d out_port=%d, want 1/0/0", d["upsel"], d["up"], d["out_port"])
		}
		m.PokeState(PortUpState, 1, 1)
		d = runRoute(t, m, interp.Packet{"sport": 5, "dport": 6, "src": 2, "dst": 1})
		if d["up"] != 1 {
			t.Fatalf("recovered best path: up=%d, want 1", d["up"])
		}
	})

	t.Run("ecmp-blind", func(t *testing.T) {
		src, err := ECMPRouteSource(RouteParams{LeafID: 1, Leaves: 4, Spines: 2, HostsPerLeaf: 2})
		if err != nil {
			t.Fatal(err)
		}
		m := routeMachine(t, src)
		before := runRoute(t, m, interp.Packet{"sport": 10, "dport": 20, "dst": 6})
		if m.PokeState(PortUpState, int(before["out_port"]), 0) {
			t.Fatal("ecmp_route accepted a port_up poke; it must not declare the array")
		}
		after := runRoute(t, m, interp.Packet{"sport": 10, "dport": 20, "dst": 6})
		if after["out_port"] != before["out_port"] {
			t.Fatal("ecmp moved its route without any state to consult")
		}
	})
}

// TestRoutingPipelineShape pins every routing transaction's pipeline
// depth and least atom, with the observation blocks off and on. Moving a
// leaf's position from a compile-time constant into the leaf_id /
// edge_lo / edge_hi state made ecmp_route and fat_agg_route read state
// (Stateless → Write) but lengthened no pipeline, and conga_route's
// feedback validity check rides beside the locality test.
func TestRoutingPipelineShape(t *testing.T) {
	want := map[string]struct {
		depth, obsDepth int
		atom            atoms.Kind
	}{
		"ecmp_route":    {3, 6, atoms.Write},
		"flowlet_route": {10, 13, atoms.PRAW},
		"conga_route":   {12, 15, atoms.Pairs},
		"spine_route":   {1, 4, atoms.ReadAddWrite},
		"fat_agg_route": {4, 7, atoms.Write},
	}
	for _, r := range Routings() {
		w, ok := want[r.Name]
		if !ok {
			t.Fatalf("%s: no expected shape", r.Name)
		}
		for _, obs := range []bool{false, true} {
			src, err := r.Source(RouteParams{Leaves: 4, Spines: 2, HostsPerLeaf: 2, ECN: obs, INT: obs})
			if err != nil {
				t.Fatal(err)
			}
			p, err := codegen.CompileLeastSource(src)
			if err != nil {
				t.Fatalf("%s (obs %v): %v", r.Name, obs, err)
			}
			depth := w.depth
			if obs {
				depth = w.obsDepth
			}
			if p.NumStages() != depth || p.LeastAtom != w.atom {
				t.Errorf("%s (ECN+INT %v): %d stages, least atom %v; want %d, %v",
					r.Name, obs, p.NumStages(), p.LeastAtom, depth, w.atom)
			}
		}
	}
}

// TestPositionIsState: a leaf program compiled for leaf 0 and poked to
// leaf 2 routes exactly like one compiled for leaf 2, and a fat_agg_route
// compiled for pod 0 and poked to pod 1's edge range routes like one
// compiled for pod 1 — so one compile serves every switch of a tier.
func TestPositionIsState(t *testing.T) {
	leaf := RouteParams{Leaves: 4, Spines: 2, HostsPerLeaf: 2}
	agg := RouteParams{Leaves: 4, Spines: 2, HostsPerLeaf: 2} // k=4: pod p owns edges [2p, 2p+2)
	for _, r := range Routings() {
		if r.Name == "spine_route" {
			continue // position-free: out_port is the destination leaf
		}
		p, pokes := leaf, map[string]int32{LeafIDState: 2}
		if r.Name == "fat_agg_route" {
			p, pokes = agg, map[string]int32{FatAggEdgeLoState: 2, FatAggEdgeHiState: 4}
		}
		src, err := r.Source(p)
		if err != nil {
			t.Fatal(err)
		}
		m := routeMachine(t, src)
		for name, v := range pokes {
			if !m.PokeState(name, 0, v) {
				t.Fatalf("%s does not expose %s", r.Name, name)
			}
		}
		p.LeafID = 2
		if r.Name == "fat_agg_route" {
			p.LeafID = 1
		}
		if src, err = r.Source(p); err != nil {
			t.Fatal(err)
		}
		ref := routeMachine(t, src)
		locals := 0
		for dst := int32(0); dst < 16; dst++ {
			pkt := interp.Packet{"sport": 3 * dst, "dport": 7, "dst": dst, "src": 1, "arrival": 10 * dst}
			got, want := runRoute(t, m, pkt.Clone()), runRoute(t, ref, pkt.Clone())
			if got["out_port"] != want["out_port"] || got["local"] != want["local"] {
				t.Fatalf("%s dst %d: poked program out_port=%d local=%d, compiled-in %d/%d",
					r.Name, dst, got["out_port"], got["local"], want["out_port"], want["local"])
			}
			locals += int(got["local"])
		}
		if locals == 0 {
			t.Fatalf("%s: no destination was local to the poked position", r.Name)
		}
	}
}

// TestCongaRejectsScrambledFeedback: a feedback packet whose report was
// scrambled on a corrupting link (negative utilization, a path outside
// [0, SPINES)) reaches its home leaf but leaves the best-path table
// untouched, in the reference interpreter and on the compiled pipeline
// alike; the next sane report is absorbed as usual.
func TestCongaRejectsScrambledFeedback(t *testing.T) {
	src, err := CongaRouteSource(RouteParams{LeafID: 1, Leaves: 4, Spines: 2, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.CompileLeastSource(src)
	if err != nil {
		t.Fatal(err)
	}
	ref := interp.New(p.Info)
	m := routeMachine(t, src)
	fb := func(util, path int32) interp.Packet {
		// Feedback from host 0 (leaf 0) arriving for local host 2.
		return interp.Packet{"fb": 1, "fb_util": util, "fb_path": path, "src": 0, "dst": 2, "sport": 1, "dport": 1}
	}
	table := func() (int32, int32) {
		st := ref.State()
		u, pth := st.Arrays["best_util"][0], st.Arrays["best_path"][0]
		mu, _ := m.PeekState("best_util", 0)
		mp, _ := m.PeekState("best_path", 0)
		if mu != u || mp != pth {
			t.Fatalf("pipeline table (%d, %d) diverged from interpreter (%d, %d)", mu, mp, u, pth)
		}
		return u, pth
	}
	send := func(pkt interp.Packet) {
		t.Helper()
		if err := ref.Run(pkt.Clone()); err != nil {
			t.Fatal(err)
		}
		runRoute(t, m, pkt)
	}
	u0, p0 := table()
	for _, bad := range []interp.Packet{
		fb(-1225641854, -932953599), // the PR-era poisoning: negative util and path
		fb(-1, 1),                   // negative util, sane path
		fb(10, 2),                   // sane util, path == SPINES
		fb(10, -1),                  // sane util, negative path
	} {
		send(bad)
		if u, pth := table(); u != u0 || pth != p0 {
			t.Fatalf("scrambled feedback %v changed the table to (%d, %d), want (%d, %d)",
				bad, u, pth, u0, p0)
		}
	}
	send(fb(50, 1))
	if u, pth := table(); u != 50 || pth != 1 {
		t.Fatalf("sane feedback not absorbed: table (%d, %d), want (50, 1)", u, pth)
	}
}
