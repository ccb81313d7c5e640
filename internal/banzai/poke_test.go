package banzai

import (
	"testing"

	"domino/internal/algorithms"
	"domino/internal/atoms"
	"domino/internal/codegen"
	"domino/internal/interp"
)

// pokeSrc reads a control-plane-owned state array: the program never
// writes port_up, so only PokeState can change what it reads — the
// netsim fault convention.
const pokeSrc = `
struct Packet { int idx; int out; int lvl; };
int port_up[4] = {1};
int level = 7;
void f(struct Packet pkt) {
  pkt.out = port_up[pkt.idx];
  pkt.lvl = level;
}
`

func TestPokePeekState(t *testing.T) {
	_, m := machine(t, pokeSrc, atoms.Nested)

	read := func(idx int32) int32 {
		out, err := m.Process(interp.Packet{"idx": idx})
		if err != nil {
			t.Fatal(err)
		}
		return out["out"]
	}
	if got := read(2); got != 1 {
		t.Fatalf("initial port_up[2] = %d, want 1", got)
	}
	if !m.PokeState("port_up", 2, 0) {
		t.Fatal("PokeState on a read state array returned false")
	}
	if got := read(2); got != 0 {
		t.Fatalf("after poke, program read port_up[2] = %d, want 0", got)
	}
	if got := read(1); got != 1 {
		t.Fatalf("poke bled into port_up[1]: got %d, want 1", got)
	}
	if v, ok := m.PeekState("port_up", 2); !ok || v != 0 {
		t.Fatalf("PeekState(port_up, 2) = %d,%v, want 0,true", v, ok)
	}

	// Scalars use index 0; other indices are out of range.
	if v, ok := m.PeekState("level", 0); !ok || v != 7 {
		t.Fatalf("PeekState(level, 0) = %d,%v, want 7,true", v, ok)
	}
	if !m.PokeState("level", 0, 9) {
		t.Fatal("PokeState on a scalar returned false")
	}
	if v, _ := m.PeekState("level", 0); v != 9 {
		t.Fatalf("scalar poke lost: %d", v)
	}
	if m.PokeState("level", 1, 1) {
		t.Fatal("PokeState(scalar, index 1) succeeded")
	}

	// Out-of-range and unknown names refuse instead of panicking.
	if m.PokeState("port_up", 4, 0) || m.PokeState("port_up", -1, 0) {
		t.Fatal("out-of-range array poke succeeded")
	}
	if m.PokeState("no_such_state", 0, 1) {
		t.Fatal("poke of an undeclared state succeeded")
	}
	if _, ok := m.PeekState("no_such_state", 0); ok {
		t.Fatal("peek of an undeclared state succeeded")
	}
}

// TestLiveHeaders exercises the pool-leak oracle: acquires raise it,
// releases lower it, and the codec path (EncodeHeader) counts too.
func TestLiveHeaders(t *testing.T) {
	_, m := machine(t, pokeSrc, atoms.Nested)
	if got := m.LiveHeaders(); got != 0 {
		t.Fatalf("fresh machine has %d live headers", got)
	}
	a := m.AcquireHeader()
	b := m.EncodeHeader(interp.Packet{"idx": 1})
	c := m.AcquireHeaderUnzeroed()
	if got := m.LiveHeaders(); got != 3 {
		t.Fatalf("after 3 acquires: %d live", got)
	}
	m.ReleaseHeader(b)
	if got := m.LiveHeaders(); got != 2 {
		t.Fatalf("after 1 release: %d live", got)
	}
	m.ReleaseHeader(a)
	m.ReleaseHeader(c)
	if got := m.LiveHeaders(); got != 0 {
		t.Fatalf("after all releases: %d live", got)
	}
	// Reacquiring reuses the free list without growing `made`.
	d := m.AcquireHeader()
	if got := m.LiveHeaders(); got != 1 {
		t.Fatalf("reacquire: %d live", got)
	}
	m.ReleaseHeader(d)
}

// TestSharedProgramIsolation: machines built from one compiled program
// share no mutable state — the contract behind loading one program per
// fabric tier and poking each switch's position. Pokes, packets and pool
// traffic on one machine leave the other's state, outputs and header
// pool exactly as a never-touched machine's.
func TestSharedProgramIsolation(t *testing.T) {
	src, err := algorithms.FlowletRouteSource(algorithms.RouteParams{Leaves: 4, Spines: 2, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.CompileLeastSource(src)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Machine {
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b, fresh := build(), build(), build()
	trace := make([]interp.Packet, 64)
	for i := range trace {
		trace[i] = interp.Packet{"sport": int32(i % 5), "dport": 9, "dst": int32(i % 8), "arrival": int32(30 * i)}
	}

	// Abuse a: move it to leaf 2, down an uplink, run traffic through
	// every entry point that touches the pool.
	if !a.PokeState(algorithms.LeafIDState, 0, 2) || !a.PokeState(algorithms.PortUpState, 1, 0) {
		t.Fatal("flowlet_route does not expose leaf_id and port_up")
	}
	for _, pkt := range trace {
		h := a.AcquireHeader()
		a.Layout().Encode(pkt, h)
		if out, ok := a.TickH(h); ok {
			a.ReleaseHeader(out)
		}
	}
	for _, h := range a.DrainH() {
		a.ReleaseHeader(h)
	}
	for _, pkt := range trace {
		if _, err := a.Process(pkt.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if a.State().Equal(fresh.State()) {
		t.Fatal("setup: the abused machine's state did not change")
	}

	if !b.State().Equal(fresh.State()) {
		t.Fatal("b's state changed through a's pokes and packets")
	}
	if b.pool.made != 0 || len(b.pool.free) != 0 || b.Packets() != 0 {
		t.Fatalf("b's pool (made %d, free %d) or packet count (%d) moved through a",
			b.pool.made, len(b.pool.free), b.Packets())
	}
	for i, pkt := range trace {
		got, err := b.Process(pkt.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Process(pkt.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for f, v := range want {
			if got[f] != v {
				t.Fatalf("packet %d: b's %s = %d, a never-touched machine says %d", i, f, got[f], v)
			}
		}
	}
	if !b.State().Equal(fresh.State()) {
		t.Fatal("b's state diverged from a never-touched machine's")
	}
}
