package banzai

import (
	"math/rand"
	"testing"

	"domino/internal/interp"
)

// TestDifferentialExecutionPaths runs one random packet sequence through
// every execution path — the reference interpreter, the map-based Process,
// the header-based ProcessH (optimized and unoptimized), and
// ProcessBatch in both packet-major and stage-major order — and requires
// bit-identical outputs and final state from all of them. Since every
// machine path executes the build-time-compiled closure programs, this is
// also the proof that closure specialization and stage fusion preserve the
// interpreter's semantics exactly.
func TestDifferentialExecutionPaths(t *testing.T) {
	const n = 512
	const batch = 64
	for name, tc := range corpus {
		t.Run(name, func(t *testing.T) {
			info, p := compile(t, tc.src, tc.atom)
			ref := interp.New(info)
			mProc, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			mHdr, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			mBatch, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			mStage, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			mNoOpt, err := NewWith(p, Options{DisableOptimizer: true})
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(99))
			trace := make([]interp.Packet, n)
			for i := range trace {
				pkt := interp.Packet{}
				for _, f := range info.Fields {
					pkt[f] = int32(rng.Intn(1001))
				}
				trace[i] = pkt
			}

			// Path 1: reference interpreter.
			want := make([]interp.Packet, n)
			for i, pkt := range trace {
				w := pkt.Clone()
				if err := ref.Run(w); err != nil {
					t.Fatalf("interpreter: %v", err)
				}
				want[i] = w
			}

			check := func(path string, i int, out interp.Packet) {
				t.Helper()
				for _, f := range info.Fields {
					if out[f] != want[i][f] {
						t.Fatalf("%s: packet %d field %s = %d, interpreter says %d",
							path, i, f, out[f], want[i][f])
					}
				}
			}

			// Path 2: map-based Process.
			for i, pkt := range trace {
				out, err := mProc.Process(pkt)
				if err != nil {
					t.Fatal(err)
				}
				check("Process", i, out)
			}

			// Path 3: header-based ProcessH.
			hl := mHdr.Layout()
			for i, pkt := range trace {
				h := mHdr.AcquireHeader()
				hl.Encode(pkt, h)
				if err := mHdr.ProcessH(h); err != nil {
					t.Fatal(err)
				}
				check("ProcessH", i, hl.Output(h))
				mHdr.ReleaseHeader(h)
			}

			// Path 3b: ProcessH with the build-time optimizer disabled —
			// the optimized machines above must be indistinguishable from
			// the direct lowering (and both from the interpreter).
			nl := mNoOpt.Layout()
			for i, pkt := range trace {
				h := mNoOpt.AcquireHeader()
				nl.Encode(pkt, h)
				if err := mNoOpt.ProcessH(h); err != nil {
					t.Fatal(err)
				}
				check("ProcessH (unoptimized)", i, nl.Output(h))
				mNoOpt.ReleaseHeader(h)
			}

			// Path 4: ProcessBatch.
			bl := mBatch.Layout()
			for start := 0; start < n; start += batch {
				hs := make([]Header, batch)
				for j := range hs {
					hs[j] = bl.NewHeader()
					bl.Encode(trace[start+j], hs[j])
				}
				if err := mBatch.ProcessBatch(hs); err != nil {
					t.Fatal(err)
				}
				for j, h := range hs {
					check("ProcessBatch", start+j, bl.Output(h))
				}
			}

			// Path 5: ProcessBatchStageMajor — stage-major execution order
			// must be indistinguishable from packet-major.
			stl := mStage.Layout()
			for start := 0; start < n; start += batch {
				hs := make([]Header, batch)
				for j := range hs {
					hs[j] = stl.NewHeader()
					stl.Encode(trace[start+j], hs[j])
				}
				if err := mStage.ProcessBatchStageMajor(hs); err != nil {
					t.Fatal(err)
				}
				for j, h := range hs {
					check("ProcessBatchStageMajor", start+j, stl.Output(h))
				}
			}

			// Final state must agree everywhere.
			st := ref.State()
			for path, got := range map[string]*interp.State{
				"Process":                mProc.State(),
				"ProcessH":               mHdr.State(),
				"ProcessH (unoptimized)": mNoOpt.State(),
				"ProcessBatch":           mBatch.State(),
				"ProcessBatchStageMajor": mStage.State(),
			} {
				if !st.Equal(got) {
					t.Errorf("%s: final state diverged from interpreter", path)
				}
			}
		})
	}
}

// TestHeaderPoolReuse checks the pooling contract: a released header comes
// back zeroed on the next acquire, without a fresh allocation.
func TestHeaderPoolReuse(t *testing.T) {
	_, m := machine(t, flowletSrc, corpus["flowlet"].atom)
	h := m.AcquireHeader()
	for i := range h {
		h[i] = int32(i + 1)
	}
	m.ReleaseHeader(h)
	h2 := m.AcquireHeader()
	if &h[0] != &h2[0] {
		t.Error("pool did not reuse the released header's storage")
	}
	for i, v := range h2 {
		if v != 0 {
			t.Fatalf("reacquired header slot %d = %d, want 0", i, v)
		}
	}
}

// TestTickHMatchesTick drives the same sequence through the map Tick and
// the header TickH on separate machines (random bubbles included) and
// requires identical outputs and state — the wrapper and the fast path are
// the same pipeline.
func TestTickHMatchesTick(t *testing.T) {
	info, mMap := machine(t, flowletSrc, corpus["flowlet"].atom)
	_, mHdr := machine(t, flowletSrc, corpus["flowlet"].atom)
	rng := rand.New(rand.NewSource(21))
	l := mHdr.Layout()

	var fromMap, fromHdr []interp.Packet
	step := func(in interp.Packet) {
		if out, ok := mMap.Tick(in); ok {
			fromMap = append(fromMap, out)
		}
		var h Header
		if in != nil {
			h = mHdr.AcquireHeader()
			l.Encode(in, h)
		}
		if out, ok := mHdr.TickH(h); ok {
			fromHdr = append(fromHdr, l.Output(out))
			mHdr.ReleaseHeader(out)
		}
	}
	for i := 0; i < 300; i++ {
		in := interp.Packet{}
		for _, f := range info.Fields {
			in[f] = int32(rng.Intn(4000))
		}
		for rng.Intn(4) == 0 {
			step(nil)
		}
		step(in)
	}
	for i := 0; i < mMap.Depth(); i++ {
		step(nil)
	}
	if len(fromMap) != len(fromHdr) || len(fromMap) != 300 {
		t.Fatalf("map path emitted %d, header path %d, want 300", len(fromMap), len(fromHdr))
	}
	for i := range fromMap {
		for _, f := range info.Fields {
			if fromMap[i][f] != fromHdr[i][f] {
				t.Fatalf("packet %d field %s: Tick=%d TickH=%d", i, f, fromMap[i][f], fromHdr[i][f])
			}
		}
	}
	if !mMap.State().Equal(mHdr.State()) {
		t.Fatal("state diverged between Tick and TickH")
	}
}
