package banzai

import (
	"domino/internal/codegen"
	"domino/internal/interp"
)

// Header is the in-pipeline slot-vector representation of a packet: one
// int32 per field (declared fields, SSA temporaries and final versions),
// with the field↔slot mapping held by a shared Layout. The compiled data
// path operates exclusively on Headers; the map-based interp.Packet form
// exists only at the edges, via the Layout codec.
type Header []int32

// Layout maps packet field names to header slots for one compiled program.
// Machines instantiated from the same program can share one Layout (see
// NewWithLayout), so headers move between a traffic generator and those
// machines without translation.
type Layout struct {
	fieldSlot map[string]int
	slotField []string
	// finals maps each original packet field to the slot of its final SSA
	// version — the value that leaves the pipeline (sorted by field name).
	finals []finalPair
	// opt is the optimizer result the layout was computed from; machines
	// built against this layout (NewWithLayout) lower exactly these
	// statements, so machines and their shared layout cannot disagree on
	// slot numbering.
	opt *optProgram
}

type finalPair struct {
	field string
	slot  int
}

// NewLayout computes the slot assignment for a compiled program under the
// default build options: declared fields first (so inputs always have
// slots), then surviving IR temporaries, then final versions. Slots are
// compacted — SSA temporaries the build-time optimizer proves dead get no
// slot. The assignment is deterministic for a given program.
func NewLayout(p *codegen.Program) *Layout {
	l, err := NewLayoutWith(p, Options{})
	if err != nil {
		// Default options cannot fail (no OutputFields to misname).
		panic("banzai: " + err.Error())
	}
	return l
}

// NewLayoutWith computes the slot assignment under explicit build
// options (see Options; OutputFields narrows which departing values keep
// slots, DisableOptimizer reproduces the full unoptimized layout).
func NewLayoutWith(p *codegen.Program, opts Options) (*Layout, error) {
	o, err := optimize(p, opts)
	if err != nil {
		return nil, err
	}
	return newLayoutFromOpt(o), nil
}

// slotOf returns the slot of a field, assigning the next free slot on first
// use.
func (l *Layout) slotOf(field string) int {
	if s, ok := l.fieldSlot[field]; ok {
		return s
	}
	s := len(l.slotField)
	l.fieldSlot[field] = s
	l.slotField = append(l.slotField, field)
	return s
}

// NumSlots returns the header width (fields including temporaries).
func (l *Layout) NumSlots() int { return len(l.slotField) }

// Slot returns the slot of a field name, if it has one.
func (l *Layout) Slot(field string) (int, bool) {
	s, ok := l.fieldSlot[field]
	return s, ok
}

// OutputSlot returns the slot holding the departing value of an original
// packet field (its final SSA version).
func (l *Layout) OutputSlot(field string) (int, bool) {
	for _, fp := range l.finals {
		if fp.field == field {
			return fp.slot, true
		}
	}
	return 0, false
}

// NewHeader allocates a zeroed header of this layout's width. The hot path
// should draw headers from a Machine's pool instead (AcquireHeader).
func (l *Layout) NewHeader() Header { return make(Header, len(l.slotField)) }

// Encode writes a parsed packet into h (zeroing it first). Fields without a
// slot are ignored, matching the map-based API's behavior.
func (l *Layout) Encode(pkt interp.Packet, h Header) {
	clear(h)
	for f, v := range pkt {
		if slot, ok := l.fieldSlot[f]; ok {
			h[slot] = v
		}
	}
}

// Output converts a departing header to a packet carrying the final version
// of every declared field under its original name. It allocates; use it
// only at the edge of the data path.
func (l *Layout) Output(h Header) interp.Packet {
	out := make(interp.Packet, len(l.finals))
	for _, fp := range l.finals {
		out[fp.field] = h[fp.slot]
	}
	return out
}

// headerPool is a free list of headers for one machine. Acquire/release is
// not safe for concurrent use — each Machine owns its pool, matching the
// machine's own single-caller contract.
type headerPool struct {
	width int
	free  []Header
	// made counts headers the pool has ever allocated, so made-len(free)
	// is the number currently checked out — the leak oracle behind
	// Machine.LiveHeaders.
	made int
}

// get returns a pooled header without zeroing it — for codec paths where
// Layout.Encode clears the header anyway. Reused headers carry stale slots.
func (p *headerPool) get() Header {
	if n := len(p.free); n > 0 {
		h := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return h
	}
	p.made++
	return make(Header, p.width)
}

func (p *headerPool) put(h Header) {
	if cap(h) >= p.width {
		p.free = append(p.free, h[:p.width])
	}
}

// AcquireHeader returns a zeroed header from the machine's free list,
// allocating only when the list is empty. Ownership passes to the caller;
// return it with ReleaseHeader when done (pooling contract: whoever ends up
// holding a header after it leaves the pipeline releases it — TickH hands
// the departing header to its caller, so the caller releases).
func (m *Machine) AcquireHeader() Header {
	h := m.pool.get()
	clear(h)
	return h
}

// AcquireHeaderUnzeroed is AcquireHeader without the clear, for callers
// that immediately overwrite every slot (e.g. a full-header copy when a
// packet is re-homed between identically-laid-out machines). Using it and
// then writing only some slots leaks a recycled packet's stale fields.
func (m *Machine) AcquireHeaderUnzeroed() Header { return m.pool.get() }

// ReleaseHeader returns a header to the machine's free list. The caller
// must not retain h afterwards. Only pool- or NewHeader-allocated headers
// belong here: a header carved from a trace slab (workload's generators)
// keeps its entire slab reachable for as long as it sits in the free list,
// so hand those back to their trace instead of pooling them.
func (m *Machine) ReleaseHeader(h Header) { m.pool.put(h) }

// LiveHeaders returns how many pool-allocated headers are currently
// checked out (acquired and not yet released) — the header-leak oracle
// fault and drain tests assert with. It is exact only under the pooling
// contract's happy path: every release hands back a header this pool
// allocated. Releasing foreign headers (a Layout.NewHeader, another
// machine's header) inflates the free list and undercounts.
func (m *Machine) LiveHeaders() int { return m.pool.made - len(m.pool.free) }

// EncodeHeader encodes a packet into a header drawn from the machine's
// free list — the codec-path acquire. It skips AcquireHeader's zeroing
// because Encode clears the header itself.
func (m *Machine) EncodeHeader(pkt interp.Packet) Header {
	h := m.pool.get()
	m.layout.Encode(pkt, h)
	return h
}
