package main

// catalog_pipeline: the compiler on twenty distinct programs, then the
// Banzai machines they compile to. Set-up compiles every source once
// (parse → sema → normalize → least target) and builds one machine per
// accepted program; each op is one round, a fixed-size ProcessBatch
// through every machine in turn. The timed phase never touches netsim.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"domino/internal/algorithms"
	"domino/internal/atoms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/interp"
	"domino/internal/ir"
	"domino/internal/parser"
	"domino/internal/passes"
	"domino/internal/sema"
	"domino/internal/workload"
)

type catalogConfig struct {
	packets int // headers generated per program
	// Round batch sizes spread log-uniformly over [minBatch, maxBatch],
	// as bursts arrive, so op times spread smoothly instead of
	// clustering at one value.
	minBatch, maxBatch int
	checkPrefix        int // leading packets cross-checked against the interpreter
	warmRounds         int // untimed rounds before the timed phase
	fixedRounds        int // rounds of an epoch with a fixed quota
	// fabric is the position the five routing transactions are
	// instantiated for: leafspine_gray's shape, ECN and INT on.
	fabric algorithms.RouteParams
}

func defaultCatalogConfig() catalogConfig {
	return catalogConfig{
		packets: 4096, minBatch: 64, maxBatch: 1024, checkPrefix: 512, warmRounds: 64, fixedRounds: 3000,
		fabric: algorithms.RouteParams{LeafID: 1, Leaves: 4, Spines: 2, HostsPerLeaf: 4, ECN: true, INT: true},
	}
}

type catalog struct{ cfg catalogConfig }

func newCatalog(cfg catalogConfig) *catalog { return &catalog{cfg} }

// source is one program of the catalog with what the compiler must say
// about it.
type source struct {
	name     string
	src      string
	maps     bool       // must compile at line rate
	want     atoms.Kind // its least atom, when known is set
	known    bool
	generate func(seed int64, info *sema.Info, n int) []interp.Packet
}

// sources lists the 11 Table 4 algorithms, the 4 scheduler rank
// transactions and the 5 routing transactions.
func (c *catalog) sources() ([]source, error) {
	var out []source
	for _, a := range algorithms.All() {
		out = append(out, source{name: a.Name, src: a.Source, maps: a.Maps, want: a.LeastAtom, known: a.Maps,
			generate: table4Trace(a.Name)})
	}
	for _, s := range algorithms.Schedulers() {
		out = append(out, source{name: s.Name, src: s.Source, maps: true, want: s.LeastAtom, known: true,
			generate: schedulerTrace(s)})
	}
	for _, r := range algorithms.Routings() {
		src, err := r.Source(c.cfg.fabric)
		if err != nil {
			return nil, fmt.Errorf("%s source: %w", r.Name, err)
		}
		out = append(out, source{name: r.Name, src: src, maps: true, generate: c.routingTrace})
	}
	return out, nil
}

// table4Trace picks the workload generator matching an algorithm's
// packet fields; field-free or generator-less programs get seeded field
// values.
func table4Trace(name string) func(int64, *sema.Info, int) []interp.Packet {
	switch name {
	case "flowlets":
		return func(seed int64, _ *sema.Info, n int) []interp.Packet {
			return workload.FlowletTrace(seed, 100, n, 10, 50)
		}
	case "bloom_filter", "heavy_hitters":
		return func(seed int64, _ *sema.Info, n int) []interp.Packet {
			tr, _ := workload.HeavyHitterTrace(seed, 1000, n, 1.2)
			return tr
		}
	case "rcp":
		return func(seed int64, _ *sema.Info, n int) []interp.Packet { return workload.RTTTrace(seed, n, 15, 30) }
	case "dns_ttl":
		return func(seed int64, _ *sema.Info, n int) []interp.Packet {
			tr, _ := workload.DNSTrace(seed, 512, n, 0.1)
			return tr
		}
	case "conga":
		return func(seed int64, _ *sema.Info, n int) []interp.Packet { return workload.CongaTrace(seed, 16, 64, n) }
	case "hull", "avq":
		return func(seed int64, _ *sema.Info, n int) []interp.Packet { return workload.AQMTrace(seed, n) }
	case "stfq_wfq":
		return func(seed int64, _ *sema.Info, n int) []interp.Packet { return workload.STFQTrace(seed, 64, n) }
	}
	return seededFields
}

// seededFields gives every declared field a seeded value in [0, 1<<16).
func seededFields(seed int64, info *sema.Info, n int) []interp.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]interp.Packet, n)
	for i := range out {
		p := make(interp.Packet, len(info.Fields))
		for _, f := range info.Fields {
			p[f] = rng.Int31n(1 << 16)
		}
		out[i] = p
	}
	return out
}

// schedulerTrace feeds a rank transaction from the multi-tenant
// scheduling workload; the scheduler's virtual-time input is the tick.
func schedulerTrace(s algorithms.SchedulerAlg) func(int64, *sema.Info, int) []interp.Packet {
	return func(seed int64, _ *sema.Info, n int) []interp.Packet {
		tenants := []workload.TenantSpec{{Weight: 1, Flows: 8}, {Weight: 2, Flows: 8}, {Weight: 4, Flows: 8}}
		tr, _ := workload.MultiTenantTrace(seed, tenants, n, 4)
		if s.TimeField != "" {
			for _, p := range tr {
				p[s.TimeField] = p["arrival"]
			}
		}
		return tr
	}
}

// routingTrace feeds a routing transaction the leaf-spine traffic it sees
// in a fabric: cross-leaf host pairs, bursty flows, and one packet in
// eight a reflected feedback packet carrying a path and its utilization.
func (c *catalog) routingTrace(seed int64, _ *sema.Info, n int) []interp.Packet {
	f := c.cfg.fabric
	perm := workload.CrossLeafPermutation(seed, f.Leaves, f.HostsPerLeaf)
	pairs := make([][2]int, len(perm))
	for h, p := range perm {
		pairs[h] = [2]int{h, p}
	}
	perFlow := 64
	flows := (n + len(pairs)*perFlow - 1) / (len(pairs) * perFlow)
	tr := workload.HostPairTrace(seed, pairs, flows, perFlow, 1500, 8, 40)
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int32, tr.NumFlows)
	out := make([]interp.Packet, n)
	for i := range out {
		np := tr.Packets[i]
		p := interp.Packet{
			"src": np.Src, "dst": np.Dst, "sport": np.Sport, "dport": np.Dport,
			"flow": np.Flow, "size_bytes": np.Size, "arrival": int32(np.Arrival), "seq": seq[np.Flow],
		}
		seq[np.Flow]++
		if rng.Intn(8) == 0 {
			p["fb"], p["fb_path"], p["fb_util"] = 1, rng.Int31n(int32(f.Spines)), rng.Int31n(1<<16)
		}
		out[i] = p
	}
	return out
}

// compiled is one source after set-up.
type compiled struct {
	source
	info     *sema.Info
	ir       *ir.Program
	prog     *codegen.Program // nil when no target accepts the source
	m        *banzai.Machine
	prefix   []interp.Packet // inputs of the first checkPrefix headers
	pristine []banzai.Header // the encoded inputs, never mutated
	work     []banzai.Header // scratch headers for the largest batch
}

// batchSlice is one round's batch: pristine headers [off, off+n).
type batchSlice struct{ off, n int }

type catalogEpoch struct {
	cfg     catalogConfig
	q       quota
	all     []*compiled
	run     []*compiled  // the accepted programs, in catalog order
	batches []batchSlice // round r runs batches[r mod len]
	round   int
	fed     int64 // headers fed to each machine so far
	timed   int64 // of which in timed rounds
}

func (c *catalog) setup(seed int64, t *tracer, q quota) (epoch, error) {
	srcs, err := c.sources()
	if err != nil {
		return nil, err
	}
	e := &catalogEpoch{cfg: c.cfg, q: q}
	// Sizes sit at evenly spaced log-uniform quantiles, so every seed has
	// the same size mix; the seed picks their order and offsets.
	rng := rand.New(rand.NewSource(seed))
	e.batches = make([]batchSlice, 64)
	for i, j := range rng.Perm(len(e.batches)) {
		frac := (float64(j) + 0.5) / float64(len(e.batches))
		n := int(float64(c.cfg.minBatch) * math.Pow(float64(c.cfg.maxBatch)/float64(c.cfg.minBatch), frac))
		e.batches[i] = batchSlice{off: rng.Intn(c.cfg.packets - n + 1), n: n}
	}
	for i, s := range srcs {
		p := &compiled{source: s}
		sp := t.begin("frontend")
		prog, err := parser.Parse(s.src)
		if err == nil {
			p.info, err = sema.Check(prog)
		}
		var norm *passes.NormResult
		if err == nil {
			norm, err = passes.Normalize(p.info)
		}
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s front end: %w", s.name, err)
		}
		p.ir = norm.IR
		sp = t.begin("codegen." + s.name)
		cp, ok, _ := codegen.LeastTarget(p.info, p.ir)
		t.end(sp)
		e.all = append(e.all, p)
		if !ok {
			continue
		}
		p.prog = cp
		sp = t.begin("banzai.build")
		p.m, err = banzai.New(cp)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s machine: %w", s.name, err)
		}
		sp = t.begin("workload.trace")
		pkts := s.generate(seed+int64(i), p.info, c.cfg.packets)
		p.pristine = workload.EncodeTrace(p.m.Layout(), pkts)
		p.prefix = pkts[:c.cfg.checkPrefix]
		p.work = make([]banzai.Header, c.cfg.maxBatch)
		for j := range p.work {
			p.work[j] = p.m.Layout().NewHeader()
		}
		t.end(sp)
		e.run = append(e.run, p)
	}
	return e, nil
}

func (e *catalogEpoch) precheck(t *tracer) (int, []error) {
	var errs []error
	checks := 0
	// Compile verdicts: every catalogued program maps (to its published
	// least atom) except CoDel, which no target accepts.
	for _, p := range e.all {
		checks++
		switch {
		case (p.prog != nil) != p.maps:
			errs = append(errs, fmt.Errorf("%s: compiled=%v, want %v", p.name, p.prog != nil, p.maps))
		case p.prog != nil && p.known && p.prog.LeastAtom != p.want:
			errs = append(errs, fmt.Errorf("%s: least atom %v, want %v", p.name, p.prog.LeastAtom, p.want))
		}
		if p.maps {
			continue
		}
		checks++
		targets := codegen.Targets()
		if len(targets) != 7 {
			errs = append(errs, fmt.Errorf("%d default targets, want 7", len(targets)))
		}
		for _, tg := range targets {
			if _, err := codegen.Compile(p.info, p.ir, tg); err == nil {
				errs = append(errs, fmt.Errorf("%s: target %s accepted it", p.name, tg.Name))
			}
		}
	}
	// Every machine against the reference interpreter on the prefix:
	// each departing packet and the final state.
	for _, p := range e.run {
		checks++
		if err := p.checkInterp(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.name, err))
		}
	}
	// Untimed warm-up rounds fill pools and caches.
	for i := 0; i < e.cfg.warmRounds; i++ {
		if _, err := e.process(t, len(e.batches)/2+i); err != nil {
			errs = append(errs, fmt.Errorf("warm-up: %w", err))
			break
		}
	}
	return checks, errs
}

func (p *compiled) checkInterp() error {
	ref := interp.New(p.info)
	l := p.m.Layout()
	h := p.work[:1]
	for i, pkt := range p.prefix {
		want := pkt.Clone()
		if err := ref.Run(want); err != nil {
			return fmt.Errorf("interpreter, packet %d: %w", i, err)
		}
		copy(h[0], p.pristine[i])
		if err := p.m.ProcessBatch(h); err != nil {
			return fmt.Errorf("machine, packet %d: %w", i, err)
		}
		got := l.Output(h[0])
		for _, f := range p.info.Fields {
			if got[f] != want[f] {
				return fmt.Errorf("packet %d field %s = %d, interpreter says %d", i, f, got[f], want[f])
			}
		}
	}
	if !ref.State().Equal(p.m.State()) {
		return fmt.Errorf("pipeline state differs from the interpreter's after %d packets", len(p.prefix))
	}
	return nil
}

// process runs round r's batch through every machine.
func (e *catalogEpoch) process(t *tracer, r int) (int64, error) {
	b := e.batches[r%len(e.batches)]
	for _, p := range e.run {
		work := p.work[:b.n]
		for j, h := range work {
			copy(h, p.pristine[b.off+j])
		}
		sp := t.begin("banzai.ProcessBatch")
		err := p.m.ProcessBatch(work)
		t.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	e.fed += int64(b.n)
	return int64(b.n * len(e.run)), nil
}

func (e *catalogEpoch) op(t *tracer) (int64, error) {
	u, err := e.process(t, e.round)
	e.round++
	e.timed += u / int64(len(e.run))
	return u, err
}

func (e *catalogEpoch) done(spent time.Duration) bool {
	if e.q.opTime == 0 {
		return e.round >= e.cfg.fixedRounds
	}
	return spent >= e.q.opTime
}

// sampleEnd closes a sample after each full pass over the batch sizes.
func (e *catalogEpoch) sampleEnd() bool { return e.round%len(e.batches) == 0 }

func (e *catalogEpoch) finish(_ *tracer, m map[string]float64) (int, []error) {
	var errs []error
	depth := 0
	// Accounting: each machine saw exactly the prefix, the warm-up and
	// the timed rounds.
	want := int64(e.cfg.checkPrefix) + e.fed
	for _, p := range e.run {
		depth += p.m.Depth()
		if got := p.m.Packets(); got != want {
			errs = append(errs, fmt.Errorf("%s processed %d packets, want %d", p.name, got, want))
		}
	}
	m["banzai.pkts"] = float64(e.timed * int64(len(e.run)))
	m["banzai.depth_sum"] = float64(depth)
	m["codegen.accepted"] = float64(len(e.run))
	m["codegen.rejected"] = float64(len(e.all) - len(e.run))
	return 1, errs
}

func (e *catalogEpoch) digest() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range e.run {
		for _, hd := range p.pristine {
			for _, v := range hd {
				b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}
