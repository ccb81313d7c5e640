// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one seeded workload in a closed loop — a single caller
// issues the next op as soon as the previous one returns — and prints its
// metrics, ending with one JSON line:
//
//	perfbench --workload catalog_pipeline --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (setup_s, op_ms_p50,
// op_ms_p90, useful_per_s, live_heap_mb). With --trace 1 it runs the same
// fixed amount of work twice, untraced then traced, and reports the
// per-layer metrics of the traced pass plus the tracing overhead. See
// README.md for the workloads and what each metric should move.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// scenario is one workload: it builds epochs, each one complete set-up
// plus the inputs its ops consume. A run is a sequence of epochs, so
// set-up is measured several times per run.
type scenario interface {
	setup(seed int64, t *tracer, q quota) (epoch, error)
}

// quota bounds an epoch whose ops have no natural end (catalog_pipeline;
// the fabric workloads end when their trace drains): it stops after
// opTime of ops, or, when opTime is 0, after a fixed number of ops so the
// traced run's counts repeat exactly.
type quota struct{ opTime time.Duration }

// epoch is one set-up's worth of work.
type epoch interface {
	// precheck runs the checks that must precede the timed phase (and
	// any untimed warm-up), returning how many checks it made and the
	// failures.
	precheck(t *tracer) (int, []error)
	// op runs one timed operation and returns the useful units it
	// completed.
	op(t *tracer) (int64, error)
	// done reports, between ops and untimed, whether the epoch's work is
	// finished, given the op time spent so far.
	done(spent time.Duration) bool
	// sampleEnd reports, after an op, whether the ops since the previous
	// boundary make one sample: a replay of the same input mix as every
	// other sample, so that samples differ only in how fast the host ran
	// them. A workload whose ops never replay their inputs has no samples.
	sampleEnd() bool
	// finish runs the end-of-epoch correctness checks and records the
	// epoch's layer metrics into m.
	finish(t *tracer, m map[string]float64) (int, []error)
	// digest fingerprints the generated inputs.
	digest() uint64
}

// minEpochs is how many set-ups an untraced run makes at least; setup_s
// and live_heap_mb are their medians.
const minEpochs = 5

// epochSeed derives epoch i's input seed from the run's seed, so a run
// averages over several inputs drawn from one distribution. Epoch 0 uses
// the run's seed itself.
func epochSeed(seed int64, i int) int64 { return seed ^ int64(i)<<32 }

var workloads = map[string]func() scenario{
	"catalog_pipeline": func() scenario { return newCatalog(defaultCatalogConfig()) },
	"fattree_fct":      func() scenario { return newFatTree(defaultFatTreeConfig()) },
	"leafspine_gray":   func() scenario { return newLeafSpine(defaultLeafSpineConfig()) },
}

// sample is a stretch of consecutive timed ops that replays the same input
// mix as every other sample: one pass over catalog_pipeline's batch sizes.
// A run that has samples takes its time metrics from the fastest of them
// (see fastShare); one that has none, from all its ops.
type sample struct {
	opNs       []int64
	useful, ns int64
}

// report is one run's measurements.
type report struct {
	setupS, heapMB []float64
	opNs           []int64
	samples        []sample
	useful         int64
	timed          time.Duration
	attempted      int
	failures       []string
	layers         map[string]float64
	digest         uint64
}

func (r *report) check(n int, errs []error, where string) {
	r.attempted += n
	for _, err := range errs {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", where, err))
	}
}

// runEpoch sets up one epoch and drives its ops to completion, appending
// to r. It returns the tracer the epoch recorded into.
func runEpoch(name string, w scenario, seed int64, q quota, traced bool, r *report) (*tracer, error) {
	t := newTracer(traced)
	root := t.begin(name)
	defer t.end(root)

	start := time.Now()
	sp := t.begin("setup")
	ep, err := w.setup(seed, t, q)
	t.end(sp)
	if err != nil {
		return t, fmt.Errorf("setup: %w", err)
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = append(r.heapMB, float64(ms.HeapAlloc)/(1<<20))
	if r.digest == 0 {
		r.digest = ep.digest()
	}

	n, errs := ep.precheck(t)
	r.check(n, errs, "precheck")

	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var spent time.Duration
	// An epoch cut off by its time quota mid-sample drops that partial
	// sample: its input mix is incomplete.
	var cur sample
	for !ep.done(spent) {
		opSpan := t.begin("op")
		t0 := time.Now()
		u, err := ep.op(t)
		d := time.Since(t0)
		t.end(opSpan)
		spent += d
		r.opNs = append(r.opNs, int64(d))
		r.attempted++
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("op %d: %v", len(r.opNs), err))
			break
		}
		r.useful += u
		cur.opNs = append(cur.opNs, int64(d))
		cur.useful += u
		cur.ns += int64(d)
		if ep.sampleEnd() {
			r.samples = append(r.samples, cur)
			cur = sample{}
		}
	}
	runtime.ReadMemStats(&ms)
	r.timed += spent

	m := map[string]float64{"op.allocs": float64(ms.Mallocs - mallocs)}
	n, errs = ep.finish(t, m)
	r.check(n, errs, "check")
	r.layers = m
	return t, nil
}

// measure runs one workload. Untraced, it repeats epochs, each on its own
// derived inputs, until at least minEpochs set-ups and the requested op
// time are done. Traced, it runs a fixed-size epoch on the run's seed
// untraced and then the identical epoch traced, so the traced counts
// repeat exactly and the difference in op time is the tracing overhead.
func measure(name string, w scenario, seed int64, seconds float64, traced bool) (*report, *tracer, error) {
	r := &report{}
	if traced {
		q := quota{}
		// The first epoch of a process runs on a cold heap; it only warms
		// up, so the untraced and traced passes compared start alike.
		for i := 0; i < 2; i++ {
			r.timed, r.opNs = 0, r.opNs[:0]
			if _, err := runEpoch(name, w, seed, q, false, r); err != nil {
				return r, nil, err
			}
		}
		base, allocs := r.timed, r.layers["op.allocs"]
		r.timed, r.opNs = 0, r.opNs[:0]
		t, err := runEpoch(name, w, seed, q, true, r)
		if err != nil {
			return r, t, err
		}
		// Allocation counts come from the untraced pass, so the tracer's
		// own span storage is not charged to the layers.
		r.layers["op.allocs"] = allocs
		r.layers["trace.overhead_pct"] = 100 * (float64(r.timed)/float64(base) - 1)
		return r, t, nil
	}
	q := quota{opTime: time.Duration(seconds * float64(time.Second) / minEpochs)}
	for i := 0; i < minEpochs || r.timed.Seconds() < seconds; i++ {
		if _, err := runEpoch(name, w, epochSeed(seed, i), q, false, r); err != nil {
			return r, nil, err
		}
	}
	return r, nil, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "op time to measure, in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in {%s}, --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	traced := *traceMode == 1
	w := mk()

	fmt.Fprintf(stdout, "env: %s\n", envRecord(*seed))
	rep, tr, err := measure(*name, w, *seed, *seconds, traced)
	if err != nil {
		rep.failures = append(rep.failures, err.Error())
		rep.attempted++
	}
	if tr != nil {
		path := filepath.Join(buildDir(), "perfbench-spans", fmt.Sprintf("spans_%s_seed%d.jsonl", *name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED", f)
	}

	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    len(rep.failures),
		Metrics:   map[string]metric{},
	}
	if traced {
		layers := layerMetrics(rep, tr)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{layers[d.name], d.unit}
		}
	} else {
		res.Metrics = endToEnd(rep)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d timed ops in %.3f s; %d ops and checks attempted; inputs %016x\n",
		*name, *seed, len(rep.opNs), rep.timed.Seconds(), rep.attempted, rep.digest)
	if !traced && len(rep.samples) > 0 {
		fast, k := fastest(rep.samples)
		p50, p90, perS := opStats(rep.allOps())
		fmt.Fprintf(stdout, "  time metrics from the fastest %d of %d samples (%d ops); over all ops: p50 %.6g ms, p90 %.6g ms, %.6g/s\n",
			k, len(rep.samples), len(fast.opNs), p50, p90, perS)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

// fastShare sets which samples the time metrics of an untraced run come
// from: the fastest 1/fastShare of them, by op time per useful unit. The
// host the bounds were set on slows the Banzai pipeline by up to about
// 1.6× for stretches of a quarter second to a minute, and the share of a
// run spent slowed varies from run to run; the fastest tenth measures the
// program where the host let it run at speed. See README.md.
const fastShare = 10

// fastest pools the ops of a run's fastest samples.
func fastest(samples []sample) (s sample, k int) {
	ranked := slices.Clone(samples)
	slices.SortFunc(ranked, func(a, b sample) int {
		return cmp.Compare(float64(a.ns)/float64(a.useful), float64(b.ns)/float64(b.useful))
	})
	k = (len(ranked) + fastShare - 1) / fastShare
	for _, x := range ranked[:k] {
		s.opNs = append(s.opNs, x.opNs...)
		s.useful += x.useful
		s.ns += x.ns
	}
	return s, k
}

// opStats gives the median and 90th percentile op time in ms, and the
// useful units per second, of a set of ops.
func opStats(s sample) (p50, p90, perS float64) {
	ops := slices.Clone(s.opNs)
	slices.Sort(ops)
	pct := func(p float64) float64 {
		if len(ops) == 0 {
			return 0
		}
		return float64(ops[int(p*float64(len(ops)-1))]) / 1e6
	}
	if s.ns > 0 {
		perS = float64(s.useful) / (float64(s.ns) / 1e9)
	}
	return pct(0.50), pct(0.90), perS
}

// allOps pools every timed op of a run.
func (r *report) allOps() sample {
	return sample{opNs: r.opNs, useful: r.useful, ns: int64(r.timed)}
}

// endToEnd summarizes an untraced run.
func endToEnd(r *report) map[string]metric {
	ops := r.allOps()
	if len(r.samples) > 0 {
		ops, _ = fastest(r.samples)
	}
	p50, p90, perS := opStats(ops)
	return map[string]metric{
		"setup_s":      {median(r.setupS), "s"},
		"op_ms_p50":    {p50, "ms"},
		"op_ms_p90":    {p90, "ms"},
		"useful_per_s": {perS, "1/s"},
		"live_heap_mb": {median(r.heapMB), "MB"},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// buildDir is where the benchmark keeps what it builds and writes.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// envRecord describes the machine and runtime the numbers came from.
func envRecord(seed int64) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"gogc":       gogc,
		"seed":       seed,
	}
	b, _ := json.Marshal(env) // a map of strings and ints always marshals
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
