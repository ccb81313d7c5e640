package main

import "strings"

// layerDef is one per-layer metric of the traced run. Every traced run
// prints all of them; a layer the workload bypasses reads 0.
type layerDef struct {
	name, unit, better string
}

// compiledNames are the catalog_pipeline sources, in catalog order.
var compiledNames = []string{
	"bloom_filter", "heavy_hitters", "flowlets", "rcp", "sampled_netflow", "hull", "avq",
	"stfq_wfq", "dns_ttl", "conga", "codel",
	"stfq_rank", "strict_priority_rank", "wrr_rank", "token_bucket_shape",
	"ecmp_route", "flowlet_route", "conga_route", "spine_route", "fat_agg_route",
}

var perLayer = func() []layerDef {
	defs := []layerDef{
		{"frontend.ms", "ms", "lower"},
		{"codegen.least_ms", "ms", "lower"},
	}
	for _, n := range compiledNames {
		defs = append(defs, layerDef{"codegen." + n + ".ms", "ms", "lower"})
	}
	return append(defs, []layerDef{
		{"codegen.accepted", "count", "higher"},
		{"codegen.rejected", "count", "lower"},
		{"banzai.build_ms", "ms", "lower"},
		{"banzai.depth_sum", "count", "lower"},
		{"banzai.pkts", "count", "higher"},
		{"banzai.ns_per_pkt", "ns/pkt", "lower"},
		{"banzai.allocs_per_pkt", "allocs/pkt", "lower"},
		{"workload.trace_ms", "ms", "lower"},
		{"fabric.build_ms", "ms", "lower"},
		{"netsim.setup_ms", "ms", "lower"},
		{"netsim.run_ms", "ms", "lower"},
		{"netsim.steps", "count", "lower"},
		{"netsim.ticks", "count", "lower"},
		{"netsim.skipped_frac", "frac", "higher"},
		{"netsim.ns_per_step", "ns/step", "lower"},
		{"netsim.allocs_per_step", "allocs/step", "lower"},
		{"netsim.ns_per_pkt", "ns/pkt", "lower"},
		{"netsim.delivered_pkts", "count", "higher"},
		{"netsim.dropped_pkts", "count", "lower"},
		{"netsim.ecn_marked_pkts", "count", "lower"},
		{"netsim.check_ms", "ms", "lower"},
		{"switchsim.max_queue_bytes", "bytes", "lower"},
		{"transport.offered", "count", "higher"},
		{"transport.acked", "count", "higher"},
		{"transport.retrans", "count", "lower"},
		{"transport.fast_retrans", "count", "lower"},
		{"transport.given_up", "count", "lower"},
		{"transport.rate_cuts", "count", "lower"},
		{"transport.mean_ack_ticks", "ticks", "lower"},
		{"telemetry.snapshots", "count", "higher"},
		{"telemetry.snapshot_ms", "ms", "lower"},
		{"telemetry.snapshot_bytes", "bytes", "lower"},
		{"fct.p50_ticks", "ticks", "lower"},
		{"fct.p99_ticks", "ticks", "lower"},
		{"bench.self_ms", "ms", "lower"},
		{"trace.spans", "count", "lower"},
		{"trace.overhead_pct", "%", "lower"},
	}...)
}()

// countMetric reports whether a per-layer metric is a count of simulated
// or compiled work, which must repeat exactly at one seed; the others are
// times and rates.
func countMetric(d layerDef) bool {
	switch d.unit {
	case "count", "ticks", "bytes", "frac":
		return true
	}
	return false
}

// layerMetrics derives the per-layer metrics from the traced epoch's
// spans (self time per call site) and the counts the epoch recorded.
func layerMetrics(r *report, t *tracer) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.layers {
		out[k] = v
	}
	if t == nil {
		return out
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	self := t.selfNs()
	for name, ns := range self {
		switch {
		case name == "frontend":
			out["frontend.ms"] = ms(ns)
		case strings.HasPrefix(name, "codegen."):
			out[name+".ms"] = ms(ns)
			out["codegen.least_ms"] += ms(ns)
		case name == "banzai.build", name == "workload.trace", name == "fabric.build":
			out[name+"_ms"] = ms(ns)
		case name == "netsim.SetTrace", name == "netsim.EnableTransport", name == "netsim.SetFaults":
			out["netsim.setup_ms"] += ms(ns)
		case name == "netsim.Run":
			out["netsim.run_ms"] = ms(ns)
		case name == "netsim.CheckConservation":
			out["netsim.check_ms"] = ms(ns)
		case name == "telemetry.SnapshotJSON":
			out["telemetry.snapshot_ms"] = ms(ns)
		case name == "setup", name == "op", t.spans[0].Name == name:
			out["bench.self_ms"] += ms(ns)
		}
	}
	if pkts := out["banzai.pkts"]; pkts > 0 {
		out["banzai.ns_per_pkt"] = float64(self["banzai.ProcessBatch"]) / pkts
		out["banzai.allocs_per_pkt"] = out["op.allocs"] / pkts
	}
	if steps := out["netsim.steps"]; steps > 0 {
		out["netsim.ns_per_step"] = float64(self["netsim.Run"]) / steps
		out["netsim.allocs_per_step"] = out["op.allocs"] / steps
		out["netsim.skipped_frac"] = 1 - steps/out["netsim.ticks"]
		if d := out["netsim.delivered_pkts"]; d > 0 {
			out["netsim.ns_per_pkt"] = float64(self["netsim.Run"]) / d
		}
	}
	out["trace.spans"] = float64(len(t.spans))
	return out
}
