package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"decor/internal/obs"
)

// traceRecorder is the traced pass's instrumentation: one span ring
// shared by the benchmark's own spans and the service's request spans,
// per-layer observations the workloads report directly, and the obs
// registry values at the start of the pass (per-layer metrics are
// deltas over the pass).
type traceRecorder struct {
	tr *obs.Tracer

	mu   sync.Mutex
	obsv map[string][]float64

	reg0, reg1 registryValues
}

// traceRing holds every span of a traced pass; at ~100 bytes a slot it
// costs ~13 MB, and a pass records well under this many spans.
const traceRing = 1 << 17

func newTraceRecorder() *traceRecorder {
	return &traceRecorder{tr: obs.NewTracer(traceRing), obsv: map[string][]float64{}}
}

// tracer returns the span ring, or nil (a no-op tracer) when untraced.
func (t *traceRecorder) tracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// span opens a benchmark span: a child of the trace in ctx if there is
// one, else a new trace. A nil recorder returns ctx and a no-op span.
func (t *traceRecorder) span(ctx context.Context, name string) (context.Context, *obs.ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	if _, ok := obs.ContextTrace(ctx); ok {
		return obs.StartSpanCtx(ctx, name)
	}
	return t.tr.StartTrace(ctx, name)
}

// observe records one per-layer sample; a nil recorder drops it.
func (t *traceRecorder) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obsv[name] = append(t.obsv[name], v)
	t.mu.Unlock()
}

func (t *traceRecorder) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.obsv[name]...)
}

func (t *traceRecorder) spanCount() int { return len(t.tr.Spans()) }

func (t *traceRecorder) writeJSONL(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := t.tr.WriteJSONL(f); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

// Registry series the per-layer metrics are computed from.
var (
	layerCounters = []string{
		obs.ServePlanRequests, obs.ServeRepairRequests, obs.ServeCacheHits,
		obs.ServeCoalesced, obs.ServeRejected,
		obs.CoreCacheDeltaUpdates, obs.CoreCacheFallbacks,
		obs.SimEvents, obs.SimSent,
	}
	layerHistograms = []string{
		obs.ServeRequestSeconds, obs.ServePlanSeconds,
		obs.SessionDeltaSeconds, obs.SessionRestoreSeconds,
		obs.CoreRoundSeconds,
	}
)

// registryValues is a reading of the process-wide obs registry, where
// every layer (and every service.Server the benchmark builds) records.
type registryValues struct {
	counters map[string]float64
	count    map[string]float64 // histogram observation counts
	sum      map[string]float64 // histogram sums, seconds
}

func readRegistry() registryValues {
	r := obs.Default()
	v := registryValues{counters: map[string]float64{}, count: map[string]float64{}, sum: map[string]float64{}}
	for _, n := range layerCounters {
		v.counters[n] = float64(r.Counter(n).Value())
	}
	for _, n := range layerHistograms {
		h := r.Histogram(n, obs.DefLatencyBuckets)
		v.count[n] = float64(h.Count())
		v.sum[n] = h.Sum()
	}
	return v
}

// begin and end bracket the measured schedule (not the checks after
// it, which may exercise the same layers).
func (t *traceRecorder) begin() {
	if t != nil {
		t.reg0 = readRegistry()
	}
}

func (t *traceRecorder) end() {
	if t != nil {
		t.reg1 = readRegistry()
	}
}

// layerDef is one per-layer metric: its unit, which direction is
// better, and the end-to-end metric (workload/metric) it should move.
type layerDef struct {
	name, unit, better, moves string
}

var layerDefs = []layerDef{
	{"service.hit_share", "ratio", "higher", "plan/cpu_ms_per_op"},
	{"service.coalesced_share", "ratio", "higher", "plan/cpu_ms_per_op"},
	{"service.hit_rtt_ms", "ms", "lower", "plan/p50_ms"},
	{"service.miss_rtt_ms", "ms", "lower", "plan/p90_ms"},
	{"service.handler_ms", "ms", "lower", "plan/p50_ms"},
	{"service.transport_ms", "ms", "lower", "plan/p50_ms"},
	{"service.queue_wait_ms", "ms", "lower", "plan/p90_ms"},
	{"service.plan_ms", "ms", "lower", "plan/p90_ms"},
	{"service.rejected_share", "ratio", "lower", "plan/failed"},
	{"service.allocs_per_req", "count", "lower", "plan/allocs_per_op"},
	{"session.event_rtt_ms", "ms", "lower", "fields/p50_ms"},
	{"session.apply_ms", "ms", "lower", "fields/p50_ms"},
	{"session.overhead_ms", "ms", "lower", "fields/p50_ms"},
	{"session.restore_ms", "ms", "lower", "fields/p90_ms"},
	{"session.evict_ms", "ms", "lower", "fields/cpu_ms_per_op"},
	{"session.sse_lag_ms", "ms", "lower", "fields/cpu_ms_per_op"},
	{"session.placed_per_delta", "count", "lower", "fields/cpu_ms_per_op"},
	{"session.create_ms", "ms", "lower", "fields/setup_s"},
	{"core.grid_deploy_ms", "ms", "lower", "large-field/ops_per_s"},
	{"core.centralized_deploy_ms", "ms", "lower", "large-field/ops_per_s"},
	{"core.rounds_per_deploy", "count", "lower", "large-field/cpu_ms_per_op"},
	{"core.placed_per_deploy", "count", "lower", "large-field/cpu_ms_per_op"},
	{"core.round_ms", "ms", "lower", "figures/cpu_ms_per_op"},
	{"core.benefit_fallback_share", "ratio", "lower", "figures/cpu_ms_per_op"},
	{"lowdisc.points_ms", "ms", "lower", "large-field/cpu_ms_per_op"},
	{"coverage.build_ms", "ms", "lower", "large-field/cpu_ms_per_op"},
	{"coverage.build_allocs", "count", "lower", "large-field/allocs_per_op"},
	{"index.neighborhoods_ms", "ms", "lower", "large-field/cpu_ms_per_op"},
	{"experiment.fig7_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.fig8_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.fig9_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.fig10_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.fig11_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.fig12_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.fig13_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.fig14_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.ext-async_ms", "ms", "lower", "figures/ops_per_s"},
	{"experiment.ext-heal_ms", "ms", "lower", "figures/ops_per_s"},
	{"sim.events_per_op", "count", "lower", "figures/cpu_ms_per_op"},
	{"sim.run_ms", "ms", "lower", "figures/cpu_ms_per_op"},
	{"protocol.messages_per_op", "count", "lower", "figures/cpu_ms_per_op"},
	{"runtime.gc_cpu_share", "ratio", "lower", "large-field/cpu_ms_per_op, fields/cpu_ms_per_op"},
	{"obs.trace_overhead", "ratio", "lower", "none (tracing cost; must stay small)"},
}

// layerMoves maps each per-layer metric to the end-to-end metric it
// should move, for the run's detail output.
func layerMoves() map[string]string {
	m := make(map[string]string, len(layerDefs))
	for _, d := range layerDefs {
		m[d.name] = d.moves
	}
	return m
}

// layerMetrics computes every per-layer metric for a traced pass. A
// layer the workload leaves idle reports 0. overhead is traced ÷
// untraced cpu_ms_per_op.
func layerMetrics(p *pass, e endToEnd, overhead float64) map[string]metric {
	t := p.trace
	reg := t.reg1
	dc := func(n string) float64 { return reg.counters[n] - t.reg0.counters[n] }
	hmeanMS := func(n string) float64 {
		c := reg.count[n] - t.reg0.count[n]
		if c == 0 {
			return 0
		}
		return (reg.sum[n] - t.reg0.sum[n]) / c * 1000
	}
	hsumMS := func(n string) float64 { return (reg.sum[n] - t.reg0.sum[n]) * 1000 }
	ops := float64(e.ops)

	v := map[string]float64{}
	// Benchmark-observed samples report their mean.
	for _, d := range layerDefs {
		if s := t.samples(d.name); len(s) > 0 {
			v[d.name] = mean(s)
		}
	}

	reqs := dc(obs.ServePlanRequests) + dc(obs.ServeRepairRequests)
	if reqs > 0 {
		v["service.hit_share"] = dc(obs.ServeCacheHits) / reqs
		v["service.coalesced_share"] = dc(obs.ServeCoalesced) / reqs
		v["service.rejected_share"] = dc(obs.ServeRejected) / reqs
		v["service.handler_ms"] = hmeanMS(obs.ServeRequestSeconds)
		v["service.plan_ms"] = hmeanMS(obs.ServePlanSeconds)
		v["service.transport_ms"] = mean(t.samples("plan.rtt_ms")) - v["service.handler_ms"]
		v["service.queue_wait_ms"] = queueWaitMS(t.tr.Spans())
	}
	if rtts := t.samples("session.event_rtt_ms"); len(rtts) > 0 {
		v["session.apply_ms"] = hmeanMS(obs.SessionDeltaSeconds)
		v["session.restore_ms"] = hmeanMS(obs.SessionRestoreSeconds)
		total := mean(rtts) * float64(len(rtts))
		// RTT minus apply and restore: decode, mailbox wait, encode, HTTP.
		v["session.overhead_ms"] = (total - hsumMS(obs.SessionDeltaSeconds) - hsumMS(obs.SessionRestoreSeconds)) / float64(len(rtts))
	}
	v["core.round_ms"] = hmeanMS(obs.CoreRoundSeconds)
	if fb, du := dc(obs.CoreCacheFallbacks), dc(obs.CoreCacheDeltaUpdates); fb+du > 0 {
		v["core.benefit_fallback_share"] = fb / (fb + du)
	}
	if ev := dc(obs.SimEvents); ev > 0 && ops > 0 {
		v["sim.events_per_op"] = ev / ops
		v["protocol.messages_per_op"] = dc(obs.SimSent) / ops
	}
	v["runtime.gc_cpu_share"] = e.gcCPUShare
	v["obs.trace_overhead"] = overhead

	out := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

// queueWaitMS averages the queue_wait_ms attribute the service puts on
// its plan.run spans.
func queueWaitMS(spans []obs.SpanRecord) float64 {
	var w []float64
	for _, s := range spans {
		if s.Name != "plan.run" {
			continue
		}
		for _, kv := range strings.Fields(s.Attr) {
			if val, ok := strings.CutPrefix(kv, "queue_wait_ms="); ok {
				if f, err := strconv.ParseFloat(val, 64); err == nil {
					w = append(w, f)
				}
			}
		}
	}
	return mean(w)
}
