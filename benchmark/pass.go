package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pass collects one run of a workload's schedule: per-op latencies,
// failures, and (when traced) per-layer observations.
type pass struct {
	trace *traceRecorder // nil on the untraced pass

	attempted, failed atomic.Int64

	mu       sync.Mutex
	lat      []float64 // per-op latency, ms
	failures []string  // first few failure descriptions
	extra    map[string]any
}

func newPass(tr *traceRecorder) *pass {
	return &pass{trace: tr, extra: map[string]any{}}
}

// op records one finished op: its latency and whether its checks
// passed. why describes a failure.
func (p *pass) op(latency time.Duration, ok bool, why string) {
	p.attempted.Add(1)
	p.mu.Lock()
	p.lat = append(p.lat, float64(latency)/1e6)
	if !ok {
		p.failed.Add(1)
		if len(p.failures) < 8 {
			p.failures = append(p.failures, why)
		}
	}
	p.mu.Unlock()
}

// fail marks an already-recorded op failed by a later check.
func (p *pass) fail(why string) {
	p.failed.Add(1)
	p.mu.Lock()
	if len(p.failures) < 8 {
		p.failures = append(p.failures, why)
	}
	p.mu.Unlock()
}

// set stores a workload-specific detail value for the run's output.
func (p *pass) set(key string, v any) {
	p.mu.Lock()
	p.extra[key] = v
	p.mu.Unlock()
}

// endToEnd holds one pass's user-visible metrics.
type endToEnd struct {
	setupS, wallS        float64
	opsPerS, cpuMsPerOp  float64
	allocsPerOp, peakRSS float64
	p50, p90             float64
	gcCPUShare           float64
	stealShare           float64 // host CPU time the hypervisor withheld
	ops                  int
}

func (e endToEnd) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":       {e.setupS, "s"},
		"ops_per_s":     {e.opsPerS, "1/s"},
		"cpu_ms_per_op": {e.cpuMsPerOp, "ms"},
		"allocs_per_op": {e.allocsPerOp, "count"},
		"peak_rss_mb":   {e.peakRSS, "MB"},
		"p50_ms":        {e.p50, "ms"},
		"p90_ms":        {e.p90, "ms"},
	}
}

// window brackets a measurement: wall clock, process CPU time from
// getrusage, and runtime/metrics heap-allocation and GC CPU counters,
// all read after a forced GC so set-up garbage is not billed to the
// pass.
type window struct {
	t0                time.Time
	cpu0              time.Duration
	allocs0           uint64
	gcCPU0, totalCPU0 float64
	steal0, jiffies0  uint64
}

var windowSamples = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() (allocs uint64, gcCPU, totalCPU float64) {
	s := make([]metrics.Sample, len(windowSamples))
	for i, n := range windowSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostCPU reads the host-wide steal and total CPU time (jiffies) from
// /proc/stat; zeros where it is unavailable.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func openWindow() window {
	runtime.GC()
	w := window{cpu0: processCPU()}
	w.allocs0, w.gcCPU0, w.totalCPU0 = readRuntime()
	w.steal0, w.jiffies0 = hostCPU()
	w.t0 = time.Now()
	return w
}

func (w window) close(p *pass) endToEnd {
	wall := time.Since(w.t0)
	cpu := processCPU() - w.cpu0
	allocs, gcCPU, totalCPU := readRuntime()
	p.mu.Lock()
	lat := append([]float64(nil), p.lat...)
	p.mu.Unlock()
	n := len(lat)
	e := endToEnd{wallS: wall.Seconds(), peakRSS: peakRSSMB(), ops: n}
	if n > 0 {
		e.opsPerS = float64(n) / wall.Seconds()
		e.cpuMsPerOp = float64(cpu) / 1e6 / float64(n)
		e.allocsPerOp = float64(allocs-w.allocs0) / float64(n)
		sort.Float64s(lat)
		e.p50 = percentile(lat, 0.50)
		e.p90 = percentile(lat, 0.90)
	}
	if d := totalCPU - w.totalCPU0; d > 0 {
		e.gcCPUShare = (gcCPU - w.gcCPU0) / d
	}
	if steal, total := hostCPU(); total > w.jiffies0 {
		e.stealShare = float64(steal-w.steal0) / float64(total-w.jiffies0)
	}
	return e
}

// percentile is the nearest-rank percentile of sorted values: an
// observed sample, never an interpolation across a gap between modes.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// histogram buckets latencies (ms) by powers of two from 1/16 ms.
type histogram struct {
	LeMS  []float64 `json:"le_ms"`
	Count []int     `json:"count"`
}

func latencyHistogram(lat []float64) histogram {
	var h histogram
	for le := 1.0 / 16; ; le *= 2 {
		h.LeMS = append(h.LeMS, le)
		h.Count = append(h.Count, 0)
		if le > 1e5 {
			break
		}
	}
	for _, v := range lat {
		i := sort.SearchFloat64s(h.LeMS, v)
		if i == len(h.LeMS) {
			i--
		}
		h.Count[i]++
	}
	// Trim empty trailing buckets.
	last := 0
	for i, c := range h.Count {
		if c > 0 {
			last = i
		}
	}
	h.LeMS, h.Count = h.LeMS[:last+1], h.Count[:last+1]
	return h
}

// summary is the pass's contribution to the run's detail line.
func (p *pass) summary(e endToEnd) map[string]any {
	p.mu.Lock()
	defer p.mu.Unlock()
	lat := append([]float64(nil), p.lat...)
	sort.Float64s(lat)
	out := map[string]any{
		"ops":           e.ops,
		"failed":        p.failed.Load(),
		"wall_s":        e.wallS,
		"ops_per_s":     e.opsPerS,
		"cpu_ms_per_op": e.cpuMsPerOp,
		"allocs_per_op": e.allocsPerOp,
		"peak_rss_mb":   e.peakRSS,
		"gc_cpu_share":  e.gcCPUShare,
		"host_steal":    e.stealShare,
		"p50_ms":        e.p50,
		"p90_ms":        e.p90,
		"p99_ms":        percentile(lat, 0.99),
		"max_ms":        percentile(lat, 1),
		"histogram":     latencyHistogram(lat),
	}
	if len(p.failures) > 0 {
		out["failures"] = p.failures
	}
	for k, v := range p.extra {
		out[k] = v
	}
	return out
}

// workers is the goroutine count for every parallel stage the benchmark
// configures (experiment cells, placement workers, load clients).
func workers() int { return runtime.NumCPU() }

// hostFacts records what the numbers were measured on.
func hostFacts(seed uint64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
