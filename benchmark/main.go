// Command decor-benchmark is the repository's end-to-end benchmark. It
// drives the DECOR stack from outside, through its public Go entry
// points, on four workloads:
//
//   - figures: the paper's figure sweep (experiment.ByID/ExtByID);
//   - plan: closed-loop /v1/plan and /v1/repair traffic over loopback HTTP;
//   - fields: closed-loop field-session failure events with SSE
//     subscribers and evict/restore;
//   - large-field: fresh 1e5-point tiled fields built and deployed.
//
// Every run finishes a fixed, seeded schedule whose size is set by
// -seconds (not by how fast the host is), checks every op's output, and
// prints one JSON result object as its last line of standard output.
// With -trace 1 it additionally runs the schedule a second time on a
// fresh set-up with tracing on, writes the spans as JSONL for
// cmd/decor-trace, and reports per-layer metrics instead.
//
//	bash benchmark/run.sh --workload plan --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart approximates the process's start, for the detail line's
// time-to-first-op.
var processStart = time.Now()

// setupReps is how many times a run builds its workload's state from
// nothing; setup_s is the median, and the last build is measured.
const setupReps = 3

// workload is one benchmark workload. setUp builds everything a pass
// needs from nothing (tr is the traced pass's recorder, nil otherwise);
// the returned state runs the seeded schedule once and is then closed.
type workload interface {
	setUp(cfg runConfig, tr *traceRecorder) (state, error)
}

// state is one set-up's worth of workload state.
type state interface {
	// measure runs the whole schedule once, recording into p.
	measure(p *pass) error
	// verify runs the checks that need the finished pass (reference
	// replays, stream hashes); it runs outside the measurement window.
	verify(p *pass) error
	close()
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// outDir receives the traced run's span file.
	outDir string
}

var workloads = map[string]func() workload{
	"figures":     func() workload { return &figuresWorkload{} },
	"plan":        func() workload { return &planWorkload{} },
	"fields":      func() workload { return &fieldsWorkload{} },
	"large-field": func() workload { return &largeFieldWorkload{} },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("decor-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sizes the fixed schedule")
	fs.IntVar(&trace, "trace", 0, "1 = add a traced pass and report per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/traces", "directory for the traced pass's JSONL spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "decor-benchmark: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "decor-benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1

	res, detail, err := execute(cfg, mk())
	if err != nil {
		fmt.Fprintln(stderr, "decor-benchmark:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(detail); err != nil {
		fmt.Fprintln(stderr, "decor-benchmark:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "decor-benchmark:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line the benchmark contract defines.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute builds the workload setupReps times, measures the last build,
// verifies it and, in trace mode, repeats the pass traced on a fresh
// build.
func execute(cfg runConfig, w workload) (result, map[string]any, error) {
	detail := map[string]any{
		"host":     hostFacts(cfg.seed),
		"workload": cfg.workload,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
	}
	var setups []float64
	var st state
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		s, err := w.setUp(cfg, nil)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			s.close()
		} else {
			st = s
		}
	}
	detail["setup_s_samples"] = setups
	detail["first_op_after_s"] = time.Since(processStart).Seconds()

	plain := newPass(nil)
	e2e, err := measurePass(st, plain)
	st.close()
	if err != nil {
		return result{}, nil, err
	}
	e2e.setupS = median(setups)
	detail["pass"] = plain.summary(e2e)

	res := result{
		Correct:   plain.failed.Load() == 0,
		Attempted: plain.attempted.Load(),
		Failed:    plain.failed.Load(),
		Metrics:   e2e.metrics(),
	}
	if !cfg.trace {
		return res, detail, nil
	}

	tr := newTraceRecorder()
	st, err = w.setUp(cfg, tr)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced := newPass(tr)
	te2e, err := measurePass(st, traced)
	st.close()
	if err != nil {
		return result{}, nil, err
	}
	path, err := traced.trace.writeJSONL(cfg.outDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return result{}, nil, err
	}
	layers := layerMetrics(traced, te2e, te2e.cpuMsPerOp/e2e.cpuMsPerOp)
	detail["traced_pass"] = traced.summary(te2e)
	detail["trace_file"] = path
	detail["trace_spans"] = traced.trace.spanCount()
	detail["trace_dropped"] = traced.trace.tr.Dropped()
	detail["layer_moves"] = layerMoves()
	res.Correct = res.Correct && traced.failed.Load() == 0
	res.Attempted += traced.attempted.Load()
	res.Failed += traced.failed.Load()
	res.Metrics = layers
	return res, detail, nil
}

// measurePass runs one schedule inside a measurement window, then the
// post-pass checks outside it.
func measurePass(st state, p *pass) (endToEnd, error) {
	p.trace.begin()
	win := openWindow()
	err := st.measure(p)
	e2e := win.close(p)
	p.trace.end()
	if err != nil {
		return e2e, err
	}
	if err := st.verify(p); err != nil {
		return e2e, err
	}
	if p.attempted.Load() == 0 {
		return e2e, fmt.Errorf("no ops attempted")
	}
	return e2e, nil
}
