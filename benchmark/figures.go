package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"decor/internal/experiment"
)

// The figures workload: a closed batch of whole sweeps over the paper's
// figures 7–14 plus the two message-level extensions, at the paper's
// configuration. One op is one figure; each table must equal the
// committed results/<id>.txt. Experiment cells run on one worker: a
// figure's wall time then tracks its CPU time instead of how the two
// cells of a parallel fan-out happen to be scheduled, which on a shared
// 2-CPU host was the largest source of run-to-run spread. (Tables are
// byte-identical for any worker count.)

var figureIDs = []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ext-async", "ext-heal"}

// simFigures are the figures that drive the message-level simulator
// (sim/protocol); the others are round-based placement sweeps.
var simFigures = map[string]bool{"ext-async": true, "ext-heal": true}

// figureSweepSeconds is the nominal cost of one single-worker sweep on
// a 2-CPU Xeon host. It only sizes the schedule (sweeps = seconds / this, rounded),
// so the work in a run never depends on the speed of the run itself.
const figureSweepSeconds = 9.0

// figureWarmup are run, and checked, during set-up: they fill the
// experiment package's shared field caches and page in the code.
var figureWarmup = []string{"fig7", "fig8"}

type figuresWorkload struct{}

type figuresState struct {
	cfg   experiment.Config
	want  map[string]string
	order [][]string // figure IDs per sweep, in seeded order
}

func (*figuresWorkload) setUp(cfg runConfig, _ *traceRecorder) (state, error) {
	want := map[string]string{}
	for _, id := range figureIDs {
		b, err := os.ReadFile(filepath.Join("results", id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("expected table: %w", err)
		}
		want[id] = string(b)
	}
	ecfg := experiment.Default()
	ecfg.Parallel = 1
	for _, id := range figureWarmup {
		f, err := runFigure(id, ecfg)
		if err != nil {
			return nil, err
		}
		if why := checkTable(id, f.Table(), want[id]); why != "" {
			return nil, fmt.Errorf("warm-up: %s", why)
		}
	}

	sweeps := int(math.Round(float64(cfg.seconds) / figureSweepSeconds))
	if sweeps < 1 {
		sweeps = 1
	}
	r := rand.New(rand.NewPCG(cfg.seed, 0xf16))
	st := &figuresState{cfg: ecfg, want: want}
	for i := 0; i < sweeps; i++ {
		ids := append([]string(nil), figureIDs...)
		r.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		st.order = append(st.order, ids)
	}
	return st, nil
}

func runFigure(id string, cfg experiment.Config) (experiment.Figure, error) {
	if strings.HasPrefix(id, "ext-") {
		return experiment.ExtByID(id, cfg)
	}
	return experiment.ByID(id, cfg)
}

func (s *figuresState) measure(p *pass) error {
	times := map[string][]float64{}
	defer p.set("figure_ms", times)
	for _, sweep := range s.order {
		for _, id := range sweep {
			_, sp := p.trace.span(context.Background(), "experiment."+id)
			t0 := time.Now()
			f, err := runFigure(id, s.cfg)
			el := time.Since(t0)
			sp.End()
			if err != nil {
				return err
			}
			why := checkTable(id, f.Table(), s.want[id])
			p.op(el, why == "", why)
			times[id] = append(times[id], ms(el))
			p.trace.observe("experiment."+id+"_ms", ms(el))
			if simFigures[id] {
				p.trace.observe("sim.run_ms", ms(el))
			}
		}
	}
	return nil
}

func (*figuresState) verify(*pass) error { return nil }
func (*figuresState) close()             {}

// checkTable compares a rendered figure table with the committed one,
// ignoring "# elapsed" lines and trailing blank lines. It returns ""
// when they match, else where they first differ.
func checkTable(id, got, want string) string {
	g, w := tableLines(got), tableLines(want)
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("%s line %d: got %q, want %q", id, i+1, gl, wl)
		}
	}
	return ""
}

func tableLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, "# elapsed") {
			continue
		}
		out = append(out, l)
	}
	for len(out) > 0 && strings.TrimSpace(out[len(out)-1]) == "" {
		out = out[:len(out)-1]
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
