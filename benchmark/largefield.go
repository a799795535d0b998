package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// The large-field workload: a closed batch of fresh 1e5-point tiled
// fields, each built from nothing (Halton points, tiled coverage store,
// n/40 scattered sensors, rs-neighbourhoods) and then deployed to full
// 1-coverage. Ops cycle grid, grid, centralized: with two grid ops per
// centralized one, p50 falls inside the grid mode and p90 inside the
// centralized mode rather than in the gap between them.

const (
	largePoints  = 100_000
	largeDensity = 0.2 // points per unit², the paper's 2000 on 100×100
	largeRs      = 4
	// largeCycleSeconds is the nominal cost of one grid, grid,
	// centralized cycle on a 2-CPU Xeon host; it only sizes the schedule.
	largeCycleSeconds = 0.9
)

// largeScatterSeeds is the fixed seed list the initial scatters cycle
// through; the run seed picks the starting offset. largePlaced records,
// per seed, how many sensors grid-small and centralized place.
var largeScatterSeeds = []uint64{11, 23, 37, 41, 53, 67, 79, 97}

var largePlaced = map[uint64][2]int{
	11: {27009, 12212}, 23: {26732, 12203}, 37: {27003, 12207}, 41: {26981, 12162},
	53: {26828, 12210}, 67: {26752, 12208}, 79: {26767, 12228}, 97: {27001, 12217},
}

type largeOp struct {
	seed        uint64
	centralized bool
}

func (o largeOp) method() core.Method {
	if o.centralized {
		return core.Centralized{Workers: workers()}
	}
	return core.GridDECOR{CellSize: 5, Workers: workers()}
}

func (o largeOp) wantPlaced() int {
	if o.centralized {
		return largePlaced[o.seed][1]
	}
	return largePlaced[o.seed][0]
}

type largeFieldWorkload struct{}

type largeFieldState struct {
	field geom.Rect
	ops   []largeOp
}

func largeField() geom.Rect { return geom.Square(math.Sqrt(largePoints / largeDensity)) }

func (*largeFieldWorkload) setUp(cfg runConfig, _ *traceRecorder) (state, error) {
	st := &largeFieldState{field: largeField()}
	cycles := int(math.Round(float64(cfg.seconds) / largeCycleSeconds))
	if cycles < 1 {
		cycles = 1
	}
	off := int(cfg.seed % uint64(len(largeScatterSeeds)))
	for i := 0; i < 3*cycles; i++ {
		st.ops = append(st.ops, largeOp{
			seed:        largeScatterSeeds[(off+i/3)%len(largeScatterSeeds)],
			centralized: i%3 == 2,
		})
	}
	// Warm-up: one checked op per method pages in the build and deploy
	// paths.
	for _, central := range []bool{false, true} {
		warm := largeOp{seed: largeScatterSeeds[off], centralized: central}
		if why := st.runOp(context.Background(), nil, warm); why != "" {
			return nil, fmt.Errorf("warm-up: %s", why)
		}
	}
	return st, nil
}

func (s *largeFieldState) measure(p *pass) error {
	for _, o := range s.ops {
		t0 := time.Now()
		why := s.runOp(context.Background(), p.trace, o)
		p.op(time.Since(t0), why == "", why)
	}
	return nil
}

// runOp builds one fresh field and deploys it, returning "" when the
// field ends fully covered with the recorded number of placements.
func (s *largeFieldState) runOp(ctx context.Context, t *traceRecorder, o largeOp) string {
	ctx, root := t.span(ctx, "large-field.op")
	defer root.End()

	_, sp := t.span(ctx, "lowdisc.points")
	t0 := time.Now()
	pts := lowdisc.Halton{}.Points(largePoints, s.field)
	t.observe("lowdisc.points_ms", ms(time.Since(t0)))
	sp.End()

	_, sp = t.span(ctx, "coverage.build")
	var a0 uint64
	if t != nil {
		a0, _, _ = readRuntime()
	}
	t0 = time.Now()
	m := coverage.NewTiled(s.field, pts, largeRs, 1, coverage.TileOptions{})
	r := rng.New(o.seed)
	for id := 0; id < largePoints/40; id++ {
		m.AddSensor(id, r.PointInRect(s.field))
	}
	t.observe("coverage.build_ms", ms(time.Since(t0)))
	if t != nil {
		a1, _, _ := readRuntime()
		t.observe("coverage.build_allocs", float64(a1-a0))
	}
	sp.End()

	_, sp = t.span(ctx, "index.neighborhoods")
	t0 = time.Now()
	m.PointNeighborhoods(largeRs)
	t.observe("index.neighborhoods_ms", ms(time.Since(t0)))
	sp.End()

	meth := o.method()
	dctx, sp := t.span(ctx, "core.Deploy")
	t0 = time.Now()
	res := meth.Deploy(m, rng.New(1), core.Options{Ctx: dctx})
	el := ms(time.Since(t0))
	sp.End()
	if o.centralized {
		t.observe("core.centralized_deploy_ms", el)
	} else {
		t.observe("core.grid_deploy_ms", el)
	}
	t.observe("core.rounds_per_deploy", float64(res.Rounds))
	t.observe("core.placed_per_deploy", float64(res.NumPlaced()))
	return checkLargeField(m, meth.Name(), o.seed, res.NumPlaced(), o.wantPlaced())
}

// checkLargeField returns "" when the deployed field is fully covered
// and placed the recorded number of sensors, else what is wrong.
func checkLargeField(m *coverage.Map, method string, seed uint64, placed, want int) string {
	if !m.FullyCovered() {
		return fmt.Sprintf("%s seed %d: %d points left under k-coverage", method, seed, m.NumDeficient())
	}
	if placed != want {
		return fmt.Sprintf("%s seed %d: placed %d sensors, recorded %d", method, seed, placed, want)
	}
	return ""
}

func (*largeFieldState) verify(*pass) error { return nil }
func (*largeFieldState) close()             {}
