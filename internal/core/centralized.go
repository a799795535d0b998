package core

import (
	"fmt"

	"decor/internal/coverage"
	"decor/internal/obs"
	"decor/internal/rng"
)

// Centralized is the paper's first baseline: the same greedy benefit
// heuristic as DECOR but executed with a global view of the field. It is
// the quality ceiling — "expected to result in a more efficient placement
// than DECOR. However, having global knowledge of the field is not
// possible in many cases" (§4).
type Centralized struct {
	// NewRs overrides the sensing radius of the sensors this run
	// deploys (0 = the map's default), supporting the paper's
	// heterogeneous setting where new hardware may out-range the
	// original deployment.
	NewRs float64
	// Workers parallelizes the one-time benefit build: 0 and 1 run
	// inline, > 1 uses that many workers, < 0 uses GOMAXPROCS (the
	// GridDECOR.Workers rule). The result is worker-count-independent.
	Workers int
}

// newRadius resolves the radius of newly placed sensors for a map.
func (c Centralized) newRadius(m *coverage.Map) float64 {
	if c.NewRs > 0 {
		return c.NewRs
	}
	return m.Rs()
}

// Name implements Method.
func (Centralized) Name() string { return "centralized" }

// Deploy implements Method.
func (c Centralized) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	validateDeployInputs(m, r)
	res := Result{Method: c.Name(), NodeMessages: map[int]int{}, Cells: 1}
	_, depSpan := obs.StartSpanCtx(opt.Ctx, "core.deploy")
	c.deployTiled(m, opt, &res)
	res.Rounds = 1
	if depSpan != nil {
		depSpan.SetAttr(fmt.Sprintf("method=%s placed=%d", res.Method, len(res.Placed)))
		depSpan.End()
	}
	return res
}

// RandomPlacement is the paper's second baseline: uniform random
// positions until k-coverage is achieved. It needs roughly 4× the nodes
// of any informed method and thousands of redundant sensors (Figs. 8–9).
type RandomPlacement struct{}

// Name implements Method.
func (RandomPlacement) Name() string { return "random" }

// Deploy implements Method.
func (rp RandomPlacement) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	validateDeployInputs(m, r)
	res := Result{Method: rp.Name(), NodeMessages: map[int]int{}, Cells: 1, Rounds: 1}
	_, depSpan := obs.StartSpanCtx(opt.Ctx, "core.deploy")
	defer func() {
		if depSpan != nil {
			depSpan.SetAttr(fmt.Sprintf("method=%s placed=%d", res.Method, len(res.Placed)))
			depSpan.End()
		}
	}()
	id := nextSensorID(m)
	for !m.FullyCovered() {
		if len(res.Placed) >= opt.maxPlacements() {
			res.Capped = true
			return res
		}
		if opt.interrupted() {
			res.Interrupted = true
			return res
		}
		p := r.PointInRect(m.Field())
		m.AddSensor(id, p)
		res.Placed = append(res.Placed, Placement{ID: id, Pos: p})
		id++
	}
	return res
}
