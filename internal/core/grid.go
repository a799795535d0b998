package core

import (
	"fmt"
	"sort"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/obs"
	"decor/internal/partition"
	"decor/internal/rng"
)

// GridDECOR is the paper's grid-based DECOR variant (§3.1): the field is
// partitioned into fixed CellSize × CellSize cells, each occupied cell
// elects a leader (rotated every round to spread energy), and leaders run
// the greedy benefit placement over their own cell's sample points.
// Leaders whose cell is fully covered adopt empty deficient neighboring
// cells, seeding a sensor there that becomes the new cell's first member
// — the paper's rule "the leader of a neighboring cell will place a new
// leader in the uncovered cell".
//
// The paper evaluates CellSize 5 ("small cell", one sensor nearly covers
// a whole cell when rs = 4) and 10 ("big cell").
type GridDECOR struct {
	CellSize float64
	// Sequential serializes the distributed execution: only one leader
	// places per round — the first decision in occupied-cell order — so
	// every decision sees fully propagated state. This is the concurrency
	// ablation from DESIGN.md §5 — it bounds how much of DECOR's overhead
	// vs the centralized greedy is coordination cost (same-round races)
	// rather than knowledge locality.
	Sequential bool
	// NewRs overrides the sensing radius of newly placed sensors
	// (0 = the map default), the paper's heterogeneous setting.
	NewRs float64
	// Workers is the worker count inside each round (tiled.go): leader
	// decisions are scored concurrently across occupied cells and benefit
	// updates scattered tile-partitioned. 0 and 1 run inline, > 1 uses
	// that many workers, < 0 uses GOMAXPROCS. Placements are
	// byte-identical for every setting (the parity suite asserts it).
	Workers int
}

// Name implements Method.
func (g GridDECOR) Name() string {
	if g.CellSize <= 5 {
		return "grid-small"
	}
	return "grid-big"
}

// gridState carries per-run bookkeeping for the grid scheme.
type gridState struct {
	m     *coverage.Map
	part  *partition.Grid
	cells [][]int // cell -> sample point indices (ascending)
	// members lists each cell's sensor IDs in arrival order, indexed
	// densely by cell (the cell count is fixed for a run).
	members [][]int
	// occ lists the occupied cells ascending, maintained incrementally —
	// the cells with a non-empty members list.
	occ []int
	// nbrs precomputes every cell's Moore neighborhood.
	nbrs [][]int
	// cellOf maps sample point index -> containing cell.
	cellOf []int
}

// newGridState partitions m into cellSize cells, enrolls the existing
// sensors, and accounts the initial position exchange in res: each
// occupied cell's leader advertises its sensors to occupied Moore
// neighbors (one message each).
func newGridState(m *coverage.Map, cellSize float64, res *Result) *gridState {
	st := &gridState{
		m:    m,
		part: partition.NewGrid(m.Field(), cellSize),
	}
	st.members = make([][]int, st.part.NumCells())
	pts := make([]geom.Point, m.NumPoints())
	for i := range pts {
		pts[i] = m.Point(i)
	}
	st.cells = st.part.AssignPoints(pts)
	st.cellOf = make([]int, len(pts))
	for c, idxs := range st.cells {
		for _, i := range idxs {
			st.cellOf[i] = c
		}
	}
	st.nbrs = st.part.NeighborLists()
	res.Cells = st.part.NumCells()
	for _, id := range m.SensorIDs() {
		p, _ := m.SensorPos(id)
		st.addMember(st.part.CellIndex(p), id)
	}
	for _, c := range st.occ {
		leader := st.members[c][0]
		for _, nc := range st.nbrs[c] {
			if len(st.members[nc]) > 0 {
				res.Messages++
				res.NodeMessages[leader]++
			}
		}
	}
	return st
}

// addMember records sensor id as a member of cell, keeping occ sorted.
func (st *gridState) addMember(cell, id int) {
	if len(st.members[cell]) == 0 {
		i := sort.SearchInts(st.occ, cell)
		st.occ = append(st.occ, 0)
		copy(st.occ[i+1:], st.occ[i:])
		st.occ[i] = cell
	}
	st.members[cell] = append(st.members[cell], id)
}

// gridPlacement is one leader decision within a round.
type gridPlacement struct {
	leader int
	cell   int
	pos    geom.Point
	ptIdx  int
}

// commit deploys decision d as sensor id with radius newRs and accounts
// its messages: one per occupied neighboring cell whose area the new
// sensor's disk overlaps (§3.3 border exchange), plus one to the adopted
// cell's new sensor if placed remotely. Base-station seeds (leader < 0)
// send none.
func (st *gridState) commit(d gridPlacement, id int, newRs float64, res *Result) {
	m := st.m
	if newRs == m.Rs() {
		m.AddSensorAtPoint(id, d.ptIdx)
	} else {
		m.AddSensorRadius(id, d.pos, newRs)
	}
	st.addMember(d.cell, id)
	if d.leader < 0 {
		return
	}
	disk := geom.Disk{Center: d.pos, R: newRs}
	for _, nc := range st.nbrs[d.cell] {
		if len(st.members[nc]) == 0 {
			continue
		}
		if disk.IntersectsRect(st.part.CellRect(nc)) {
			res.Messages++
			res.NodeMessages[d.leader]++
		}
	}
	if lp, _ := m.SensorPos(d.leader); d.cell != st.part.CellIndex(lp) {
		res.Messages++ // instruct the remote cell's new leader
		res.NodeMessages[d.leader]++
	}
}

// Deploy implements Method. Each round, leaders decide against the
// round-start snapshot, every decision is committed in occupied-cell
// order, and the tile engine folds the round into its benefit cache.
func (g GridDECOR) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	validateDeployInputs(m, r)
	if g.CellSize <= 0 {
		panic("core: GridDECOR requires a positive cell size")
	}
	newRs := g.NewRs
	if newRs <= 0 {
		newRs = m.Rs()
	}
	res := Result{Method: g.Name(), NodeMessages: map[int]int{}}
	tctx, depSpan := obs.StartSpanCtx(opt.Ctx, "core.deploy")
	defer endDeploySpan(depSpan, &res)
	st := newGridState(m, g.CellSize, &res)
	e := newTiledGrid(st, newRs, g.Sequential, g.Workers, opt)
	defer e.flush()
	if e.cancelled.Load() {
		res.Interrupted = true
		return res
	}

	nextID := nextSensorID(m)
	var decided []gridPlacement
	for round := 0; !m.FullyCovered() && round < opt.maxRounds(); round++ {
		if res.Capped {
			break
		}
		if opt.interrupted() {
			res.Interrupted = true
			break
		}
		roundSpan := obs.StartSpan(obs.CoreRoundSeconds)
		_, trSpan := obs.StartSpanCtx(tctx, "core.round")
		evalSpan := obs.StartSpan(obs.CoreBenefitEvalSeconds)
		decided = e.decide(round, opt, decided[:0])
		evalSpan.End()
		if e.cancelled.Load() {
			res.Interrupted = true
			roundSpan.End()
			trSpan.End()
			break
		}
		if len(decided) == 0 {
			// No leader can reach the remaining deficient points: the
			// base station seeds the lowest deficient sample point (the
			// paper's regular-positioning fallback for empty regions).
			u := e.lowestDeficient()
			if u < 0 {
				roundSpan.End()
				trSpan.End()
				break
			}
			decided = append(decided, gridPlacement{leader: -1, cell: st.cellOf[u], pos: m.Point(u), ptIdx: u})
			res.Seeded++
		}
		// Apply all of this round's placements; notifications go out
		// between rounds (the next snapshot sees them).
		applied := e.applied[:0]
		for _, d := range decided {
			if len(res.Placed) >= opt.maxPlacements() {
				res.Capped = true
				break
			}
			id := nextID
			nextID++
			st.commit(d, id, newRs, &res)
			applied = append(applied, d.ptIdx)
			res.Placed = append(res.Placed, Placement{ID: id, Pos: d.pos, Round: round})
		}
		e.fold(applied)
		e.applied = applied
		res.Rounds = round + 1
		roundSpan.End()
		if trSpan != nil {
			trSpan.SetAttr(fmt.Sprintf("round=%d placed=%d", round, len(decided)))
			trSpan.End()
		}
	}
	return res
}

// endDeploySpan closes the core.deploy trace span with the run summary.
func endDeploySpan(depSpan *obs.ActiveSpan, res *Result) {
	if depSpan != nil {
		depSpan.SetAttr(fmt.Sprintf("method=%s rounds=%d placed=%d", res.Method, res.Rounds, len(res.Placed)))
		depSpan.End()
	}
}
