package core

import (
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/partition"
	"decor/internal/rng"
)

// Rescan oracles: the reference semantics every shipped engine is held
// to. Each one re-evaluates every candidate's benefit from a fresh
// snapshot through bestCandidateRadius — no benefit cache, no tiles, no
// concurrency — and shares only the run bookkeeping (cell partition,
// membership, message accounting) with the engine under test, so a
// divergence in the parity suites points at the optimized benefit
// maintenance. They also serve as the "rescan" side of the ablation
// benchmarks (DESIGN.md §8).

// bestCandidateRadius returns the deficient candidate with the highest
// perceived benefit for a new sensor of radius rs, ties broken by lowest
// point index. candidates must be sorted ascending; perceived returns a
// point's believed coverage count (negative = unknown, skipped inside
// the benefit). ok is false when no candidate has positive benefit.
func bestCandidateRadius(m *coverage.Map, rs float64, candidates []int, perceived func(i int) int) (idx int, benefit int, ok bool) {
	best, bestIdx := 0, -1
	for _, c := range candidates {
		if kp := perceived(c); kp < 0 || kp >= m.K() {
			continue // not deficient under this node's knowledge
		}
		if b := m.BenefitWithRadius(m.Point(c), rs, perceived); b > best {
			best, bestIdx = b, c
		}
	}
	if bestIdx < 0 {
		return 0, 0, false
	}
	return bestIdx, best, true
}

// gridRescan is GridDECOR evaluated by snapshot rescan: each leader
// scores its cell's candidates against the round-start counts restricted
// to that cell.
type gridRescan struct{ GridDECOR }

func (o gridRescan) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	g := o.GridDECOR
	validateDeployInputs(m, r)
	newRs := g.NewRs
	if newRs <= 0 {
		newRs = m.Rs()
	}
	res := Result{Method: g.Name(), NodeMessages: map[int]int{}}
	st := newGridState(m, g.CellSize, &res)
	nextID := nextSensorID(m)
	for round := 0; !m.FullyCovered() && round < opt.maxRounds(); round++ {
		if res.Capped {
			break
		}
		if opt.interrupted() {
			res.Interrupted = true
			break
		}
		snap := m.Counts()
		best := func(cell int) (int, bool) {
			idx, _, ok := bestCandidateRadius(m, newRs, st.cells[cell], func(i int) int {
				if st.cellOf[i] != cell {
					return -1 // outside the leader's knowledge
				}
				return snap[i]
			})
			return idx, ok
		}
		var decided []gridPlacement
		for _, c := range st.occ {
			if g.Sequential && len(decided) > 0 {
				break
			}
			leader := st.members[c][round%len(st.members[c])]
			if idx, ok := best(c); ok {
				decided = append(decided, gridPlacement{leader, c, m.Point(idx), idx})
				continue
			}
			for _, nc := range st.nbrs[c] {
				if len(st.members[nc]) > 0 {
					continue
				}
				if idx, ok := best(nc); ok {
					decided = append(decided, gridPlacement{leader, nc, m.Point(idx), idx})
					break
				}
			}
		}
		if len(decided) == 0 {
			unc := m.UncoveredPoints()
			if len(unc) == 0 {
				break
			}
			decided = append(decided, gridPlacement{leader: -1, cell: st.cellOf[unc[0]], pos: m.Point(unc[0]), ptIdx: unc[0]})
			res.Seeded++
		}
		for _, d := range decided {
			if len(res.Placed) >= opt.maxPlacements() {
				res.Capped = true
				break
			}
			id := nextID
			nextID++
			st.commit(d, id, newRs, &res)
			res.Placed = append(res.Placed, Placement{ID: id, Pos: d.pos, Round: round})
		}
		res.Rounds = round + 1
	}
	return res
}

// voronoiRescan is VoronoiDECOR evaluated by snapshot rescan: each node
// scores its owned candidates against the round-start counts of the
// points within its communication radius.
type voronoiRescan struct{ VoronoiDECOR }

func (o voronoiRescan) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	v := o.VoronoiDECOR
	validateDeployInputs(m, r)
	newRs := v.NewRs
	if newRs <= 0 {
		newRs = m.Rs()
	}
	res := Result{Method: v.Name(), NodeMessages: map[int]int{}}
	pts := make([]geom.Point, m.NumPoints())
	for i := range pts {
		pts[i] = m.Point(i)
	}
	vor := partition.NewVoronoi(m.Field(), pts, v.Rc)
	var nodes []voronoiNode
	for _, id := range m.SensorIDs() {
		p, _ := m.SensorPos(id)
		vor.AddSensor(id, p)
		nodes = append(nodes, voronoiNode{id, p})
	}
	nextID := nextSensorID(m)
	for round := 0; !m.FullyCovered() && round < opt.maxRounds(); round++ {
		if res.Capped {
			break
		}
		if opt.interrupted() {
			res.Interrupted = true
			break
		}
		snap := m.Counts()
		var decided []voronoiPlacement
		for _, nd := range nodes {
			if v.Sequential && len(decided) > 0 {
				break
			}
			owned := vor.OwnedPoints(nd.id)
			if len(owned) == 0 {
				continue
			}
			nodePos := nd.pos
			perceive := func(i int) int {
				if nodePos.Dist2(m.Point(i)) > v.Rc*v.Rc {
					return -1 // outside the node's knowledge
				}
				return snap[i]
			}
			if idx, _, ok := bestCandidateRadius(m, newRs, owned, perceive); ok {
				decided = append(decided, voronoiPlacement{owner: nd.id, pos: m.Point(idx), ptIdx: idx})
			}
		}
		if len(decided) == 0 {
			unc := m.UncoveredPoints()
			if len(unc) == 0 {
				break
			}
			decided = append(decided, voronoiPlacement{owner: -1, pos: m.Point(unc[0]), ptIdx: unc[0]})
			res.Seeded++
		}
		for _, d := range decided {
			if len(res.Placed) >= opt.maxPlacements() {
				res.Capped = true
				break
			}
			if d.owner >= 0 {
				n := vor.NeighborCount(d.owner) + 1
				res.Messages += n
				res.NodeMessages[d.owner] += n
			}
			id := nextID
			nextID++
			m.AddSensorRadius(id, d.pos, newRs)
			vor.AddSensor(id, d.pos)
			nodes = append(nodes, voronoiNode{id, d.pos})
			res.Placed = append(res.Placed, Placement{ID: id, Pos: d.pos, Round: round})
		}
		res.Rounds = round + 1
	}
	res.Cells = m.NumSensors()
	return res
}

// centralizedRescan is the O(placements · N · ball) global greedy: every
// step rescans every deficient candidate's benefit.
type centralizedRescan struct{ Centralized }

func (o centralizedRescan) Deploy(m *coverage.Map, r *rng.RNG, opt Options) Result {
	validateDeployInputs(m, r)
	res := Result{Method: o.Name(), NodeMessages: map[int]int{}, Cells: 1, Rounds: 1}
	newRs := o.newRadius(m)
	id := nextSensorID(m)
	for !m.FullyCovered() {
		if len(res.Placed) >= opt.maxPlacements() {
			res.Capped = true
			break
		}
		if opt.interrupted() {
			res.Interrupted = true
			break
		}
		bestIdx, best := -1, 0
		for i := 0; i < m.NumPoints(); i++ {
			if m.Count(i) >= m.K() {
				continue
			}
			if b := m.BenefitRadius(m.Point(i), newRs); b > best {
				best, bestIdx = b, i
			}
		}
		if bestIdx < 0 {
			break // unreachable: a deficient point always benefits itself
		}
		p := m.Point(bestIdx)
		m.AddSensorRadius(id, p, newRs)
		res.Placed = append(res.Placed, Placement{ID: id, Pos: p})
		id++
	}
	return res
}
