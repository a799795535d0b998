// Tile-parallel placement engines, the only engines of the grid and
// centralized methods (DESIGN.md §13).
//
//   - tiledGrid is GridDECOR's round engine. Per round, leader decisions
//     are scored concurrently across occupied cells (the paper's
//     per-cell independence argument: a decision reads only the
//     round-start snapshot), then committed sequentially in cell order,
//     and the benefit scatter for placements whose disks cross tile
//     boundaries is partitioned by destination tile — each worker owns
//     whole tiles, so the update is race-free and the final benefit
//     state is independent of the worker count.
//
//   - Centralized.deployTiled is the global greedy: its argmax is the
//     root of a tournament tree with one leaf per initially deficient
//     candidate (fully-k-covered tiles contribute none). A placement
//     repairs only the ~40 leaves within 2·rs of it and their root
//     paths, O(log D) each for D initially deficient candidates.
//
// Determinism argument (the conflict-resolution round): decisions are
// computed from an immutable snapshot into per-cell slots and compacted
// in occupied-cell order, so the decided sequence equals the sequential
// scan's. Applying a round's batch uses the order-free drop formulation
// drop(j) = max(k−old_j,0) − max(k−new_j,0), which equals the sum of the
// sequential per-placement decrements for any apply order; integer adds
// commute, so the scattered benefit array is bit-equal for any worker
// count, including one. The rescan oracles in oracle_test.go hold both
// engines to the straightforward snapshot-rescan semantics.
package core

import (
	"sync/atomic"

	"decor/internal/coverage"
	"decor/internal/index"
	"decor/internal/obs"
	"decor/internal/shard"
)

// shardWorkers maps a placement Workers setting onto shard's: 0 and 1
// run inline, < 0 means GOMAXPROCS. At paper scale a round is far too
// small to amortize goroutine fan-out, so inline is the zero value.
func shardWorkers(w int) int {
	if w == 0 {
		return 1
	}
	return w
}

// tiledGrid carries the engine state for one GridDECOR.Deploy run.
type tiledGrid struct {
	m     *coverage.Map
	ts    *coverage.TileStore
	st    *gridState
	nb    *index.Neighborhoods
	newRs float64
	seq   bool // GridDECOR.Sequential: one decision per round
	w     int  // shard worker count (0 = GOMAXPROCS)
	k     int32

	// snap mirrors the map's coverage counts (round-start semantics are
	// preserved because it only advances in the sequential gather).
	// benefit is the cell-restricted Eq. 1 cache: exact for every
	// currently-deficient candidate, junk for covered ones — covered
	// candidates are skipped before the read, and they can never become
	// deficient again because counts only grow during a deployment.
	snap    []int32
	benefit []int32
	cellDef []int32 // per grid cell: points with snap < k
	tileOf  []int32

	slots   []gridPlacement // per occupied-cell decision slots
	applied []int           // sample points placed at this round

	// Round-fold scratch (all reset each round).
	coverCnt  []int32   // per point: placements covering it this round
	touched   []int     // points with coverCnt > 0
	drop      []int32   // per point: benefit drop this round
	dropped   []int     // points with drop > 0
	tileTouch [][]int32 // per tile: dropped points whose disk reaches it
	tileMark  []int     // epoch guard for tileTouch
	dirty     []int     // tiles with a non-empty tileTouch this round
	epoch     int

	cancelled atomic.Bool
	deltas    int64
}

// newTiledGrid snapshots st's map and builds the cell-restricted
// benefit cache. A cancellation during the build leaves cancelled set.
func newTiledGrid(st *gridState, newRs float64, seq bool, workers int, opt Options) *tiledGrid {
	m := st.m
	e := &tiledGrid{
		m:     m,
		ts:    m.Tiles(),
		st:    st,
		nb:    m.PointNeighborhoods(newRs),
		newRs: newRs,
		seq:   seq,
		w:     shardWorkers(workers),
		k:     int32(m.K()),
	}
	n := m.NumPoints()
	e.tileOf = e.ts.TileMap()
	e.snap = make([]int32, n)
	e.ts.ForEachCount(func(i, c int) { e.snap[i] = int32(c) })
	e.cellDef = make([]int32, st.part.NumCells())
	for i, c := range e.snap {
		if c < e.k {
			e.cellDef[st.cellOf[i]]++
		}
	}
	e.benefit = make([]int32, n)
	e.coverCnt = make([]int32, n)
	e.drop = make([]int32, n)
	e.tileTouch = make([][]int32, e.ts.NumTiles())
	e.tileMark = make([]int, e.ts.NumTiles())
	for t := range e.tileMark {
		e.tileMark[t] = -1
	}
	e.build(opt)
	return e
}

// flush publishes the run's benefit delta count to the default registry,
// once per Deploy so the hot loop stays atomic-free.
func (e *tiledGrid) flush() {
	if e.deltas > 0 {
		obsCacheDeltas.Add(e.deltas)
	}
}

// build gathers the cell-restricted benefit cache tile-parallel. Fully
// covered tiles are skipped outright: every candidate in them stays
// non-deficient for the whole run, so its benefit is never read. The
// gather form (sum over the candidate's neighborhood) writes only to the
// worker's own tile, making the build race-free, and integer adds make
// it bit-equal to the sequential scatter build for any worker count.
func (e *tiledGrid) build(opt Options) {
	span := obs.StartSpan(obs.CoreCacheBuildSeconds)
	defer span.End()
	shard.ForEach(e.ts.NumTiles(), e.w, func(t int) {
		if e.ts.DeficientInTile(t) == 0 {
			return
		}
		if t&31 == 0 && opt.interrupted() {
			e.cancelled.Store(true)
		}
		if e.cancelled.Load() {
			return
		}
		for _, ii := range e.ts.TilePoints(t) {
			i := int(ii)
			if e.snap[i] >= e.k {
				continue
			}
			ci := e.st.cellOf[i]
			var b int32
			for _, jj := range e.nb.At(i) {
				j := int(jj)
				if e.st.cellOf[j] != ci {
					continue
				}
				if d := e.k - e.snap[j]; d > 0 {
					b += d
				}
			}
			e.benefit[i] = b
		}
	})
}

// bestIn returns the deficient candidate with maximum cached benefit,
// lowest index on ties (candidates are ascending).
func (e *tiledGrid) bestIn(candidates []int) (int, bool) {
	bestV, bestIdx := int32(0), -1
	for _, i := range candidates {
		if e.snap[i] >= e.k {
			continue
		}
		if b := e.benefit[i]; b > bestV {
			bestV, bestIdx = b, i
		}
	}
	return bestIdx, bestIdx >= 0
}

// decide scores one round's leader decisions. Every decision reads only
// round-start state (snap, benefit, cellDef, membership), so with
// several workers cells are scored concurrently into per-cell slots and
// compacted in occupied-cell order, reproducing the inline scan's
// decision sequence exactly. Under Sequential only the first decision in
// that order is wanted, so the inline scan stops there. Cancellation is
// polled inside the scoring loop (every 32 cells), not just at round
// boundaries, so /v1/plan deadlines abort million-point rounds promptly.
func (e *tiledGrid) decide(round int, opt Options, decided []gridPlacement) []gridPlacement {
	occ := e.st.occ
	if e.seq || e.w == 1 {
		for ci, c := range occ {
			if ci&31 == 0 && opt.interrupted() {
				e.cancelled.Store(true)
				return decided
			}
			if s := e.score(c, round); s.ptIdx >= 0 {
				decided = append(decided, s)
				if e.seq {
					break
				}
			}
		}
		return decided
	}
	if cap(e.slots) < len(occ) {
		e.slots = make([]gridPlacement, len(occ))
	}
	e.slots = e.slots[:len(occ)]
	shard.ForEach(len(occ), e.w, func(ci int) {
		if ci&31 == 0 && opt.interrupted() {
			e.cancelled.Store(true)
		}
		if e.cancelled.Load() {
			return
		}
		e.slots[ci] = e.score(occ[ci], round)
	})
	if e.cancelled.Load() {
		return decided
	}
	for _, s := range e.slots {
		if s.ptIdx >= 0 {
			decided = append(decided, s)
		}
	}
	return decided
}

// score is occupied cell c's leader decision for this round, or a slot
// with ptIdx -1 when the leader has nothing to place.
func (e *tiledGrid) score(c, round int) gridPlacement {
	leader := e.st.members[c][round%len(e.st.members[c])]
	// Own cell first. cellDef > 0 guarantees a positive-benefit
	// candidate (a deficient point's benefit includes its own deficit).
	if e.cellDef[c] > 0 {
		if idx, ok := e.bestIn(e.st.cells[c]); ok {
			return gridPlacement{leader, c, e.m.Point(idx), idx}
		}
		return gridPlacement{ptIdx: -1}
	}
	// Own cell covered: adopt the first empty deficient neighbor.
	for _, nc := range e.st.nbrs[c] {
		if len(e.st.members[nc]) > 0 || e.cellDef[nc] == 0 {
			continue
		}
		if idx, ok := e.bestIn(e.st.cells[nc]); ok {
			return gridPlacement{leader, nc, e.m.Point(idx), idx}
		}
		break
	}
	return gridPlacement{ptIdx: -1}
}

// fold advances the snapshot and benefit cache by one round's applied
// placements: gather each covered point's total increment, convert it to
// an order-free benefit drop, then scatter the drops tile-partitioned.
func (e *tiledGrid) fold(applied []int) {
	if len(applied) == 0 {
		return
	}
	// Gather: how many of this round's disks cover each point.
	for _, pi := range applied {
		for _, jj := range e.nb.At(pi) {
			j := int(jj)
			if e.coverCnt[j] == 0 {
				e.touched = append(e.touched, j)
			}
			e.coverCnt[j]++
		}
	}
	// Convert to drops. drop(j) = max(k−old,0) − max(k−new,0) equals the
	// cumulative effect of the sequential per-placement decrements
	// regardless of apply order.
	e.epoch++
	e.dirty = e.dirty[:0]
	par := shard.Workers(e.w, len(e.touched)+1) > 1
	for _, j := range e.touched {
		cc := e.coverCnt[j]
		e.coverCnt[j] = 0
		old := e.snap[j]
		nw := old + cc
		e.snap[j] = nw
		if old >= e.k {
			continue
		}
		var dr int32
		if nw >= e.k {
			dr = e.k - old
			e.cellDef[e.st.cellOf[j]]--
		} else {
			dr = cc
		}
		e.drop[j] = dr
		e.dropped = append(e.dropped, j)
		e.deltas += int64(len(e.nb.At(j)))
		if par {
			// Register j with every tile its disk can reach, so the
			// parallel scatter can partition updates by destination
			// tile (disks crossing tile boundaries appear in each).
			e.ts.VisitTilesInDisk(e.m.Point(j), e.newRs, func(t int) {
				if e.tileMark[t] != e.epoch {
					e.tileMark[t] = e.epoch
					e.tileTouch[t] = e.tileTouch[t][:0]
					e.dirty = append(e.dirty, t)
				}
				e.tileTouch[t] = append(e.tileTouch[t], int32(j))
			})
		}
	}
	e.touched = e.touched[:0]
	// Scatter: each candidate in the dropped points' neighborhoods (same
	// cell only — the leader knowledge model) loses the drop.
	if !par {
		for _, j := range e.dropped {
			dr := e.drop[j]
			cj := e.st.cellOf[j]
			for _, ii := range e.nb.At(j) {
				i := int(ii)
				if e.st.cellOf[i] == cj {
					e.benefit[i] -= dr
				}
			}
		}
	} else {
		// Tile-partitioned: worker w updates only benefit[i] of tiles it
		// owns, so no two workers write the same entry, and the result
		// (a sum of the same integer drops) is worker-count-independent.
		shard.ForEach(len(e.dirty), e.w, func(di int) {
			t := e.dirty[di]
			for _, jj := range e.tileTouch[t] {
				j := int(jj)
				dr := e.drop[j]
				cj := e.st.cellOf[j]
				for _, ii := range e.nb.At(j) {
					i := int(ii)
					if int(e.tileOf[i]) == t && e.st.cellOf[i] == cj {
						e.benefit[i] -= dr
					}
				}
			}
		})
	}
	for _, j := range e.dropped {
		e.drop[j] = 0
	}
	e.dropped = e.dropped[:0]
}

// lowestDeficient returns the lowest-index point with snap < k, or -1 —
// UncoveredPoints()[0] through the tile summaries instead of a full
// scan.
func (e *tiledGrid) lowestDeficient() int {
	best := -1
	for t := 0; t < e.ts.NumTiles(); t++ {
		if e.ts.DeficientInTile(t) == 0 {
			continue
		}
		for _, ii := range e.ts.TilePoints(t) {
			if e.snap[ii] < e.k {
				if i := int(ii); best < 0 || i < best {
					best = i
				}
				break // tile lists are ascending
			}
		}
	}
	return best
}

// leafKey packs a candidate's Eq. 1 benefit and point index into one
// tournament key: benefit in the high word, the complemented index in
// the low word, so a plain integer max picks the highest benefit and,
// among equal benefits, the lowest index. Covered leaves hold -1.
func leafKey(benefit, i int32) int64 {
	return int64(benefit)<<32 | int64(^uint32(i))
}

// keyPoint is the point index packed into a leaf key.
func keyPoint(key int64) int { return int(^uint32(key)) }

// tourney is a max tournament tree over d leaf keys: leaves at [d, 2d),
// node i holds max(node 2i, node 2i+1), and node 1 is the root. Every
// index in [2, 2d) has exactly one parent, so the root is the max of
// all leaves for any d ≥ 1, a power of two or not; leaf order does not
// matter because keys are unique.
type tourney []int64

// fix re-walks the path from node i to the root. It stops at the first
// ancestor whose value does not change: that ancestor's parent was last
// computed from the same value, so nothing above it moves.
func (t tourney) fix(i int) {
	for i > 1 {
		i >>= 1
		v := max(t[2*i], t[2*i+1])
		if t[i] == v {
			return
		}
		t[i] = v
	}
}

// deployTiled is the centralized greedy over a tournament tree with one
// leaf per initially deficient candidate, the only candidates that can
// ever win (counts never shrink during a deploy). Leaves are tile-major
// at offsets from the tile deficiency summaries, so the tile-parallel
// build writes them in place; the root is the argmax. A placement
// decrements the leaves of the deficient candidates whose deficit it
// reduced, retires newly covered leaves to -1, and re-walks those leaves'
// root paths. Placements are byte-identical to the rescan oracle (the
// parity tests assert it); Workers parallelizes only the one-time build.
func (c Centralized) deployTiled(m *coverage.Map, opt Options, res *Result) {
	ts := m.Tiles()
	n := m.NumPoints()
	rs := c.newRadius(m)
	nb := m.PointNeighborhoods(rs)
	kk := int32(m.K())
	nt := ts.NumTiles()
	// One allocation backs the per-point snapshot and leaf slot and the
	// per-tile leaf offsets; leaf[i] is meaningful only while snap[i] < k.
	buf := make([]int32, 2*n+nt+1)
	snap, leaf, off := buf[:n], buf[n:2*n], buf[2*n:]
	for t := 0; t < nt; t++ {
		off[t+1] = off[t] + int32(ts.DeficientInTile(t))
	}
	d := int(off[nt])
	tree := make(tourney, 2*d)
	ts.ForEachCount(func(i, cnt int) { snap[i] = int32(cnt) })
	var cancelled atomic.Bool
	span := obs.StartSpan(obs.CoreCacheBuildSeconds)
	shard.ForEach(nt, shardWorkers(c.Workers), func(t int) {
		if off[t] == off[t+1] {
			return // all candidates covered: they get no leaf
		}
		if t&31 == 0 && opt.interrupted() {
			cancelled.Store(true)
		}
		if cancelled.Load() {
			return
		}
		l := off[t]
		for _, ii := range ts.TilePoints(t) {
			if snap[ii] >= kk {
				continue
			}
			var b int32
			for _, jj := range nb.At(int(ii)) {
				if dd := kk - snap[jj]; dd > 0 {
					b += dd
				}
			}
			leaf[ii] = l
			tree[d+int(l)] = leafKey(b, ii)
			l++
		}
		if l != off[t+1] {
			panic("core: tile deficiency summary disagrees with its counts")
		}
	})
	if cancelled.Load() {
		span.End()
		res.Interrupted = true
		return
	}
	for i := d - 1; i >= 1; i-- {
		tree[i] = max(tree[2*i], tree[2*i+1])
	}
	span.End()

	id := nextSensorID(m)
	// Changed leaves of one placement, ~110 touches at rs = 4; the
	// constant capacity keeps the list on the stack.
	dirty := make([]int32, 0, 256)
	for !m.FullyCovered() {
		if len(res.Placed) >= opt.maxPlacements() {
			res.Capped = true
			return
		}
		if opt.interrupted() {
			res.Interrupted = true
			return
		}
		// A deficient point always benefits itself, so a live tree's
		// root is deficient; anything else is a broken repair.
		bestIdx := keyPoint(tree[1])
		if tree[1] < 0 || snap[bestIdx] >= kk {
			panic("core: centralized tournament root is not a deficient candidate")
		}
		p := m.Point(bestIdx)
		if rs == m.Rs() {
			m.AddSensorAtPoint(id, bestIdx)
		} else {
			m.AddSensorRadius(id, p, rs)
		}
		scoreSpan := obs.StartSpan(obs.CoreCandidateScoringSeconds)
		dirty = dirty[:0]
		for _, jj := range nb.At(bestIdx) {
			if snap[jj] >= kk {
				continue // no deficit left to reduce
			}
			// jj's deficit drops by one: so does the benefit of every
			// still-deficient candidate whose disk holds it.
			for _, ii := range nb.At(int(jj)) {
				if snap[ii] < kk {
					tree[d+int(leaf[ii])] -= 1 << 32
					dirty = append(dirty, leaf[ii])
				}
			}
			if snap[jj]++; snap[jj] == kk {
				tree[d+int(leaf[jj])] = -1
				dirty = append(dirty, leaf[jj])
			}
		}
		// Re-walk after all leaf updates: a leaf touched several times,
		// or paths that merge, then cost one walk to the merge point.
		for _, l := range dirty {
			tree.fix(d + int(l))
		}
		scoreSpan.End()
		res.Placed = append(res.Placed, Placement{ID: id, Pos: p})
		id++
	}
}
