package core

import (
	"context"
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// Differential tests for the tile-parallel engines (tiled.go) under
// non-default tile layouts: small tiles, resident-page budgets and
// concurrent scoring must be a pure optimization — for every scheme,
// seed, k, and worker count, placements, rounds, and message accounting
// have to be byte-identical to the rescan oracle on the default layout.

// tiledParityMap mirrors parityMap's generator exactly (same rng
// consumption) with an explicit tile layout. Tests keep TilePoints
// small so sensing disks (rs = 4) routinely cross tile boundaries.
func tiledParityMap(seed uint64, k int, opt coverage.TileOptions) *coverage.Map {
	r := rng.New(seed)
	side := 35 + r.Float64()*15
	field := geom.Square(side)
	pts := lowdisc.Halton{}.Points(250+r.Intn(200), field)
	m := coverage.NewTiled(field, pts, 4, k, opt)
	initial := 5 + r.Intn(40)
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	return m
}

func TestTiledGridParity(t *testing.T) {
	for _, cell := range []float64{5, 10} {
		for _, workers := range []int{1, 4} {
			for k := 1; k <= 3; k++ {
				for seed := uint64(1); seed <= 3; seed++ {
					mRef := parityMap(seed, k)
					opt := coverage.TileOptions{TilePoints: 16}
					if seed == 2 {
						opt.MaxResidentTiles = 3 // evict mid-deploy too
					}
					mTiled := tiledParityMap(seed, k, opt)
					ref := gridRescan{GridDECOR{CellSize: cell}}.Deploy(mRef, rng.New(seed), Options{})
					got := GridDECOR{CellSize: cell, Workers: workers}.Deploy(mTiled, rng.New(seed), Options{})
					assertSameResult(t, "tiled grid", ref, got)
					if rf, gf := mRef.CoverageFrac(k), mTiled.CoverageFrac(k); rf != gf {
						t.Fatalf("final coverage diverges: oracle %v, engine %v", rf, gf)
					}
					if max := opt.MaxResidentTiles; max > 0 && mTiled.Tiles().Resident() > max {
						t.Fatalf("deploy left %d resident tiles, limit %d", mTiled.Tiles().Resident(), max)
					}
				}
			}
		}
	}
}

func TestTiledGridParityNewRs(t *testing.T) {
	for _, newRs := range []float64{2, 3, 6} {
		for seed := uint64(1); seed <= 3; seed++ {
			mRef := parityMap(seed, 2)
			mTiled := tiledParityMap(seed, 2, coverage.TileOptions{TilePoints: 16})
			ref := gridRescan{GridDECOR{CellSize: 5, NewRs: newRs}}.Deploy(mRef, rng.New(seed), Options{})
			got := GridDECOR{CellSize: 5, NewRs: newRs, Workers: 4}.Deploy(mTiled, rng.New(seed), Options{})
			assertSameResult(t, "tiled grid newRs", ref, got)
		}
	}
}

// Placement caps cut a round's decided batch mid-apply; the fold must
// only see the placements that actually landed.
func TestTiledGridParityWithCap(t *testing.T) {
	for _, capN := range []int{1, 3, 17} {
		mRef := parityMap(11, 3)
		mTiled := tiledParityMap(11, 3, coverage.TileOptions{TilePoints: 16})
		ref := gridRescan{GridDECOR{CellSize: 5}}.Deploy(mRef, rng.New(11), Options{MaxPlacements: capN})
		got := GridDECOR{CellSize: 5, Workers: 4}.Deploy(mTiled, rng.New(11), Options{MaxPlacements: capN})
		assertSameResult(t, "tiled grid cap", ref, got)
	}
}

// Workers = 0 (the zero value every figure and service path uses) runs
// the tile engine inline and must match the oracle on small tiles too.
func TestTiledMapSeedPathParity(t *testing.T) {
	mRef := parityMap(5, 2)
	mTiled := tiledParityMap(5, 2, coverage.TileOptions{TilePoints: 16})
	ref := gridRescan{GridDECOR{CellSize: 5}}.Deploy(mRef, rng.New(5), Options{})
	got := GridDECOR{CellSize: 5}.Deploy(mTiled, rng.New(5), Options{})
	assertSameResult(t, "tiled map, inline engine", ref, got)
}

func TestTiledCentralizedParity(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for seed := uint64(1); seed <= 3; seed++ {
			mRef := parityMap(seed, k)
			mTiled := tiledParityMap(seed, k, coverage.TileOptions{TilePoints: 16})
			ref := centralizedRescan{}.Deploy(mRef, rng.New(seed), Options{})
			got := Centralized{Workers: 4}.Deploy(mTiled, rng.New(seed), Options{})
			assertSameResult(t, "tiled centralized", ref, got)
		}
	}
	// Heterogeneous radius and cap variants.
	for _, newRs := range []float64{2, 6} {
		mRef := parityMap(4, 2)
		mTiled := tiledParityMap(4, 2, coverage.TileOptions{TilePoints: 16})
		ref := centralizedRescan{Centralized{NewRs: newRs}}.Deploy(mRef, rng.New(4), Options{})
		got := Centralized{NewRs: newRs}.Deploy(mTiled, rng.New(4), Options{})
		assertSameResult(t, "tiled centralized newRs", ref, got)
	}
	for _, capN := range []int{1, 5} {
		mRef := parityMap(4, 3)
		mTiled := tiledParityMap(4, 3, coverage.TileOptions{TilePoints: 16})
		ref := centralizedRescan{}.Deploy(mRef, rng.New(4), Options{MaxPlacements: capN})
		got := Centralized{}.Deploy(mTiled, rng.New(4), Options{MaxPlacements: capN})
		assertSameResult(t, "tiled centralized cap", ref, got)
	}
}

// The tree engine's argmax is the root of a max over packed (benefit,
// index) keys, so ties must still break to the lowest point index even
// though leaves are tile-major. A unit lattice gives every interior
// candidate the same initial benefit, and symmetric placements keep
// re-creating ties all run long.
func TestTiledCentralizedParityLatticeTies(t *testing.T) {
	field := geom.Square(30)
	var pts []geom.Point
	for y := 0; y < 30; y++ {
		for x := 0; x < 30; x++ {
			pts = append(pts, geom.Pt(float64(x)+0.5, float64(y)+0.5))
		}
	}
	for k := 1; k <= 2; k++ {
		for _, tp := range []int{16, 4096} {
			mRef := coverage.New(field, pts, 4, k)
			mTiled := coverage.NewTiled(field, pts, 4, k, coverage.TileOptions{TilePoints: tp})
			ref := centralizedRescan{}.Deploy(mRef, rng.New(1), Options{})
			got := Centralized{Workers: 4}.Deploy(mTiled, rng.New(1), Options{})
			assertSameResult(t, "lattice centralized", ref, got)
		}
	}
}

// sparseDeficitMaps builds the session-delta shape: a parity map
// deployed to full k-coverage, then a seeded handful of its sensors
// removed, so only a few scattered candidates are deficient. The
// reference map uses the default layout, the engine map opt's.
func sparseDeficitMaps(seed uint64, k int, opt coverage.TileOptions) (ref, tiled *coverage.Map) {
	ref, tiled = parityMap(seed, k), tiledParityMap(seed, k, opt)
	for _, m := range []*coverage.Map{ref, tiled} {
		centralizedRescan{}.Deploy(m, rng.New(seed), Options{})
		r := rng.New(seed + 100)
		ids := m.SensorIDs()
		for i := 0; i < 3; i++ {
			m.RemoveSensor(ids[r.Intn(len(ids))])
		}
	}
	return ref, tiled
}

func TestTiledCentralizedParitySparseDeficit(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for seed := uint64(1); seed <= 4; seed++ {
			opt := coverage.TileOptions{TilePoints: 16}
			if seed%2 == 0 {
				opt.MaxResidentTiles = 3
			}
			mRef, mTiled := sparseDeficitMaps(seed, k, opt)
			if mRef.FullyCovered() {
				t.Fatalf("seed %d k=%d: removals left no deficit", seed, k)
			}
			ref := centralizedRescan{}.Deploy(mRef, rng.New(seed), Options{})
			got := Centralized{Workers: 4}.Deploy(mTiled, rng.New(seed), Options{})
			assertSameResult(t, "sparse centralized", ref, got)
			if max := opt.MaxResidentTiles; max > 0 && mTiled.Tiles().Resident() > max {
				t.Fatalf("deploy left %d resident tiles, limit %d", mTiled.Tiles().Resident(), max)
			}
		}
	}
}

// NewRs, placement caps, a residency budget and a pre-cancelled
// context on the sparse shape: each must match the oracle's placements
// and leave the same map behind.
func TestTiledCentralizedParitySparseVariants(t *testing.T) {
	for _, newRs := range []float64{2, 6} {
		mRef, mTiled := sparseDeficitMaps(5, 2, coverage.TileOptions{TilePoints: 16, MaxResidentTiles: 2})
		ref := centralizedRescan{Centralized{NewRs: newRs}}.Deploy(mRef, rng.New(5), Options{})
		got := Centralized{NewRs: newRs, Workers: 4}.Deploy(mTiled, rng.New(5), Options{})
		assertSameResult(t, "sparse centralized newRs", ref, got)
	}
	for _, capN := range []int{1, 2} {
		mRef, mTiled := sparseDeficitMaps(6, 3, coverage.TileOptions{TilePoints: 16})
		ref := centralizedRescan{}.Deploy(mRef, rng.New(6), Options{MaxPlacements: capN})
		got := Centralized{}.Deploy(mTiled, rng.New(6), Options{MaxPlacements: capN})
		assertSameResult(t, "sparse centralized cap", ref, got)
		if rf, gf := mRef.CoverageFrac(3), mTiled.CoverageFrac(3); rf != gf {
			t.Fatalf("capped coverage diverges: oracle %v, engine %v", rf, gf)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, mTiled := sparseDeficitMaps(7, 2, coverage.TileOptions{TilePoints: 16})
	before := mTiled.NumSensors()
	res := Centralized{Workers: 4}.Deploy(mTiled, rng.New(7), Options{Ctx: ctx})
	if !res.Interrupted || len(res.Placed) != 0 || mTiled.NumSensors() != before {
		t.Fatalf("expected interrupted empty run, got interrupted=%v placed=%d",
			res.Interrupted, len(res.Placed))
	}
}

// Voronoi reads counts through the Map API only; small tiles and a
// resident-page budget must not change its placements.
func TestTiledMapVoronoiParity(t *testing.T) {
	mRef := parityMap(6, 2)
	mTiled := tiledParityMap(6, 2, coverage.TileOptions{TilePoints: 16, MaxResidentTiles: 3})
	ref := voronoiRescan{VoronoiDECOR{Rc: 8}}.Deploy(mRef, rng.New(6), Options{})
	got := VoronoiDECOR{Rc: 8}.Deploy(mTiled, rng.New(6), Options{})
	assertSameResult(t, "tiled map, voronoi", ref, got)
}

// An already-expired context aborts the tiled engines before any
// placement — cancellation is polled inside the per-tile build and the
// per-cell scoring loops, not just at round boundaries.
func TestTiledCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mG := tiledParityMap(1, 2, coverage.TileOptions{TilePoints: 16})
	res := GridDECOR{CellSize: 5, Workers: 4}.Deploy(mG, rng.New(1), Options{Ctx: ctx})
	if !res.Interrupted || len(res.Placed) != 0 {
		t.Fatalf("grid: expected interrupted empty run, got interrupted=%v placed=%d",
			res.Interrupted, len(res.Placed))
	}
	mC := tiledParityMap(1, 2, coverage.TileOptions{TilePoints: 16})
	resC := Centralized{Workers: 4}.Deploy(mC, rng.New(1), Options{Ctx: ctx})
	if !resC.Interrupted || len(resC.Placed) != 0 {
		t.Fatalf("centralized: expected interrupted empty run, got interrupted=%v placed=%d",
			resC.Interrupted, len(resC.Placed))
	}
}

// FuzzTileBoundaryConflict drives the disk-crosses-tile-boundary
// conflict resolution with fuzz-chosen geometry: arbitrary tile sizes
// (down to a handful of points per tile), worker counts, cell sizes,
// and requirements must never diverge from the rescan oracle.
func FuzzTileBoundaryConflict(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(2), uint8(1), uint8(3), uint8(200))
	f.Add(uint64(42), uint8(1), uint8(0), uint8(40), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, cellRaw, tpRaw, wRaw uint8) {
		k := 1 + int(kRaw)%3
		cell := 5.0
		if cellRaw%2 == 1 {
			cell = 10
		}
		tp := 4 + int(tpRaw)%60 // tiny tiles: disks span many
		workers := int(wRaw) % 5
		opt := coverage.TileOptions{TilePoints: tp}
		if wRaw%3 == 0 {
			opt.MaxResidentTiles = 1 + int(wRaw)%5
		}
		mRef := parityMap(seed, k)
		mTiled := tiledParityMap(seed, k, opt)
		ref := gridRescan{GridDECOR{CellSize: cell}}.Deploy(mRef, rng.New(seed), Options{})
		got := GridDECOR{CellSize: cell, Workers: workers}.Deploy(mTiled, rng.New(seed), Options{})
		assertSameResult(t, "fuzz tiled grid", ref, got)

		// The centralized half first removes a seeded subset of the
		// initial sensors from both maps, so the tree starts from holes
		// as well as from never-covered regions.
		mRefC := parityMap(seed, k)
		mTiledC := tiledParityMap(seed, k, opt)
		r := rng.New(seed ^ 0x5eed)
		for _, id := range mRefC.SensorIDs() {
			if r.Intn(3) == 0 {
				mRefC.RemoveSensor(id)
				mTiledC.RemoveSensor(id)
			}
		}
		refC := centralizedRescan{}.Deploy(mRefC, rng.New(seed), Options{})
		gotC := Centralized{Workers: workers}.Deploy(mTiledC, rng.New(seed), Options{})
		assertSameResult(t, "fuzz tiled centralized", refC, gotC)
	})
}
