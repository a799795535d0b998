package core

import (
	"fmt"
	"reflect"
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/partition"
	"decor/internal/rng"
)

// Differential tests: incremental benefit maintenance must be a pure
// optimization. For every scheme, seed, and k the shipped engine has to
// produce byte-identical results to the rescan oracle (oracle_test.go).

// parityMap builds a deterministic scenario: Halton sample points on a
// square field, random initial sensors.
func parityMap(seed uint64, k int) *coverage.Map {
	r := rng.New(seed)
	side := 35 + r.Float64()*15
	field := geom.Square(side)
	pts := lowdisc.Halton{}.Points(250+r.Intn(200), field)
	m := coverage.New(field, pts, 4, k)
	initial := 5 + r.Intn(40)
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	return m
}

// assertSameResult compares every deterministic field of two Results.
func assertSameResult(t *testing.T, label string, ref, got Result) {
	t.Helper()
	if !reflect.DeepEqual(ref.Placed, got.Placed) {
		n := len(ref.Placed)
		if len(got.Placed) < n {
			n = len(got.Placed)
		}
		for i := 0; i < n; i++ {
			if ref.Placed[i] != got.Placed[i] {
				t.Fatalf("%s: placement %d diverges: oracle %+v, engine %+v",
					label, i, ref.Placed[i], got.Placed[i])
			}
		}
		t.Fatalf("%s: placement count diverges: oracle %d, engine %d",
			label, len(ref.Placed), len(got.Placed))
	}
	if ref.Rounds != got.Rounds || ref.Seeded != got.Seeded || ref.Capped != got.Capped {
		t.Fatalf("%s: rounds/seeded/capped diverge: oracle %d/%d/%v, engine %d/%d/%v",
			label, ref.Rounds, ref.Seeded, ref.Capped, got.Rounds, got.Seeded, got.Capped)
	}
	if ref.Messages != got.Messages || !reflect.DeepEqual(ref.NodeMessages, got.NodeMessages) {
		t.Fatalf("%s: message accounting diverges: oracle %d, engine %d",
			label, ref.Messages, got.Messages)
	}
}

// TestGridCacheParity covers Sequential × cell size × k × Workers: the
// Sequential ablation runs on the same tile engine (first decision of
// each round only), and every worker count must match the oracle.
func TestGridCacheParity(t *testing.T) {
	for _, cell := range []float64{5, 10} {
		for _, seq := range []bool{false, true} {
			for k := 1; k <= 5; k++ {
				for seed := uint64(1); seed <= 4; seed++ {
					g := GridDECOR{CellSize: cell, Sequential: seq}
					ref := gridRescan{g}.Deploy(parityMap(seed, k), rng.New(seed), Options{})
					for _, w := range []int{0, 1, 4} {
						g.Workers = w
						got := g.Deploy(parityMap(seed, k), rng.New(seed), Options{})
						label := fmt.Sprintf("%s seq=%v k=%d seed=%d workers=%d", ref.Method, seq, k, seed, w)
						assertSameResult(t, label, ref, got)
					}
				}
			}
		}
	}
}

func TestVoronoiCacheParity(t *testing.T) {
	for _, rc := range []float64{8, 14.142135623730951} {
		for _, seq := range []bool{false, true} {
			for k := 1; k <= 5; k++ {
				for seed := uint64(1); seed <= 4; seed++ {
					v := VoronoiDECOR{Rc: rc, Sequential: seq}
					ref := voronoiRescan{v}.Deploy(parityMap(seed, k), rng.New(seed), Options{})
					got := v.Deploy(parityMap(seed, k), rng.New(seed), Options{})
					label := "voronoi " + ref.Method
					assertSameResult(t, label, ref, got)
				}
			}
		}
	}
}

// Heterogeneous new-sensor radius exercises the cache at rs != map default,
// including the Voronoi fast-path band at rc − rs.
func TestCacheParityHeterogeneousRs(t *testing.T) {
	for _, newRs := range []float64{2, 3, 6} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := GridDECOR{CellSize: 5, NewRs: newRs}
			ref := gridRescan{g}.Deploy(parityMap(seed, 2), rng.New(seed), Options{})
			got := g.Deploy(parityMap(seed, 2), rng.New(seed), Options{})
			assertSameResult(t, "grid newRs", ref, got)

			v := VoronoiDECOR{Rc: 8, NewRs: newRs}
			refV := voronoiRescan{v}.Deploy(parityMap(seed, 2), rng.New(seed), Options{})
			gotV := v.Deploy(parityMap(seed, 2), rng.New(seed), Options{})
			assertSameResult(t, "voronoi newRs", refV, gotV)
		}
	}
}

// Placement caps interact with the cache's applied-vs-decided distinction:
// decisions cut off by the cap must not leak into the snapshot.
func TestCacheParityWithCap(t *testing.T) {
	for _, capN := range []int{1, 3, 17} {
		opt := Options{MaxPlacements: capN}
		g := GridDECOR{CellSize: 5}
		ref := gridRescan{g}.Deploy(parityMap(11, 3), rng.New(11), opt)
		got := g.Deploy(parityMap(11, 3), rng.New(11), opt)
		assertSameResult(t, "grid cap", ref, got)

		v := VoronoiDECOR{Rc: 8}
		refV := voronoiRescan{v}.Deploy(parityMap(11, 3), rng.New(11), opt)
		gotV := v.Deploy(parityMap(11, 3), rng.New(11), opt)
		assertSameResult(t, "voronoi cap", refV, gotV)
	}
}

// benchDeployMap builds the benchmark scenario: the paper's 100×100
// field, 2500 Halton points, partially covered by initial sensors.
func benchDeployMap(k, initial int) *coverage.Map {
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(2500, field)
	m := coverage.New(field, pts, 4, k)
	r := rng.New(424242)
	for id := 0; id < initial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	return m
}

// BenchmarkBenefitRadius measures one round's worth of benefit
// evaluations — every leader/node picking its best deficient candidate on
// a partially covered field — through the rescan oracle's
// bestCandidateRadius vs the shipped incremental state: the grid tile
// engine's decide and the Voronoi benefit cache (DESIGN.md §8). The
// cached paths read precomputed state and allocate nothing.
func BenchmarkBenefitRadius(b *testing.B) {
	m := benchDeployMap(2, 120)
	rs := m.Rs()
	sink := 0

	// Grid bookkeeping: cells, membership and leaders for the initial
	// sensors.
	st := newGridState(m, 5, &Result{NodeMessages: map[int]int{}})

	// Voronoi bookkeeping: ownership for the initial sensors.
	pts := make([]geom.Point, m.NumPoints())
	for i := range pts {
		pts[i] = m.Point(i)
	}
	vor := partition.NewVoronoi(m.Field(), pts, 8)
	ids := m.SensorIDs()
	pos := make(map[int]geom.Point, len(ids))
	for _, id := range ids {
		p, _ := m.SensorPos(id)
		vor.AddSensor(id, p)
		pos[id] = p
	}

	b.Run("grid-rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := m.Counts()
			for _, c := range st.occ {
				perceive := func(i int) int {
					if st.cellOf[i] != c {
						return -1
					}
					return snap[i]
				}
				if idx, _, ok := bestCandidateRadius(m, rs, st.cells[c], perceive); ok {
					sink += idx
				}
			}
		}
	})
	b.Run("grid-cached", func(b *testing.B) {
		e := newTiledGrid(st, rs, false, 1, Options{})
		decided := e.decide(0, Options{}, nil) // sizes the slot and result buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decided = e.decide(0, Options{}, decided[:0])
			sink += len(decided)
		}
	})
	b.Run("voronoi-rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := m.Counts()
			for _, id := range ids {
				owned := vor.OwnedPoints(id)
				if len(owned) == 0 {
					continue
				}
				nodePos := pos[id]
				perceive := func(i int) int {
					if nodePos.Dist2(m.Point(i)) > 64 {
						return -1
					}
					return snap[i]
				}
				if idx, _, ok := bestCandidateRadius(m, rs, owned, perceive); ok {
					sink += idx
				}
			}
		}
	})
	b.Run("voronoi-cached", func(b *testing.B) {
		cache := newBenefitCache(m, rs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if vor.NumOwned(id) == 0 {
					continue
				}
				if idx, _, ok := cache.bestOwned(pos[id], 8, vor, id); ok {
					sink += idx
				}
			}
		}
	})
	_ = sink
}

// BenchmarkDeployAblation runs full deployments through the rescan
// oracles and the shipped engines — the end-to-end view of what
// incremental benefit maintenance buys, including its build cost.
func BenchmarkDeployAblation(b *testing.B) {
	for _, bc := range []struct {
		name string
		meth Method
	}{
		{"grid-rescan", gridRescan{GridDECOR{CellSize: 5}}},
		{"grid-cached", GridDECOR{CellSize: 5}},
		{"voronoi-rescan", voronoiRescan{VoronoiDECOR{Rc: 8}}},
		{"voronoi-cached", VoronoiDECOR{Rc: 8}},
		{"centralized-rescan", centralizedRescan{}},
		{"centralized-cached", Centralized{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := benchDeployMap(2, 30)
				b.StartTimer()
				bc.meth.Deploy(m, rng.New(7), Options{})
			}
		})
	}
}
