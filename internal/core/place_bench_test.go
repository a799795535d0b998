package core

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/index"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// Large-field placement benchmarks (ROADMAP item 4): fields of 10^5 and
// 10^6 sample points at a fixed density of 0.2 pts/unit², rs = 4
// (~10 points per sensing disk), k = 1, with n/40 random initial
// sensors. The 10^6 size is gated behind DECOR_PLACE_LARGE=1 so the
// `make check` bench smoke (-benchtime=1x over everything) stays fast;
// `make bench-json` sets it when refreshing BENCH_core.json.

// placeScenario caches the expensive immutable pieces of one field size
// — points, prototype maps, shared neighborhood builds — so benchmark
// iterations only pay for Clone + Deploy.
type placeScenario struct {
	n      int
	field  geom.Rect
	pts    []geom.Point
	nb     index.NeighborhoodCache
	protos map[string]*coverage.Map
}

var (
	placeMu        sync.Mutex
	placeScenarios = map[int]*placeScenario{}
)

// placeDensity is points per unit²; side = sqrt(n / placeDensity).
const placeDensity = 0.2

func getPlaceScenario(n int) *placeScenario {
	placeMu.Lock()
	defer placeMu.Unlock()
	if s, ok := placeScenarios[n]; ok {
		return s
	}
	s := &placeScenario{
		n:      n,
		protos: map[string]*coverage.Map{},
	}
	s.field = geom.Square(math.Sqrt(float64(n) / placeDensity))
	s.pts = lowdisc.Halton{}.Points(n, s.field)
	placeScenarios[n] = s
	return s
}

// tiledProto returns a cached prototype map with the scenario's initial
// sensors, built once per tile-options variant. All variants share one
// neighborhood cache: the adjacency depends only on the points.
func (s *placeScenario) tiledProto(opt coverage.TileOptions) *coverage.Map {
	key := fmt.Sprintf("tiled/%d/%d", opt.TilePoints, opt.MaxResidentTiles)
	placeMu.Lock()
	defer placeMu.Unlock()
	if m, ok := s.protos[key]; ok {
		return m
	}
	m := coverage.NewTiled(s.field, s.pts, 4, 1, opt)
	m.ShareNeighborhoods(&s.nb)
	r := rng.New(99)
	for id := 0; id < s.n/40; id++ {
		m.AddSensor(id, r.PointInRect(s.field))
	}
	// Force the rs=4 point adjacency now: it is lazily built on first use
	// and shared across variants, so without this the first benchmarked
	// Deploy would pay for it alone.
	m.PointNeighborhoods(4)
	s.protos[key] = m
	return m
}

// BenchmarkPlace deploys grid-small DECOR (and the centralized
// baseline) to full 1-coverage on large fields:
//
//   - grid-seq: the default configuration, GridDECOR{CellSize: 5} on a
//     New map (tile engine inline).
//   - grid-par4: Workers=4 (decisions scored across cells
//     concurrently, scatter tile-partitioned). Identical placements;
//     wall-clock scales with available cores.
//   - grid-par4-resident: grid-par4 under a resident-page budget of
//     half the tiles, proving field size is not bound by resident
//     count memory.
//   - centralized-tiled: the global greedy over its tournament tree.
func BenchmarkPlace(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		name := map[int]string{100_000: "pts=1e5", 1_000_000: "pts=1e6"}[n]
		b.Run(name, func(b *testing.B) {
			if n >= 1_000_000 && os.Getenv("DECOR_PLACE_LARGE") == "" {
				b.Skip("set DECOR_PLACE_LARGE=1 to run the 1e6-point benchmarks")
			}
			s := getPlaceScenario(n)
			variants := []struct {
				name string
				run  func(b *testing.B)
			}{
				{"grid-seq", func(b *testing.B) {
					benchDeployClone(b, s.tiledProto(coverage.TileOptions{}),
						GridDECOR{CellSize: 5}, 0)
				}},
				{"grid-par4", func(b *testing.B) {
					benchDeployClone(b, s.tiledProto(coverage.TileOptions{}),
						GridDECOR{CellSize: 5, Workers: 4}, 0)
				}},
				{"grid-par4-resident", func(b *testing.B) {
					proto := s.tiledProto(coverage.TileOptions{})
					limit := proto.Tiles().NumTiles() / 2
					benchDeployClone(b, s.tiledProto(coverage.TileOptions{MaxResidentTiles: limit}),
						GridDECOR{CellSize: 5, Workers: 4}, limit)
				}},
				{"centralized-tiled", func(b *testing.B) {
					benchDeployClone(b, s.tiledProto(coverage.TileOptions{}),
						Centralized{Workers: 4}, 0)
				}},
			}
			for _, v := range variants {
				b.Run(v.name, v.run)
			}
		})
	}
}

// benchDeployClone deploys meth on fresh clones of proto. residentMax,
// when non-zero, is asserted as an upper bound on materialized tiles
// after the run — the streaming guarantee the -max-resident-tiles knob
// exposes.
func benchDeployClone(b *testing.B, proto *coverage.Map, meth Method, residentMax int) {
	b.ReportAllocs()
	// proto was built lazily in the caller's argument expression; without
	// the GC + reset the first variant of each size would absorb the whole
	// one-time scenario setup (point generation, CSR build, initial
	// sensors) and the collection debt it leaves behind.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := proto.Clone()
		b.StartTimer()
		res := meth.Deploy(m, rng.New(7), Options{})
		b.StopTimer()
		if !m.FullyCovered() {
			b.Fatalf("deploy left %d deficient points", m.NumDeficient())
		}
		if res.Interrupted || res.Capped {
			b.Fatalf("unexpected interrupted/capped run")
		}
		if residentMax > 0 && m.Tiles().Resident() > residentMax {
			b.Fatalf("resident tiles %d exceed bound %d", m.Tiles().Resident(), residentMax)
		}
		b.StartTimer()
	}
}

// TestPlaceLargeSmoke is the `make bench-large` CI smoke: a downscaled
// 1e5-point deployment, run under -race, asserting the parallel
// conflict-resolution path matches the sequential tiled path placement
// for placement and respects a resident-tile budget. Gated behind
// DECOR_BENCH_LARGE=1 so the regular test suite stays fast.
func TestPlaceLargeSmoke(t *testing.T) {
	if os.Getenv("DECOR_BENCH_LARGE") == "" {
		t.Skip("set DECOR_BENCH_LARGE=1 to run the large placement smoke")
	}
	s := getPlaceScenario(100_000)
	limit := 0
	seq := s.tiledProto(coverage.TileOptions{}).Clone()
	par := s.tiledProto(coverage.TileOptions{}).Clone()
	resSeq := GridDECOR{CellSize: 5, Workers: 1}.Deploy(seq, rng.New(7), Options{})
	resPar := GridDECOR{CellSize: 5, Workers: 4}.Deploy(par, rng.New(7), Options{})
	if len(resSeq.Placed) == 0 {
		t.Fatal("sequential run placed nothing")
	}
	if len(resSeq.Placed) != len(resPar.Placed) {
		t.Fatalf("placement count diverges: seq %d, par %d", len(resSeq.Placed), len(resPar.Placed))
	}
	for i := range resSeq.Placed {
		if resSeq.Placed[i] != resPar.Placed[i] {
			t.Fatalf("placement %d diverges: seq %+v, par %+v", i, resSeq.Placed[i], resPar.Placed[i])
		}
	}
	if resSeq.Messages != resPar.Messages || resSeq.Rounds != resPar.Rounds {
		t.Fatalf("messages/rounds diverge: seq %d/%d, par %d/%d",
			resSeq.Messages, resSeq.Rounds, resPar.Messages, resPar.Rounds)
	}
	// Resident-budget variant: same deployment under a page budget of a
	// quarter of the tiles.
	proto := s.tiledProto(coverage.TileOptions{})
	limit = proto.Tiles().NumTiles() / 4
	bounded := s.tiledProto(coverage.TileOptions{MaxResidentTiles: limit}).Clone()
	resB := GridDECOR{CellSize: 5, Workers: 4}.Deploy(bounded, rng.New(7), Options{})
	if len(resB.Placed) != len(resSeq.Placed) {
		t.Fatalf("bounded run placement count diverges: %d vs %d", len(resB.Placed), len(resSeq.Placed))
	}
	if got := bounded.Tiles().Resident(); got > limit {
		t.Fatalf("resident tiles %d exceed budget %d", got, limit)
	}
	if !bounded.FullyCovered() {
		t.Fatalf("bounded run left %d deficient points", bounded.NumDeficient())
	}
}
