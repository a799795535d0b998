package coverage

import (
	"reflect"
	"sort"
	"testing"

	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// refStore is the reference coverage state: plain []int counts with a
// running deficiency total, updated by brute-force ball membership (the
// index's d² <= r² rule). Nothing in it is paged, saturated or
// summarized per tile, which makes it the differential oracle for every
// count-derived quantity the map exposes.
type refStore struct {
	pts       []geom.Point
	k         int
	counts    []int
	deficient int
	sensors   map[int]refSensor
}

type refSensor struct {
	p  geom.Point
	rs float64
}

func newRefStore(pts []geom.Point, k int) *refStore {
	return &refStore{pts: pts, k: k, counts: make([]int, len(pts)), deficient: len(pts), sensors: map[int]refSensor{}}
}

func (s *refStore) add(id int, p geom.Point, rs float64) {
	s.sensors[id] = refSensor{p, rs}
	for i, q := range s.pts {
		if q.Dist2(p) <= rs*rs {
			s.counts[i]++
			if s.counts[i] == s.k {
				s.deficient--
			}
		}
	}
}

func (s *refStore) remove(id int) {
	sn := s.sensors[id]
	delete(s.sensors, id)
	for i, q := range s.pts {
		if q.Dist2(sn.p) <= sn.rs*sn.rs {
			if s.counts[i] == s.k {
				s.deficient++
			}
			s.counts[i]--
		}
	}
}

func (s *refStore) setK(k int) {
	s.k = k
	s.deficient = 0
	for _, c := range s.counts {
		if c < k {
			s.deficient++
		}
	}
}

func (s *refStore) clone() *refStore {
	c := &refStore{pts: s.pts, k: s.k, counts: append([]int(nil), s.counts...), deficient: s.deficient, sensors: map[int]refSensor{}}
	for id, sn := range s.sensors {
		c.sensors[id] = sn
	}
	return c
}

func (s *refStore) coverageFrac(level int) float64 {
	if len(s.pts) == 0 {
		return 1
	}
	n := 0
	for _, c := range s.counts {
		if c >= level {
			n++
		}
	}
	return float64(n) / float64(len(s.pts))
}

func (s *refStore) uncovered() []int {
	var out []int
	for i, c := range s.counts {
		if c < s.k {
			out = append(out, i)
		}
	}
	return out
}

func (s *refStore) histogram() []int {
	maxC := 0
	for _, c := range s.counts {
		if c > maxC {
			maxC = c
		}
	}
	hist := make([]int, maxC+1)
	for _, c := range s.counts {
		hist[c]++
	}
	return hist
}

// redundant is RedundantSensors over the reference counts: repeated
// ascending-ID passes removing every sensor whose covered points all
// stay above k, restored afterwards.
func (s *refStore) redundant() []int {
	ids := make([]int, 0, len(s.sensors))
	for id := range s.sensors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	saved := map[int]refSensor{}
	var removed []int
	for progress := true; progress; {
		progress = false
		for _, id := range ids {
			sn, ok := s.sensors[id]
			if !ok {
				continue
			}
			red := true
			for i, q := range s.pts {
				if q.Dist2(sn.p) <= sn.rs*sn.rs && s.counts[i] <= s.k {
					red = false
					break
				}
			}
			if red {
				saved[id] = sn
				s.remove(id)
				removed = append(removed, id)
				progress = true
			}
		}
	}
	for _, id := range removed {
		s.add(id, saved[id].p, saved[id].rs)
	}
	sort.Ints(removed)
	return removed
}

// refPair builds a tiled map and its reference store over the same
// field. Tests keep TilePoints tiny so even a 400-point field spans many
// tiles and sensing disks routinely cross tile boundaries.
func refPair(n, k int, opt TileOptions) (*refStore, *Map) {
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(n, field)
	return newRefStore(pts, k), NewTiled(field, pts, 4, k, opt)
}

// assertSameState compares every observable count-derived quantity of
// the map against the reference store.
func assertSameState(t *testing.T, ref *refStore, m *Map) {
	t.Helper()
	if m.K() != ref.k {
		t.Fatalf("K: map %d, reference %d", m.K(), ref.k)
	}
	if got, want := m.NumDeficient(), ref.deficient; got != want {
		t.Fatalf("NumDeficient: map %d, reference %d", got, want)
	}
	if got, want := m.Counts(), ref.counts; !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts diverge: map %v, reference %v", got, want)
	}
	for i, want := range ref.counts {
		if got := m.Count(i); got != want {
			t.Fatalf("Count(%d): map %d, reference %d", i, got, want)
		}
	}
	if got, want := m.CoverageFrac(ref.k), ref.coverageFrac(ref.k); got != want {
		t.Fatalf("CoverageFrac: map %v, reference %v", got, want)
	}
	if got, want := m.UncoveredPoints(), ref.uncovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("UncoveredPoints: map %v, reference %v", got, want)
	}
	if got, want := m.CoverageHistogram(), ref.histogram(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CoverageHistogram: map %v, reference %v", got, want)
	}
}

// randomOps drives the map and the reference through an identical
// randomized add/remove/SetK sequence, checking every observable every
// 17 steps. Sensors land within spread of center with radii in
// [rsMin, rsMin+4); SetK draws from ks.
func randomOps(t *testing.T, ref *refStore, m *Map, seed uint64, steps int, center geom.Point, spread, rsMin float64, ks []int) {
	t.Helper()
	r := rng.New(seed)
	live := []int{}
	next := 0
	for step := 0; step < steps; step++ {
		switch {
		case len(live) > 0 && r.Bool(0.3):
			i := r.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if !m.RemoveSensor(id) {
				t.Fatalf("remove %d failed", id)
			}
			ref.remove(id)
		case r.Bool(0.1):
			k := ks[r.Intn(len(ks))]
			m.SetK(k)
			ref.setK(k)
		default:
			p := geom.Point{X: center.X + spread*(2*r.Float64()-1), Y: center.Y + spread*(2*r.Float64()-1)}
			rs := rsMin + 4*r.Float64()
			m.AddSensorRadius(next, p, rs)
			ref.add(next, p, rs)
			live = append(live, next)
			next++
		}
		if step%17 == 0 {
			assertSameState(t, ref, m)
		}
	}
	assertSameState(t, ref, m)
}

// TestTiledParityRandomOps checks the tiled store against the reference
// through a randomized add/remove/SetK workload, under the default
// layout, tiny tiles, and resident-page budgets.
func TestTiledParityRandomOps(t *testing.T) {
	for _, opt := range []TileOptions{
		{},
		{TilePoints: 16},
		{TilePoints: 16, MaxResidentTiles: 2},
		{TilePoints: 64, MaxResidentTiles: 1},
	} {
		ref, m := refPair(400, 2, opt)
		randomOps(t, ref, m, 7, 200, geom.Point{X: 25, Y: 25}, 25, 2, []int{1, 2, 3, 4})
		if got, want := m.RedundantSensors(), ref.redundant(); !reflect.DeepEqual(got, want) {
			t.Fatalf("RedundantSensors: map %v, reference %v", got, want)
		}
		assertSameState(t, ref, m) // RedundantSensors must restore state
		if max := opt.MaxResidentTiles; max > 0 && m.Tiles().Resident() > max {
			t.Fatalf("resident tiles %d exceed limit %d", m.Tiles().Resident(), max)
		}
	}
}

// TestTiledLargeK: requirements around and past the uint8 page range
// stay exact — deficiency transitions across the saturation point on
// Inc and Dec, and SetK resolving saturated entries (resident and
// evicted) through the overflow sidecar.
func TestTiledLargeK(t *testing.T) {
	for _, k := range []int{254, 255, 256, 300} {
		for _, opt := range []TileOptions{
			{TilePoints: 8},
			{TilePoints: 8, MaxResidentTiles: 1},
		} {
			field := geom.Square(10)
			pts := lowdisc.Halton{}.Points(60, field)
			ref, m := newRefStore(pts, k), NewTiled(field, pts, 4, k, opt)
			// Adds outpace removals by ~1/3 per step over a 4-unit
			// spread with radii >= 4, so counts climb from 0 to ~330 and
			// removals and SetK keep walking them back across k.
			randomOps(t, ref, m, uint64(k), 1000, geom.Point{X: 5, Y: 5}, 2, 4, []int{254, 255, 256, 300})
		}
	}
}

// TestTiledOverflowExact stacks enough sensors on one spot to push
// counts past the uint8 saturation point and checks counts stay exact
// through the overflow sidecar, including back down through removal.
func TestTiledOverflowExact(t *testing.T) {
	field := geom.Square(10)
	pts := lowdisc.Halton{}.Points(50, field)
	ref := newRefStore(pts, 1)
	tiled := NewTiled(field, pts, 4, 1, TileOptions{TilePoints: 8})
	center := geom.Point{X: 5, Y: 5}
	for id := 0; id < 300; id++ {
		ref.add(id, center, 4)
		tiled.AddSensor(id, center)
	}
	assertSameState(t, ref, tiled)
	for id := 0; id < 300; id += 2 {
		ref.remove(id)
		tiled.RemoveSensor(id)
	}
	assertSameState(t, ref, tiled)
	for id := 1; id < 300; id += 2 {
		ref.remove(id)
		tiled.RemoveSensor(id)
	}
	assertSameState(t, ref, tiled)
	if tiled.NumDeficient() != tiled.NumPoints() {
		t.Fatalf("expected all points deficient after removing everything")
	}
}

// TestTiledEvictionRoundTrip forces page eviction with a 1-page budget
// and verifies counts survive the backing round-trip.
func TestTiledEvictionRoundTrip(t *testing.T) {
	ref, tiled := refPair(300, 1, TileOptions{TilePoints: 8, MaxResidentTiles: 1})
	r := rng.New(3)
	for id := 0; id < 40; id++ {
		p := r.PointInRect(tiled.Field())
		ref.add(id, p, 4)
		tiled.AddSensor(id, p)
	}
	ts := tiled.Tiles()
	if ts.Resident() > 1 {
		t.Fatalf("resident %d with MaxResidentTiles=1", ts.Resident())
	}
	// Per-point reads in index order deliberately hop between tiles,
	// exercising fault/evict on nearly every access.
	for i := 0; i < tiled.NumPoints(); i++ {
		if got, want := tiled.Count(i), ref.counts[i]; got != want {
			t.Fatalf("point %d: tiled count %d, reference %d", i, got, want)
		}
	}
	assertSameState(t, ref, tiled)
}

// TestTiledCloneIndependent checks Clone copies tiled state deeply
// enough that the original and the clone evolve independently, even
// when some source pages are evicted at clone time.
func TestTiledCloneIndependent(t *testing.T) {
	ref, tiled := refPair(300, 2, TileOptions{TilePoints: 8, MaxResidentTiles: 2})
	r := rng.New(11)
	for id := 0; id < 30; id++ {
		p := r.PointInRect(tiled.Field())
		ref.add(id, p, 4)
		tiled.AddSensor(id, p)
	}
	refC, tiledC := ref.clone(), tiled.Clone()
	assertSameState(t, refC, tiledC)
	// Diverge the clones; originals must not move.
	p := geom.Point{X: 25, Y: 25}
	refC.add(1000, p, 4)
	tiledC.AddSensor(1000, p)
	assertSameState(t, refC, tiledC)
	assertSameState(t, ref, tiled)
	// And the other direction.
	ref.remove(0)
	tiled.RemoveSensor(0)
	assertSameState(t, ref, tiled)
	assertSameState(t, refC, tiledC)
}

// TestTiledZeroTilesStayCold verifies reading counts of an untouched
// region materializes no pages.
func TestTiledZeroTilesStayCold(t *testing.T) {
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(1000, field)
	tiled := NewTiled(field, pts, 4, 1, TileOptions{TilePoints: 16})
	for i := 0; i < tiled.NumPoints(); i++ {
		if tiled.Count(i) != 0 {
			t.Fatalf("fresh map has nonzero count at %d", i)
		}
	}
	if got := tiled.Tiles().Resident(); got != 0 {
		t.Fatalf("reading a fresh map materialized %d pages", got)
	}
	// One sensor touches only the tiles its disk overlaps.
	tiled.AddSensor(0, geom.Point{X: 50, Y: 50})
	if got, all := tiled.Tiles().Resident(), tiled.Tiles().NumTiles(); got == 0 || got >= all {
		t.Fatalf("one sensor materialized %d of %d pages", got, all)
	}
}

// TestTileGeometry sanity-checks the CSR point bucketing: every point
// in exactly one tile, ascending within the tile, consistent with
// TileOf, and VisitTilesInDisk covers the tiles of all points in range.
func TestTileGeometry(t *testing.T) {
	field := geom.Square(40)
	pts := lowdisc.Halton{}.Points(500, field)
	m := NewTiled(field, pts, 4, 1, TileOptions{TilePoints: 32})
	ts := m.Tiles()
	seen := make([]bool, m.NumPoints())
	for tl := 0; tl < ts.NumTiles(); tl++ {
		prev := int32(-1)
		for _, i := range ts.TilePoints(tl) {
			if i <= prev {
				t.Fatalf("tile %d point list not ascending: %d after %d", tl, i, prev)
			}
			prev = i
			if seen[i] {
				t.Fatalf("point %d in two tiles", i)
			}
			seen[i] = true
			if ts.TileOf(int(i)) != tl {
				t.Fatalf("TileOf(%d)=%d, listed in %d", i, ts.TileOf(int(i)), tl)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("point %d in no tile", i)
		}
	}
	// Disk enumeration covers the tile of every in-range point.
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		c := r.PointInRect(field)
		rad := 1 + 9*r.Float64()
		hit := map[int]bool{}
		ts.VisitTilesInDisk(c, rad, func(tl int) { hit[tl] = true })
		m.VisitPointsInBall(c, rad, func(i int, _ geom.Point) bool {
			if !hit[ts.TileOf(i)] {
				t.Fatalf("VisitTilesInDisk missed tile %d of in-range point %d", ts.TileOf(i), i)
			}
			return true
		})
	}
}
