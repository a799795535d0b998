// Tiled coverage-count storage, the backing of every coverage.Map
// (DESIGN.md §13).
//
// A flat []int of counts is 8 MB of sparsely touched ints at 10^6
// points, streamed by the placement hot loop with poor locality and tied
// to resident memory. The TileStore keeps cache-dense uint8 count tiles
// instead:
//
//   - sample points are bucketed into square tiles sized for a target
//     point count (default 64×64 = 4096 points per tile);
//   - each tile's counts live in one contiguous []uint8 page, allocated
//     lazily (an untouched tile is implicitly all-zero and costs nothing);
//   - counts saturate at 255 in the page, with an exact overflow sidecar
//     map so observable counts never lose precision;
//   - every tile carries a deficiency summary (number of points below
//     the requirement k), so "is this tile fully k-covered?" is O(1) —
//     the skip the tiled placement engines rely on;
//   - pages evict to a pluggable TileBacking under a resident limit, so
//     the count state of a field is no longer bound by resident memory.
//
// A TileStore, like the Map that owns it, is NOT safe for concurrent
// use: reads can fault evicted pages back in. The tile-parallel engines
// in internal/core honor this by touching the store only from their
// sequential sections and carrying private snapshots into parallel ones.
package coverage

import (
	"math"

	"decor/internal/geom"
	"decor/internal/obs"
)

// Cached instrument handles; the fault/evict path never touches the
// registry's name map.
var (
	obsTilesResident = obs.Default().Gauge(obs.CoreTilesResident)
	obsTileEvictions = obs.Default().Counter(obs.CoreTileEvictions)
)

// DefaultTilePoints is the target number of sample points per tile:
// 64×64, one 4 KiB count page — small enough that a placement disk
// touches only a handful of tiles, large enough that per-tile overheads
// (summaries, page headers) stay negligible.
const DefaultTilePoints = 4096

// TileOptions configures a tiled coverage store.
type TileOptions struct {
	// TilePoints is the target number of points per tile (0 =
	// DefaultTilePoints). Tiles are square regions of the field sized so
	// a uniform point set averages this many points each; actual tile
	// populations vary with the point distribution.
	TilePoints int
	// MaxResidentTiles bounds the number of materialized count pages
	// (0 = unlimited). When a fault would exceed it, the least recently
	// used page is evicted to Backing first.
	MaxResidentTiles int
	// Backing stores evicted pages (nil = an in-process MemBacking).
	// The interface is the streaming seam: a disk- or object-store
	// implementation plugs in here without touching the engines.
	Backing TileBacking
}

// TileBacking persists evicted count pages. Implementations must return
// exactly the bytes last stored for a tile. Load reports whether the
// tile has ever been stored; dst is len(tile) and pre-zeroed.
type TileBacking interface {
	Store(tile int, counts []uint8)
	Load(tile int, dst []uint8) bool
}

// MemBacking is the default in-process TileBacking. It exists to make
// eviction real (pages leave the store's working set and round-trip
// through the interface) and as the reference for external backings.
type MemBacking struct {
	pages map[int][]uint8
}

// Store implements TileBacking.
func (b *MemBacking) Store(tile int, counts []uint8) {
	if b.pages == nil {
		b.pages = make(map[int][]uint8)
	}
	pg := b.pages[tile]
	if cap(pg) < len(counts) {
		pg = make([]uint8, len(counts))
	}
	pg = pg[:len(counts)]
	copy(pg, counts)
	b.pages[tile] = pg
}

// Load implements TileBacking.
func (b *MemBacking) Load(tile int, dst []uint8) bool {
	pg, ok := b.pages[tile]
	if ok {
		copy(dst, pg)
	}
	return ok
}

// Page residency states.
const (
	tileZero    uint8 = iota // never materialized: implicitly all-zero
	tileLoaded               // resident page in pages[t]
	tileEvicted              // page serialized to the backing
)

// TileStore is the tiled count state of one field. See the package
// comment in this file for the design; construct via NewTiled.
type TileStore struct {
	bounds     geom.Rect
	side       float64 // tile edge length in field units
	cols, rows int
	k          int

	// Immutable point geometry, shared by clones.
	tileOf []int32 // point -> tile
	local  []int32 // point -> offset within the tile's page
	start  []int32 // CSR offsets: tile t owns order[start[t]:start[t+1]]
	order  []int32 // tile-major point indices, ascending within each tile

	pages [][]uint8 // per-tile count pages; nil unless tileLoaded
	state []uint8
	def   []int32 // per-tile points with count < k
	defT  int     // total deficient points

	// overflow holds count-255 for saturated points, keyed by point
	// index, so counts stay exact past the uint8 range.
	overflow map[int32]int

	maxResident int
	resident    int
	backing     TileBacking
	lastUse     []int64
	clock       int64
}

// newTileStore builds the store for pts over bounds with requirement k.
func newTileStore(bounds geom.Rect, pts []geom.Point, k int, opt TileOptions) *TileStore {
	target := opt.TilePoints
	if target <= 0 {
		target = DefaultTilePoints
	}
	n := len(pts)
	area := bounds.W() * bounds.H()
	side := math.Sqrt(area * float64(target) / math.Max(float64(n), 1))
	if side <= 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		side = math.Max(bounds.W(), bounds.H())
	}
	if side <= 0 {
		side = 1
	}
	cols := int(math.Ceil(bounds.W()/side)) + 1
	rows := int(math.Ceil(bounds.H()/side)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	s := &TileStore{
		bounds:      bounds,
		side:        side,
		cols:        cols,
		rows:        rows,
		k:           k,
		tileOf:      make([]int32, n),
		local:       make([]int32, n),
		start:       make([]int32, cols*rows+1),
		order:       make([]int32, n),
		pages:       make([][]uint8, cols*rows),
		state:       make([]uint8, cols*rows),
		def:         make([]int32, cols*rows),
		defT:        n,
		overflow:    make(map[int32]int),
		maxResident: opt.MaxResidentTiles,
		backing:     opt.Backing,
		lastUse:     make([]int64, cols*rows),
	}
	if s.backing == nil {
		s.backing = &MemBacking{}
	}
	// Bucket the points tile-major. Filling in ascending point order
	// leaves every tile's list ascending, which the engines rely on for
	// lowest-index tie-breaking.
	counts := make([]int32, cols*rows)
	for i, p := range pts {
		t := s.tileIdx(p)
		s.tileOf[i] = int32(t)
		counts[t]++
	}
	off := int32(0)
	for t, c := range counts {
		s.start[t] = off
		s.def[t] = c
		off += c
	}
	s.start[len(counts)] = off
	copy(counts, s.start[:len(counts)]) // reuse as per-tile write cursor
	for i := range pts {
		t := s.tileOf[i]
		s.local[i] = counts[t] - s.start[t]
		s.order[counts[t]] = int32(i)
		counts[t]++
	}
	return s
}

func (s *TileStore) tileIdx(p geom.Point) int {
	cx := int((p.X - s.bounds.Min.X) / s.side)
	cy := int((p.Y - s.bounds.Min.Y) / s.side)
	if cx < 0 {
		cx = 0
	} else if cx >= s.cols {
		cx = s.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= s.rows {
		cy = s.rows - 1
	}
	return cy*s.cols + cx
}

// NumTiles returns the number of tiles (including empty ones).
func (s *TileStore) NumTiles() int { return s.cols * s.rows }

// TileSide returns the tile edge length in field units.
func (s *TileStore) TileSide() float64 { return s.side }

// TileOf returns the tile containing sample point i.
func (s *TileStore) TileOf(i int) int { return int(s.tileOf[i]) }

// TileMap exposes the point→tile assignment as a shared read-only
// slice, for hot loops that filter scatter updates by tile.
func (s *TileStore) TileMap() []int32 { return s.tileOf }

// TilePoints returns tile t's sample-point indices, ascending. The
// slice aliases shared immutable state: callers must not modify it.
func (s *TileStore) TilePoints(t int) []int32 {
	return s.order[s.start[t]:s.start[t+1]]
}

// DeficientInTile returns the number of tile t's points with count < k
// — the O(1) "is this tile fully covered?" summary.
func (s *TileStore) DeficientInTile(t int) int { return int(s.def[t]) }

// MinCount returns the minimum coverage count over tile t's points
// (0 for an empty tile). Unlike DeficientInTile it scans the page; it
// exists for diagnostics, not the hot path.
func (s *TileStore) MinCount(t int) int {
	n := int(s.start[t+1] - s.start[t])
	if n == 0 {
		return 0
	}
	if s.state[t] == tileZero {
		return 0
	}
	pg := s.page(t)
	min := int(pg[0])
	for _, c := range pg[1:] {
		if int(c) < min {
			min = int(c)
		}
	}
	if min == 255 {
		// Saturated minimum: consult the sidecar for the true value.
		min = math.MaxInt
		for _, i := range s.TilePoints(t) {
			if c := s.Count(int(i)); c < min {
				min = c
			}
		}
	}
	return min
}

// Deficient returns the total number of points with count < k.
func (s *TileStore) Deficient() int { return s.defT }

// Resident returns the number of materialized count pages.
func (s *TileStore) Resident() int { return s.resident }

// MaxResident returns the configured resident-page bound (0 =
// unlimited).
func (s *TileStore) MaxResident() int { return s.maxResident }

func (s *TileStore) stamp(t int) {
	s.clock++
	s.lastUse[t] = s.clock
}

// page returns tile t's count page, faulting it in (and evicting the
// LRU page past the resident limit) as needed.
func (s *TileStore) page(t int) []uint8 {
	if pg := s.pages[t]; pg != nil {
		s.stamp(t)
		return pg
	}
	pg := make([]uint8, s.start[t+1]-s.start[t])
	if s.state[t] == tileEvicted {
		s.backing.Load(t, pg)
	}
	s.pages[t] = pg
	s.state[t] = tileLoaded
	s.resident++
	s.stamp(t)
	if s.maxResident > 0 && s.resident > s.maxResident {
		s.evictLRU(t)
	}
	obsTilesResident.Set(float64(s.resident))
	return pg
}

// evictLRU writes the least recently used resident page (≠ keep) to the
// backing and drops it.
func (s *TileStore) evictLRU(keep int) {
	victim, oldest := -1, int64(math.MaxInt64)
	for t, st := range s.state {
		if st != tileLoaded || t == keep {
			continue
		}
		if s.lastUse[t] < oldest {
			victim, oldest = t, s.lastUse[t]
		}
	}
	if victim < 0 {
		return // only the kept page is resident; nothing to evict
	}
	s.backing.Store(victim, s.pages[victim])
	s.pages[victim] = nil
	s.state[victim] = tileEvicted
	s.resident--
	obsTileEvictions.Add(1)
}

// Count returns the exact coverage count of point i. Reading a
// never-touched tile is free (no page materializes).
func (s *TileStore) Count(i int) int {
	t := int(s.tileOf[i])
	pg := s.pages[t]
	if pg == nil {
		if s.state[t] == tileZero {
			return 0
		}
		pg = s.page(t)
	}
	c := int(pg[s.local[i]])
	if c == 255 {
		c += s.overflow[int32(i)]
	}
	return c
}

// Inc increments point i's count, maintaining the tile deficiency
// summaries, and returns the new count.
func (s *TileStore) Inc(i int) int {
	t := int(s.tileOf[i])
	pg := s.page(t)
	l := s.local[i]
	var c int
	if pg[l] == 255 {
		s.overflow[int32(i)]++
		c = 255 + s.overflow[int32(i)]
	} else {
		pg[l]++
		c = int(pg[l])
	}
	if c == s.k {
		s.def[t]--
		s.defT--
	}
	return c
}

// Dec decrements point i's count and returns the new count. It panics
// on an already-zero count (a logic error: sensor bookkeeping and
// counts would have diverged).
func (s *TileStore) Dec(i int) int {
	t := int(s.tileOf[i])
	pg := s.page(t)
	l := s.local[i]
	var c int
	if ov := s.overflow[int32(i)]; ov > 0 {
		if ov == 1 {
			delete(s.overflow, int32(i))
		} else {
			s.overflow[int32(i)] = ov - 1
		}
		c = 255 + ov - 1
	} else {
		if pg[l] == 0 {
			panic("coverage: tile count underflow")
		}
		pg[l]--
		c = int(pg[l])
	}
	if c == s.k-1 {
		s.def[t]++
		s.defT++
	}
	return c
}

// ForEachCount calls fn(i, count) for every sample point in tile-major
// order. Each page is faulted at most once per call, so a full scan
// under a resident limit never thrashes the backing. Iteration order is
// NOT ascending point index across tiles (it is within each tile);
// order-sensitive callers must sort what they collect.
func (s *TileStore) ForEachCount(fn func(i, c int)) {
	for t := 0; t < len(s.def); t++ {
		pts := s.TilePoints(t)
		if len(pts) == 0 {
			continue
		}
		if s.state[t] == tileZero {
			for _, i := range pts {
				fn(int(i), 0)
			}
			continue
		}
		pg := s.page(t)
		for l, i := range pts {
			c := int(pg[l])
			if c == 255 {
				c += s.overflow[i]
			}
			fn(int(i), c)
		}
	}
}

// CountsInto writes every point's exact count into dst (indexed by
// point), scanning tile-major so each page faults at most once.
func (s *TileStore) CountsInto(dst []int) {
	s.ForEachCount(func(i, c int) { dst[i] = c })
}

// SetK retunes the deficiency summaries for a new requirement. Evicted
// pages are inspected through a scratch buffer without disturbing
// residency; saturated entries resolve through the overflow sidecar, so
// the summaries are exact for every k.
func (s *TileStore) SetK(k int) {
	s.k = k
	s.defT = 0
	var scratch []uint8
	for t := range s.def {
		n := int(s.start[t+1] - s.start[t])
		if n == 0 {
			s.def[t] = 0
			continue
		}
		var pg []uint8
		switch s.state[t] {
		case tileZero:
			// All counts zero: every point is deficient for k >= 1.
			s.def[t] = int32(n)
			s.defT += n
			continue
		case tileLoaded:
			pg = s.pages[t]
		case tileEvicted:
			if cap(scratch) < n {
				scratch = make([]uint8, n)
			}
			pg = scratch[:n]
			for j := range pg {
				pg[j] = 0
			}
			s.backing.Load(t, pg)
		}
		d := int32(0)
		pts := s.TilePoints(t)
		for l, c := range pg {
			n := int(c)
			if n == 255 {
				n += s.overflow[pts[l]]
			}
			if n < k {
				d++
			}
		}
		s.def[t] = d
		s.defT += int(d)
	}
}

// VisitTilesInRect calls fn(t) for every tile whose square overlaps the
// closed rectangle r — a superset of the tiles containing points in any
// region inside r, which is what scatter-invalidation needs (visiting
// an extra tile is harmless; missing one is not).
func (s *TileStore) VisitTilesInRect(r geom.Rect, fn func(t int)) {
	x0 := int((r.Min.X - s.bounds.Min.X) / s.side)
	x1 := int((r.Max.X - s.bounds.Min.X) / s.side)
	y0 := int((r.Min.Y - s.bounds.Min.Y) / s.side)
	y1 := int((r.Max.Y - s.bounds.Min.Y) / s.side)
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= s.cols {
		x1 = s.cols - 1
	}
	if y1 >= s.rows {
		y1 = s.rows - 1
	}
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			fn(cy*s.cols + cx)
		}
	}
}

// VisitTilesInDisk calls fn(t) for every tile whose square overlaps the
// bounding box of the disk — the tiles a sensing disk centered at c
// with radius r can touch.
func (s *TileStore) VisitTilesInDisk(c geom.Point, r float64, fn func(t int)) {
	s.VisitTilesInRect(geom.Rect{
		Min: geom.Point{X: c.X - r, Y: c.Y - r},
		Max: geom.Point{X: c.X + r, Y: c.Y + r},
	}, fn)
}

// Clone returns an independent copy. Immutable geometry (tile
// assignment, CSR order) is shared; pages, summaries and the overflow
// sidecar are copied. The clone gets a fresh MemBacking — evicted pages
// are pulled through the original's backing during the copy — and
// inherits the resident limit.
func (s *TileStore) Clone() *TileStore {
	c := &TileStore{
		bounds:      s.bounds,
		side:        s.side,
		cols:        s.cols,
		rows:        s.rows,
		k:           s.k,
		tileOf:      s.tileOf,
		local:       s.local,
		start:       s.start,
		order:       s.order,
		pages:       make([][]uint8, len(s.pages)),
		state:       make([]uint8, len(s.state)),
		def:         append([]int32(nil), s.def...),
		defT:        s.defT,
		overflow:    make(map[int32]int, len(s.overflow)),
		maxResident: s.maxResident,
		backing:     &MemBacking{},
		lastUse:     make([]int64, len(s.lastUse)),
	}
	for i, ov := range s.overflow {
		c.overflow[i] = ov
	}
	for t, st := range s.state {
		switch st {
		case tileZero:
			// stays zero
		case tileLoaded:
			c.pages[t] = append([]uint8(nil), s.pages[t]...)
			c.state[t] = tileLoaded
			c.resident++
		case tileEvicted:
			n := int(s.start[t+1] - s.start[t])
			pg := make([]uint8, n)
			s.backing.Load(t, pg)
			c.backing.Store(t, pg)
			c.state[t] = tileEvicted
		}
	}
	// Re-enforce the resident bound (the copy order above ignores it).
	for c.maxResident > 0 && c.resident > c.maxResident {
		c.evictLRU(-1)
	}
	return c
}
