package core

import (
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/index"
	"decor/internal/obs"
	"decor/internal/partition"
)

// Cached instrument handles so the placement hot path never touches the
// registry's name map.
var (
	obsCacheDeltas    = obs.Default().Counter(obs.CoreCacheDeltaUpdates)
	obsCacheFallbacks = obs.Default().Counter(obs.CoreCacheFallbacks)
)

// benefitCache maintains, for every sample point, the benefit (Eq. 1) a
// new sensor of radius rs placed there would have against the current
// round-start snapshot — VoronoiDECOR's incremental benefit state
// (DESIGN.md §8). Invariant, restored after every applyPlacement call:
//
//	benefit[i] = Σ_{j ∈ ball(i, rs)} max(k − snap[j], 0)
//
// where snap mirrors the map's coverage counts (the distributed rounds
// evaluate a round-start snapshot, and all mutations during a deployment
// flow through applyPlacement). A Voronoi node knows all points within
// rc of itself, so the perceived benefit depends on the evaluating node:
// the cached unrestricted benefit equals it whenever the candidate's
// whole ball lies inside the node's knowledge disk (d(candidate, node)
// ≤ rc − rs), and the rare boundary candidates fall back to an exact
// restricted evaluation (bestOwned).
//
// One placement's delta touches O(ball²) cached entries via the
// precomputed point neighborhoods instead of rescanning every candidate's
// ball each round, and allocates nothing.
type benefitCache struct {
	m       *coverage.Map
	rs      float64
	k       int
	nb      *index.Neighborhoods
	snap    []int
	benefit []int
	deltas  int64 // benefit entries touched; flushed to obs at Deploy end
}

// newBenefitCache builds the cache for new-sensor radius rs.
func newBenefitCache(m *coverage.Map, rs float64) *benefitCache {
	span := obs.StartSpan(obs.CoreCacheBuildSeconds)
	defer span.End()
	n := m.NumPoints()
	c := &benefitCache{
		m:       m,
		rs:      rs,
		k:       m.K(),
		nb:      m.PointNeighborhoods(rs),
		snap:    m.CountsInto(nil),
		benefit: make([]int, n),
	}
	for j := 0; j < n; j++ {
		if d := c.k - c.snap[j]; d > 0 {
			for _, i := range c.nb.At(j) {
				c.benefit[i] += d
			}
		}
	}
	return c
}

// applyPlacement folds one new sensor of radius rs placed at sample
// point ptIdx into the snapshot and the cached benefits. Call it once per
// placement, in any order within a round — the resulting state equals a
// rebuild against the post-round counts.
func (c *benefitCache) applyPlacement(ptIdx int) {
	for _, jj := range c.nb.At(ptIdx) {
		j := int(jj)
		if c.snap[j] < c.k {
			// The point's deficit shrinks by one, so every candidate
			// whose ball contains it loses one benefit.
			for _, i := range c.nb.At(j) {
				c.benefit[i]--
			}
			c.deltas += int64(len(c.nb.At(j)))
		}
		c.snap[j]++
	}
}

// flush publishes the accumulated delta count to the default registry.
// Called once per Deploy so the hot loop stays atomic-free.
func (c *benefitCache) flush() {
	if c.deltas > 0 {
		obsCacheDeltas.Add(c.deltas)
		c.deltas = 0
	}
}

// bestOwned returns the deficient point owned by Voronoi node id at
// nodePos (communication radius rc) with maximum perceived benefit, ties
// broken by lowest point index. The owned candidates are visited in
// whatever order the ownership set yields — determinism comes from the
// explicit tie-break below. Candidates whose ball provably lies inside
// the node's knowledge disk read the cache; the boundary band is
// evaluated exactly against the snapshot, restricted to the node's
// knowledge — so the result is identical to the full rescan.
func (c *benefitCache) bestOwned(nodePos geom.Point, rc float64, vor *partition.Voronoi, id int) (idx, benefit int, ok bool) {
	fastR := rc - c.rs - 1e-9 // slack absorbs float rounding at the rim
	fast2 := fastR * fastR
	if fastR < 0 {
		fast2 = -1
	}
	rc2 := rc * rc
	bestV, bestIdx := 0, -1
	fallbacks := int64(0)
	vor.VisitOwnedPoints(id, func(i int) bool {
		if c.snap[i] >= c.k {
			return true
		}
		var b int
		if nodePos.Dist2(c.m.Point(i)) <= fast2 {
			b = c.benefit[i]
		} else {
			fallbacks++
			b = 0
			for _, jj := range c.nb.At(i) {
				j := int(jj)
				if nodePos.Dist2(c.m.Point(j)) > rc2 {
					continue // outside the node's knowledge
				}
				if d := c.k - c.snap[j]; d > 0 {
					b += d
				}
			}
		}
		if b > bestV || (b == bestV && bestIdx >= 0 && i < bestIdx) {
			bestV, bestIdx = b, i
		}
		return true
	})
	if fallbacks > 0 {
		obsCacheFallbacks.Add(fallbacks)
	}
	if bestIdx < 0 {
		return 0, 0, false
	}
	return bestIdx, bestV, true
}
