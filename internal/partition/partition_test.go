package partition

import (
	"reflect"
	"sort"
	"testing"

	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

func TestNewGridDimensions(t *testing.T) {
	g := NewGrid(geom.Square(100), 5)
	if g.Cols() != 20 || g.Rows() != 20 || g.NumCells() != 400 {
		t.Errorf("5x5 grid dims = %dx%d", g.Cols(), g.Rows())
	}
	g = NewGrid(geom.Square(100), 10)
	if g.NumCells() != 100 {
		t.Errorf("10x10 grid cells = %d", g.NumCells())
	}
	// Non-divisible: 100/7 -> 15 columns.
	g = NewGrid(geom.Square(100), 7)
	if g.Cols() != 15 {
		t.Errorf("7-unit grid cols = %d, want 15", g.Cols())
	}
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero cell size should panic")
		}
	}()
	NewGrid(geom.Square(10), 0)
}

func TestCellIndexAndRect(t *testing.T) {
	g := NewGrid(geom.Square(100), 5)
	if got := g.CellIndex(geom.Pt(0, 0)); got != 0 {
		t.Errorf("CellIndex(0,0) = %d", got)
	}
	if got := g.CellIndex(geom.Pt(7, 3)); got != 1 {
		t.Errorf("CellIndex(7,3) = %d", got)
	}
	if got := g.CellIndex(geom.Pt(3, 7)); got != 20 {
		t.Errorf("CellIndex(3,7) = %d", got)
	}
	// Boundary: the field max corner belongs to the last cell.
	if got := g.CellIndex(geom.Pt(100, 100)); got != 399 {
		t.Errorf("CellIndex(100,100) = %d", got)
	}
	// Outside points clamp.
	if got := g.CellIndex(geom.Pt(-5, -5)); got != 0 {
		t.Errorf("CellIndex(-5,-5) = %d", got)
	}
	r := g.CellRect(21)
	if !r.Min.Eq(geom.Pt(5, 5)) || !r.Max.Eq(geom.Pt(10, 10)) {
		t.Errorf("CellRect(21) = %v", r)
	}
}

func TestCellRectTiling(t *testing.T) {
	g := NewGrid(geom.Square(100), 7) // non-divisible tiling
	total := 0.0
	for i := 0; i < g.NumCells(); i++ {
		total += g.CellRect(i).Area()
	}
	if diff := total - 10000; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("cells tile to %v, want 10000", total)
	}
}

func TestNeighbors(t *testing.T) {
	g := NewGrid(geom.Square(100), 10) // 10x10 cells
	// Corner cell 0: 3 neighbors.
	if n := g.Neighbors(0); len(n) != 3 {
		t.Errorf("corner neighbors = %v", n)
	}
	// Edge cell 5: 5 neighbors.
	if n := g.Neighbors(5); len(n) != 5 {
		t.Errorf("edge neighbors = %v", n)
	}
	// Interior cell 55: 8 neighbors.
	n := g.Neighbors(55)
	if len(n) != 8 {
		t.Errorf("interior neighbors = %v", n)
	}
	want := []int{44, 45, 46, 54, 56, 64, 65, 66}
	for i := range want {
		if n[i] != want[i] {
			t.Errorf("interior neighbors = %v, want %v", n, want)
			break
		}
	}
}

func TestAssignPoints(t *testing.T) {
	g := NewGrid(geom.Square(100), 5)
	pts := lowdisc.Halton{}.Points(2000, geom.Square(100))
	cells := g.AssignPoints(pts)
	total := 0
	for ci, idxs := range cells {
		r := g.CellRect(ci)
		for _, i := range idxs {
			if !r.Contains(pts[i]) {
				t.Fatalf("point %v assigned to wrong cell %v", pts[i], r)
			}
		}
		total += len(idxs)
	}
	if total != 2000 {
		t.Errorf("assigned %d points, want 2000", total)
	}
	// Lists are ascending views into one array, capped at their own
	// end so an append reallocates instead of overwriting the next.
	for ci, idxs := range cells {
		if !sort.IntsAreSorted(idxs) {
			t.Fatalf("cell %d list not ascending: %v", ci, idxs)
		}
		if cap(idxs) != len(idxs) {
			t.Fatalf("cell %d list has spare capacity %d", ci, cap(idxs)-len(idxs))
		}
	}
}

func TestNeighborLists(t *testing.T) {
	g := NewGrid(geom.Square(100), 7) // 15x15, non-divisible
	lists := g.NeighborLists()
	if len(lists) != g.NumCells() {
		t.Fatalf("%d lists for %d cells", len(lists), g.NumCells())
	}
	for c, l := range lists {
		if want := g.Neighbors(c); !reflect.DeepEqual(l, want) {
			t.Fatalf("cell %d: NeighborLists %v, Neighbors %v", c, l, want)
		}
		if cap(l) != len(l) {
			t.Fatalf("cell %d list has spare capacity %d", c, cap(l)-len(l))
		}
	}
}

func TestMaxLeaderDistance(t *testing.T) {
	g := NewGrid(geom.Square(100), 5)
	// Paper: rc = 10·sqrt(2) ≈ 14.14 for 5x5 cells.
	if got := g.MaxLeaderDistance(); got < 14.14 || got > 14.15 {
		t.Errorf("MaxLeaderDistance = %v", got)
	}
}

func TestVoronoiBasics(t *testing.T) {
	field := geom.Square(100)
	pts := []geom.Point{{X: 10, Y: 10}, {X: 20, Y: 10}, {X: 90, Y: 90}}
	v := NewVoronoi(field, pts, 15)
	if v.NumPoints() != 3 {
		t.Fatalf("NumPoints = %d", v.NumPoints())
	}
	if len(v.Orphans()) != 3 {
		t.Error("all points should start orphaned")
	}
	acq := v.AddSensor(1, geom.Pt(12, 10))
	if len(acq) != 2 || acq[0] != 0 || acq[1] != 1 {
		t.Errorf("acquired = %v", acq)
	}
	if v.Owner(2) != -1 {
		t.Error("far point should remain orphan")
	}
	// A closer sensor steals point 1.
	acq = v.AddSensor(2, geom.Pt(19, 10))
	if len(acq) != 1 || acq[0] != 1 {
		t.Errorf("steal acquired = %v", acq)
	}
	if v.Owner(1) != 2 || v.Owner(0) != 1 {
		t.Errorf("owners = %d %d", v.Owner(0), v.Owner(1))
	}
	if got := v.OwnedPoints(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("OwnedPoints(1) = %v", got)
	}
	if ok, msg := v.CheckInvariants(); !ok {
		t.Error(msg)
	}
}

func TestVoronoiTieBreaksByID(t *testing.T) {
	field := geom.Square(100)
	pts := []geom.Point{{X: 50, Y: 50}}
	v := NewVoronoi(field, pts, 20)
	v.AddSensor(7, geom.Pt(45, 50))
	v.AddSensor(3, geom.Pt(55, 50)) // same distance, lower id
	if v.Owner(0) != 3 {
		t.Errorf("tie should go to lower id, got %d", v.Owner(0))
	}
}

func TestVoronoiRemoveReassigns(t *testing.T) {
	field := geom.Square(100)
	pts := []geom.Point{{X: 10, Y: 10}}
	v := NewVoronoi(field, pts, 15)
	v.AddSensor(1, geom.Pt(11, 10))
	v.AddSensor(2, geom.Pt(15, 10))
	if v.Owner(0) != 1 {
		t.Fatalf("owner = %d", v.Owner(0))
	}
	if !v.RemoveSensor(1) {
		t.Fatal("remove failed")
	}
	if v.Owner(0) != 2 {
		t.Errorf("after removal owner = %d, want 2", v.Owner(0))
	}
	v.RemoveSensor(2)
	if v.Owner(0) != -1 {
		t.Error("point should be orphaned after all sensors removed")
	}
	if v.RemoveSensor(99) {
		t.Error("removing unknown sensor should report false")
	}
}

func TestVoronoiNeighbors(t *testing.T) {
	field := geom.Square(100)
	v := NewVoronoi(field, nil, 10)
	v.AddSensor(1, geom.Pt(50, 50))
	v.AddSensor(2, geom.Pt(55, 50))
	v.AddSensor(3, geom.Pt(75, 50))
	n := v.Neighbors(1)
	if len(n) != 1 || n[0] != 2 {
		t.Errorf("Neighbors(1) = %v", n)
	}
	if v.Neighbors(42) != nil {
		t.Error("unknown sensor should have nil neighbors")
	}
}

func TestVoronoiDuplicatePanics(t *testing.T) {
	v := NewVoronoi(geom.Square(10), nil, 5)
	v.AddSensor(1, geom.Pt(5, 5))
	defer func() {
		if recover() == nil {
			t.Error("duplicate sensor should panic")
		}
	}()
	v.AddSensor(1, geom.Pt(6, 6))
}

// Property: after a random add/remove workload, invariants hold and every
// owner is genuinely the nearest in-range sensor.
func TestVoronoiInvariantsUnderChurn(t *testing.T) {
	r := rng.New(31)
	field := geom.Square(100)
	pts := lowdisc.Halton{}.Points(400, field)
	v := NewVoronoi(field, pts, 12)
	alive := map[int]bool{}
	next := 0
	for step := 0; step < 300; step++ {
		if len(alive) == 0 || r.Float64() < 0.65 {
			v.AddSensor(next, r.PointInRect(field))
			alive[next] = true
			next++
		} else {
			for id := range alive {
				v.RemoveSensor(id)
				delete(alive, id)
				break
			}
		}
		if step%50 == 0 {
			if ok, msg := v.CheckInvariants(); !ok {
				t.Fatalf("step %d: %s", step, msg)
			}
		}
	}
	if ok, msg := v.CheckInvariants(); !ok {
		t.Fatal(msg)
	}
}
