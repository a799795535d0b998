package core

import (
	"testing"

	"decor/internal/coverage"
	"decor/internal/failure"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// newField builds the paper's field at a reduced scale for fast tests:
// 50×50 with 500 Halton points, rs = 4, plus nInitial random sensors.
func newField(t testing.TB, k, nInitial int, seed uint64) *coverage.Map {
	t.Helper()
	field := geom.Square(50)
	pts := lowdisc.Halton{}.Points(500, field)
	m := coverage.New(field, pts, 4, k)
	r := rng.New(seed)
	for id := 0; id < nInitial; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	return m
}

func allMethods() []Method {
	return []Method{
		Centralized{},
		RandomPlacement{},
		GridDECOR{CellSize: 5},
		GridDECOR{CellSize: 10},
		VoronoiDECOR{Rc: 8},
		VoronoiDECOR{Rc: 14.142135623730951},
	}
}

func TestAllMethodsReachFullCoverage(t *testing.T) {
	for _, k := range []int{1, 3} {
		for _, meth := range allMethods() {
			m := newField(t, k, 50, 1)
			res := meth.Deploy(m, rng.New(2), Options{})
			if !m.FullyCovered() {
				t.Errorf("k=%d %s: not fully covered after deploy", k, meth.Name())
			}
			if res.Capped {
				t.Errorf("k=%d %s: unexpectedly capped", k, meth.Name())
			}
			if res.NumPlaced() == 0 {
				t.Errorf("k=%d %s: placed nothing on an uncovered field", k, meth.Name())
			}
			// Every placement must be inside the field.
			for _, pl := range res.Placed {
				if !m.Field().Contains(pl.Pos) {
					t.Errorf("%s: placement %v outside field", meth.Name(), pl.Pos)
				}
			}
		}
	}
}

func TestDeployIsDeterministic(t *testing.T) {
	for _, meth := range allMethods() {
		m1 := newField(t, 2, 40, 7)
		m2 := newField(t, 2, 40, 7)
		r1 := meth.Deploy(m1, rng.New(9), Options{})
		r2 := meth.Deploy(m2, rng.New(9), Options{})
		if r1.NumPlaced() != r2.NumPlaced() || r1.Messages != r2.Messages {
			t.Fatalf("%s: non-deterministic run (%d/%d placed, %d/%d msgs)",
				meth.Name(), r1.NumPlaced(), r2.NumPlaced(), r1.Messages, r2.Messages)
		}
		for i := range r1.Placed {
			if !r1.Placed[i].Pos.Eq(r2.Placed[i].Pos) {
				t.Fatalf("%s: placement %d differs", meth.Name(), i)
			}
		}
	}
}

func TestDeployOnCoveredFieldIsNoop(t *testing.T) {
	for _, meth := range allMethods() {
		m := newField(t, 1, 0, 1)
		Centralized{}.Deploy(m, rng.New(1), Options{})
		if !m.FullyCovered() {
			t.Fatal("setup failed")
		}
		before := m.NumSensors()
		res := meth.Deploy(m, rng.New(2), Options{})
		if res.NumPlaced() != 0 || m.NumSensors() != before {
			t.Errorf("%s: placed %d sensors on a covered field", meth.Name(), res.NumPlaced())
		}
	}
}

func TestMaxPlacementsCaps(t *testing.T) {
	for _, meth := range allMethods() {
		m := newField(t, 3, 0, 1)
		res := meth.Deploy(m, rng.New(2), Options{MaxPlacements: 10})
		if !res.Capped {
			t.Errorf("%s: expected capped run", meth.Name())
		}
		if res.NumPlaced() > 10 {
			t.Errorf("%s: placed %d > cap", meth.Name(), res.NumPlaced())
		}
		if m.FullyCovered() {
			t.Errorf("%s: 10 sensors cannot 3-cover the test field", meth.Name())
		}
	}
}

func TestCentralizedRescanMatchesIncremental(t *testing.T) {
	m1 := newField(t, 3, 30, 5)
	m2 := newField(t, 3, 30, 5)
	inc := Centralized{}.Deploy(m1, rng.New(1), Options{})
	res := centralizedRescan{}.Deploy(m2, rng.New(1), Options{})
	if inc.NumPlaced() != res.NumPlaced() {
		t.Fatalf("incremental placed %d, rescan %d", inc.NumPlaced(), res.NumPlaced())
	}
	for i := range inc.Placed {
		if !inc.Placed[i].Pos.Eq(res.Placed[i].Pos) {
			t.Fatalf("placement %d differs: %v vs %v",
				i, inc.Placed[i].Pos, res.Placed[i].Pos)
		}
	}
}

// The paper's headline ordering (Fig. 8): centralized needs the fewest
// nodes, DECOR variants are close, random needs several times more.
func TestMethodEfficiencyOrdering(t *testing.T) {
	placed := map[string]int{}
	for _, meth := range allMethods() {
		total := 0
		for seed := uint64(1); seed <= 3; seed++ {
			m := newField(t, 2, 50, seed)
			res := meth.Deploy(m, rng.New(seed+10), Options{})
			total += res.NumPlaced()
		}
		placed[meth.Name()] = total
	}
	cent := placed["centralized"]
	rnd := placed["random"]
	if rnd < 2*cent {
		t.Errorf("random (%d) should need far more nodes than centralized (%d)", rnd, cent)
	}
	for _, name := range []string{"grid-small", "grid-big", "voronoi-small", "voronoi-big"} {
		if placed[name] < cent {
			t.Errorf("%s (%d) beat centralized (%d): distributed cannot beat global greedy on average", name, placed[name], cent)
		}
		if placed[name] > rnd {
			t.Errorf("%s (%d) worse than random (%d)", name, placed[name], rnd)
		}
	}
}

func TestDistributedMethodsSendMessages(t *testing.T) {
	for _, meth := range allMethods() {
		m := newField(t, 2, 50, 3)
		res := meth.Deploy(m, rng.New(4), Options{})
		distributed := false
		switch meth.(type) {
		case GridDECOR, VoronoiDECOR:
			distributed = true
		}
		if distributed && res.Messages == 0 {
			t.Errorf("%s: no messages recorded", meth.Name())
		}
		if !distributed && res.Messages != 0 {
			t.Errorf("%s: unexpected messages %d", meth.Name(), res.Messages)
		}
		if distributed {
			sum := 0
			for _, n := range res.NodeMessages {
				sum += n
			}
			if sum != res.Messages {
				t.Errorf("%s: NodeMessages sum %d != Messages %d", meth.Name(), sum, res.Messages)
			}
			if res.MessagesPerCell() <= 0 {
				t.Errorf("%s: MessagesPerCell = %v", meth.Name(), res.MessagesPerCell())
			}
		}
	}
}

func TestRestorationAfterAreaFailure(t *testing.T) {
	for _, meth := range allMethods() {
		m := newField(t, 2, 0, 1)
		meth.Deploy(m, rng.New(2), Options{})
		if !m.FullyCovered() {
			t.Fatalf("%s: initial deploy incomplete", meth.Name())
		}
		// Disaster: kill everything in a disc.
		ids := (failure.Area{Disk: geom.DiskAt(25, 25, 12)}).Select(m, nil)
		if len(ids) == 0 {
			t.Fatalf("%s: disaster hit no sensors", meth.Name())
		}
		failure.Apply(m, ids)
		if m.FullyCovered() {
			t.Fatalf("%s: coverage survived total area failure?", meth.Name())
		}
		res := meth.Deploy(m, rng.New(3), Options{})
		if !m.FullyCovered() {
			t.Errorf("%s: restoration incomplete", meth.Name())
		}
		if res.NumPlaced() == 0 {
			t.Errorf("%s: restoration placed nothing", meth.Name())
		}
	}
}

func TestDeployFromEmptyField(t *testing.T) {
	// No initial sensors at all: distributed methods must bootstrap via
	// base-station seeding.
	for _, meth := range allMethods() {
		m := newField(t, 1, 0, 1)
		res := meth.Deploy(m, rng.New(5), Options{})
		if !m.FullyCovered() {
			t.Errorf("%s: failed to bootstrap from empty field", meth.Name())
		}
		switch meth.(type) {
		case GridDECOR, VoronoiDECOR:
			if res.Seeded == 0 {
				t.Errorf("%s: expected at least one base-station seed", meth.Name())
			}
		}
	}
}

func TestPlacementIDsAreFresh(t *testing.T) {
	m := newField(t, 1, 20, 1) // IDs 0..19 taken
	res := (VoronoiDECOR{Rc: 8}).Deploy(m, rng.New(2), Options{})
	for _, pl := range res.Placed {
		if pl.ID < 20 {
			t.Fatalf("placement reused id %d", pl.ID)
		}
	}
}

func TestMethodByName(t *testing.T) {
	for _, name := range AllMethodNames() {
		meth, err := MethodByName(name, 4)
		if err != nil {
			t.Fatalf("MethodByName(%q): %v", name, err)
		}
		if meth.Name() != name {
			t.Errorf("MethodByName(%q).Name() = %q", name, meth.Name())
		}
	}
	if _, err := MethodByName("bogus", 4); err == nil {
		t.Error("unknown method should error")
	}
}

func TestVoronoiPanicsOnSmallRc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rc < rs should panic")
		}
	}()
	m := newField(t, 1, 0, 1)
	(VoronoiDECOR{Rc: 1}).Deploy(m, rng.New(1), Options{})
}

func TestGridPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cell size <= 0 should panic")
		}
	}()
	m := newField(t, 1, 0, 1)
	(GridDECOR{}).Deploy(m, rng.New(1), Options{})
}

func TestResultHelpers(t *testing.T) {
	r := Result{Messages: 40, Cells: 8}
	if r.MessagesPerCell() != 5 {
		t.Errorf("MessagesPerCell = %v", r.MessagesPerCell())
	}
	if (Result{}).MessagesPerCell() != 0 {
		t.Error("zero cells should yield 0")
	}
}

// Bigger rc gives each Voronoi node a wider accurate view; the paper's
// Fig. 9 reports fewer redundant nodes for big rc. Check the weaker,
// robust form: big-rc redundancy is not dramatically worse.
func TestVoronoiRedundancyReasonable(t *testing.T) {
	red := map[string]int{}
	tot := map[string]int{}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, meth := range []Method{VoronoiDECOR{Rc: 8}, VoronoiDECOR{Rc: 14.142135623730951}} {
			m := newField(t, 2, 50, seed)
			meth.Deploy(m, rng.New(seed), Options{})
			red[meth.Name()] += len(m.RedundantSensors())
			tot[meth.Name()] += m.NumSensors()
		}
	}
	for name, r := range red {
		frac := float64(r) / float64(tot[name])
		if frac > 0.5 {
			t.Errorf("%s: redundant fraction %.2f unreasonably high", name, frac)
		}
	}
}

func TestRoundsRecorded(t *testing.T) {
	m := newField(t, 2, 50, 3)
	res := (GridDECOR{CellSize: 5}).Deploy(m, rng.New(4), Options{})
	if res.Rounds < 1 {
		t.Errorf("Rounds = %d", res.Rounds)
	}
	// Placements must carry non-decreasing round numbers.
	last := 0
	for _, pl := range res.Placed {
		if pl.Round < last {
			t.Fatal("placement rounds not monotone")
		}
		last = pl.Round
	}
}
