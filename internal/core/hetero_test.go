package core

import (
	"testing"

	"decor/internal/rng"
)

// Heterogeneous deployment: new sensors may out-range the originals
// (paper §2: radii vary with sensor type). A longer-range centralized
// deployment must need fewer sensors; results must still fully cover.

func TestCentralizedHeteroRadius(t *testing.T) {
	base := newField(t, 2, 30, 3)
	resBase := (Centralized{}).Deploy(base, rng.New(1), Options{})
	if !base.FullyCovered() {
		t.Fatal("base deploy incomplete")
	}
	wide := newField(t, 2, 30, 3)
	resWide := (Centralized{NewRs: 8}).Deploy(wide, rng.New(1), Options{})
	if !wide.FullyCovered() {
		t.Fatal("wide deploy incomplete")
	}
	if resWide.NumPlaced() >= resBase.NumPlaced() {
		t.Errorf("rs=8 placed %d, rs=4 placed %d: longer range should need fewer sensors",
			resWide.NumPlaced(), resBase.NumPlaced())
	}
	// Each placed sensor must record the override radius.
	for _, pl := range resWide.Placed {
		if r, ok := wide.SensorRadius(pl.ID); !ok || r != 8 {
			t.Fatalf("sensor %d radius = %v %v, want 8", pl.ID, r, ok)
		}
	}
}

func TestCentralizedHeteroRescanMatchesIncremental(t *testing.T) {
	a := newField(t, 2, 30, 5)
	b := newField(t, 2, 30, 5)
	inc := (Centralized{NewRs: 6}).Deploy(a, rng.New(1), Options{})
	res := centralizedRescan{Centralized{NewRs: 6}}.Deploy(b, rng.New(1), Options{})
	if inc.NumPlaced() != res.NumPlaced() {
		t.Fatalf("incremental %d vs rescan %d", inc.NumPlaced(), res.NumPlaced())
	}
	for i := range inc.Placed {
		if !inc.Placed[i].Pos.Eq(res.Placed[i].Pos) {
			t.Fatalf("placement %d differs", i)
		}
	}
}

func TestDistributedHeteroRadius(t *testing.T) {
	// The distributed variants honor NewRs like the centralized one:
	// longer-range replacements need fewer sensors, and every placed
	// sensor records the override.
	for _, pair := range []struct {
		base, wide Method
	}{
		{GridDECOR{CellSize: 5}, GridDECOR{CellSize: 5, NewRs: 8}},
		{VoronoiDECOR{Rc: 8}, VoronoiDECOR{Rc: 8, NewRs: 8}},
	} {
		mb := newField(t, 2, 30, 3)
		rb := pair.base.Deploy(mb, rng.New(1), Options{})
		mw := newField(t, 2, 30, 3)
		rw := pair.wide.Deploy(mw, rng.New(1), Options{})
		if !mb.FullyCovered() || !mw.FullyCovered() {
			t.Fatalf("%s: incomplete deploy", pair.base.Name())
		}
		if rw.NumPlaced() >= rb.NumPlaced() {
			t.Errorf("%s: wide placed %d, base placed %d",
				pair.base.Name(), rw.NumPlaced(), rb.NumPlaced())
		}
		for _, pl := range rw.Placed {
			if r, ok := mw.SensorRadius(pl.ID); !ok || r != 8 {
				t.Fatalf("%s: sensor %d radius = %v", pair.base.Name(), pl.ID, r)
			}
		}
	}
}

func TestVoronoiHeteroPanicsWhenNewRsExceedsRc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRs > Rc should panic (violates rs <= rc)")
		}
	}()
	m := newField(t, 1, 0, 1)
	(VoronoiDECOR{Rc: 8, NewRs: 10}).Deploy(m, rng.New(1), Options{})
}

func TestCentralizedHeteroOnDamagedHeteroField(t *testing.T) {
	// Mixed-radius pre-deployment, then restoration with default radius.
	m := newField(t, 1, 0, 1)
	r := rng.New(9)
	for id := 0; id < 20; id++ {
		m.AddSensorRadius(1000+id, r.PointInRect(m.Field()), 2+r.Float64()*6)
	}
	res := (Centralized{}).Deploy(m, rng.New(2), Options{})
	if !m.FullyCovered() {
		t.Fatal("restoration on hetero field incomplete")
	}
	if res.NumPlaced() == 0 {
		t.Fatal("nothing placed")
	}
}
