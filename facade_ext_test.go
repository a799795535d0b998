package decor

import (
	"bytes"
	"testing"
)

func TestKForReliability(t *testing.T) {
	k, err := KForReliability(0.5, 0.9)
	if err != nil || k != 4 {
		t.Errorf("KForReliability = %d, %v", k, err)
	}
	if _, err := KForReliability(1, 0.9); err == nil {
		t.Error("q=1 should error")
	}
}

func TestVerifyExact(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	if ok, w := d.VerifyExact(); ok {
		t.Errorf("empty field verified covered (witness %v)", w)
	}
	if _, err := d.Deploy("centralized"); err != nil {
		t.Fatal(err)
	}
	ok, w := d.VerifyExact()
	if !ok {
		// The point approximation can leave analytic slivers; the
		// witness must then be genuinely near-uncovered, i.e. outside
		// every sensor's disk minus epsilon. Just require the witness to
		// be a valid field point.
		if w.X < 0 || w.X > 50 || w.Y < 0 || w.Y > 50 {
			t.Errorf("witness %v outside field", w)
		}
	}
}

func TestReliabilityReport(t *testing.T) {
	d, _ := NewDeployment(quickParams(3))
	d.ScatterRandom(30)
	if _, err := d.Deploy("centralized"); err != nil {
		t.Fatal(err)
	}
	rep := d.Reliability(0.2)
	if rep.Q != 0.2 {
		t.Errorf("Q = %v", rep.Q)
	}
	// Full 3-coverage: worst point survives with >= 1-0.2^3 = 0.992.
	if rep.MinPointReliability < 0.992-1e-9 {
		t.Errorf("MinPointReliability = %v", rep.MinPointReliability)
	}
	if rep.ExpectedCovered < rep.ExpectedKCovered {
		t.Error("1-coverage expectation below k-coverage expectation")
	}
	if rep.ExpectedCovered > 1 || rep.ExpectedKCovered <= 0 {
		t.Errorf("expectations out of range: %+v", rep)
	}
}

func TestConnectRelays(t *testing.T) {
	// Rc = Rs = 4: coverage does not imply connectivity.
	p := quickParams(1)
	p.Rc = 4
	d, err := NewDeployment(p)
	if err != nil {
		t.Fatal(err)
	}
	// Two separated clusters.
	d.AddSensor(Point{X: 5, Y: 5})
	d.AddSensor(Point{X: 7, Y: 5})
	d.AddSensor(Point{X: 40, Y: 45})
	d.AddSensor(Point{X: 42, Y: 45})
	before := d.NumSensors()
	relays := d.ConnectRelays()
	if len(relays) == 0 {
		t.Fatal("separated clusters need relays")
	}
	if d.NumSensors() != before+len(relays) {
		t.Error("relays not added as sensors")
	}
	if d.Connectivity() < 1 {
		t.Error("network still partitioned after ConnectRelays")
	}
	// Idempotent: a connected network needs nothing.
	if again := d.ConnectRelays(); again != nil {
		t.Errorf("second ConnectRelays added %d relays", len(again))
	}
}

func TestWritePNG(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	d.ScatterRandom(20)
	var buf bytes.Buffer
	if err := d.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100 || !bytes.HasPrefix(buf.Bytes(), []byte("\x89PNG")) {
		t.Errorf("PNG output malformed (%d bytes)", buf.Len())
	}
}

func TestSetKDynamicRetuning(t *testing.T) {
	d, _ := NewDeployment(quickParams(1))
	d.ScatterRandom(30)
	if _, err := d.Deploy("centralized"); err != nil {
		t.Fatal(err)
	}
	sensorsAt1 := d.NumSensors()
	// User tightens the reliability requirement at runtime.
	if err := d.SetK(3); err != nil {
		t.Fatal(err)
	}
	if d.FullyCovered() {
		t.Fatal("raising K should expose deficits")
	}
	if _, err := d.Deploy("voronoi-small"); err != nil {
		t.Fatal(err)
	}
	if !d.FullyCovered() || d.Coverage(3) != 1 {
		t.Fatal("densification failed")
	}
	if d.NumSensors() <= sensorsAt1 {
		t.Error("3-coverage should need more sensors than 1-coverage")
	}
	// Relaxing back frees sensors.
	if err := d.SetK(1); err != nil {
		t.Fatal(err)
	}
	if !d.FullyCovered() {
		t.Error("relaxing K cannot create deficits")
	}
	if len(d.Redundant()) == 0 {
		t.Error("relaxed field should have redundant sensors")
	}
	if err := d.SetK(0); err == nil {
		t.Error("SetK(0) should error")
	}
}

// TestDeployLargeK: K is any positive integer, including requirements
// past the coverage store's uint8 page range, for construction, Deploy
// and SetK alike.
func TestDeployLargeK(t *testing.T) {
	for _, method := range []string{"grid-small", "voronoi-small", "centralized"} {
		d, err := NewDeployment(Params{FieldSide: 10, K: 300, Rs: 4, NumPoints: 40, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Deploy(method)
		if err != nil {
			t.Fatal(err)
		}
		if !d.FullyCovered() || d.Coverage(300) != 1 {
			t.Fatalf("%s: K=300 deploy left the field under-covered (%.3f)", method, d.Coverage(300))
		}
		if rep.Placed < 300 {
			t.Fatalf("%s: placed %d sensors, 300-coverage needs at least 300", method, rep.Placed)
		}
		if err := d.SetK(301); err != nil {
			t.Fatal(err)
		}
		if d.FullyCovered() {
			t.Fatalf("%s: raising K to 301 should expose deficits", method)
		}
		if _, err := d.Deploy(method); err != nil {
			t.Fatal(err)
		}
		if d.Coverage(301) != 1 {
			t.Fatalf("%s: K=301 densification left the field under-covered", method)
		}
	}
}
