package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/obs"
	"decor/internal/rng"
	"decor/internal/session"
)

// Self-tests of the benchmark's correctness gates: each gate must pass
// the real output and reject a planted bad one.

func TestCheckTableRejectsAlteredDigit(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "results", "fig8.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	// Elapsed lines and trailing blank lines are not part of the table.
	if why := checkTable("fig8", want+"# elapsed: 12ms\n\n\n", want); why != "" {
		t.Fatalf("identical table rejected: %s", why)
	}
	lines := strings.Split(want, "\n")
	row := lines[3] // first data row, below the two comments and the header
	i := strings.IndexAny(row[1:], "123456789") + 1
	altered := []byte(row)
	altered[i] = '0' + (altered[i]-'0'+1)%10
	lines[3] = string(altered)
	if why := checkTable("fig8", strings.Join(lines, "\n"), want); why == "" {
		t.Fatalf("table with one altered digit (%q) accepted", altered)
	}
}

func TestFieldStreamRejectsReorderedDeltas(t *testing.T) {
	m := session.New(session.Config{Shards: 1, Registry: obs.NewRegistry()})
	defer m.Close()
	_, d0, err := m.Create("t", "f", session.Spec{
		FieldSide: 50, K: 1, Rs: 4, NumPoints: 500, Generator: "halton",
		Seed: 3, Scatter: 20, Method: "centralized",
	})
	if err != nil {
		t.Fatal(err)
	}
	line := func(d session.Delta) [32]byte {
		b, err := d.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(append(b, '\n'))
	}
	ref := [][32]byte{line(d0)}
	for _, failed := range [][]int{{1, 4}, {7}, {2, 9, 11}} {
		d, err := m.Apply("t", "f", failed)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, line(d))
	}
	if got := compareStreams("t/f", ref, ref, ref); len(got) != 0 {
		t.Fatalf("identical streams rejected: %v", got)
	}
	reordered := [][32]byte{ref[0], ref[2], ref[1], ref[3]}
	if got := compareStreams("t/f", ref, reordered, ref); len(got) != 2 {
		t.Fatalf("reordered answered stream: want 2 failed deltas, got %v", got)
	}
	if got := compareStreams("t/f", ref, ref, reordered); len(got) != 2 {
		t.Fatalf("reordered SSE stream: want 2 failed deltas, got %v", got)
	}
	if streamHash(reordered) == streamHash(ref) {
		t.Fatal("reordered stream hashes equal to the reference")
	}
}

func TestLargeFieldCheckRejectsUncoveredField(t *testing.T) {
	field := geom.Square(math.Sqrt(2000 / largeDensity))
	m := coverage.NewTiled(field, lowdisc.Halton{}.Points(2000, field), largeRs, 1, coverage.TileOptions{})
	r := rng.New(5)
	for id := 0; id < 50; id++ {
		m.AddSensor(id, r.PointInRect(field))
	}
	if why := checkLargeField(m, "grid-small", 5, 0, 0); why == "" {
		t.Fatal("uncovered field accepted")
	}
	res := core.GridDECOR{CellSize: 5, Workers: 2}.Deploy(m, rng.New(1), core.Options{})
	if why := checkLargeField(m, "grid-small", 5, res.NumPlaced(), res.NumPlaced()); why != "" {
		t.Fatalf("covered field rejected: %s", why)
	}
	if why := checkLargeField(m, "grid-small", 5, res.NumPlaced(), res.NumPlaced()+1); why == "" {
		t.Fatal("placed count differing from the record accepted")
	}
}

func TestKeyBodiesRejectsDifferingBytes(t *testing.T) {
	k := newKeyBodies()
	body := []byte(`{"placed":3}` + "\n")
	for _, cache := range []string{"miss", "hit", "coalesced"} {
		if why := k.check(1, 200, cache, body); why != "" {
			t.Fatalf("%s with identical bytes rejected: %s", cache, why)
		}
	}
	if why := k.check(1, 200, "hit", []byte(`{"placed":4}`+"\n")); why == "" {
		t.Fatal("hit with different bytes accepted")
	}
	if why := k.check(2, 503, "", []byte(`{"error":"busy"}`)); why == "" {
		t.Fatal("503 accepted")
	}
	if why := k.check(3, 200, "stale", body); why == "" {
		t.Fatal("unknown X-Decor-Cache value accepted")
	}
}

func TestPlanScheduleFixesMissCount(t *testing.T) {
	a, b := planSchedule(7, 400), planSchedule(7, 400)
	seen := map[int]bool{}
	for i := range a {
		if a[i].key != b[i].key || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two schedules for one seed", i)
		}
		seen[a[i].key] = true
	}
	if len(seen) != 400/planNewEvery {
		t.Fatalf("%d distinct keys, want %d", len(seen), 400/planNewEvery)
	}
}

func TestRunFailsOutsideRepository(t *testing.T) {
	// The test runs in the benchmark's own directory, which has no
	// results/ tables: the run must fail without printing a result.
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "figures", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatal("run succeeded without the repository's results/")
	}
	if out.Len() != 0 {
		t.Fatalf("failed run printed %q", out.String())
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	e2e := endToEnd{}.metrics()
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): program reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(layerDefs))
	}
	for i, m := range spec.PerLayer {
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
