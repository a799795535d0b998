package experiment

import (
	"fmt"
	"testing"
)

// TestTiledFigureTablesByteIdentical is the top-level differential
// guarantee of the tile engines (DESIGN.md §13): within-placement worker
// counts and a resident-page budget change only the execution, never
// the rendered bytes. Fig8 covers all six methods across the k sweep;
// fig10 the distributed schemes' message accounting.
func TestTiledFigureTablesByteIdentical(t *testing.T) {
	for _, id := range []string{"fig8", "fig10"} {
		ref, err := ByID(id, Quick())
		if err != nil {
			t.Fatal(err)
		}
		variants := map[string]Config{}
		for _, w := range []int{1, 4} {
			c := Quick()
			c.PlaceWorkers = w
			variants[fmt.Sprintf("PlaceWorkers=%d", w)] = c
		}
		bounded := Quick()
		bounded.MaxResidentTiles = 2
		variants["MaxResidentTiles=2"] = bounded
		for name, cfg := range variants {
			got, err := ByID(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Table() != got.Table() {
				t.Fatalf("%s table diverges under %s:\n--- PlaceWorkers=0 ---\n%s--- %s ---\n%s",
					id, name, ref.Table(), name, got.Table())
			}
		}
	}
}
