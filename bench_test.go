package decor

// One benchmark per paper table/figure (Figures 4–14), plus ablation
// benches for the design choices called out in DESIGN.md §5. Each
// figure bench regenerates its figure on a reduced single-run
// configuration (the full 5-run paper tables come from cmd/decor-bench)
// and attaches the figure's headline values as custom benchmark metrics,
// so `go test -bench . -benchmem` output doubles as a results summary.

import (
	"testing"

	"decor/internal/core"
	"decor/internal/coverage"
	"decor/internal/experiment"
	"decor/internal/geom"
	"decor/internal/lowdisc"
	"decor/internal/rng"
)

// benchCfg is the per-iteration experiment configuration: full paper
// field, single run so benches stay in the tens of milliseconds.
func benchCfg() experiment.Config {
	cfg := experiment.Default()
	cfg.Runs = 1
	cfg.FailureDraws = 2
	return cfg
}

func seriesValue(fig experiment.Figure, label string, xIdx int) float64 {
	for _, s := range fig.Series {
		if s.Label == label {
			return s.Y[xIdx]
		}
	}
	return -1
}

// BenchmarkFig04HaltonField measures building the paper's field
// approximation: 2000 Halton points plus their exact star discrepancy.
func BenchmarkFig04HaltonField(b *testing.B) {
	field := geom.Square(100)
	var disc float64
	for i := 0; i < b.N; i++ {
		pts := lowdisc.Halton{}.Points(2000, field)
		disc = lowdisc.StarDiscrepancy(pts, field)
	}
	b.ReportMetric(disc, "star-discrepancy")
}

// BenchmarkFig05Deployment measures producing the example deployment
// picture: a full Voronoi DECOR run on the paper field at k=1.
func BenchmarkFig05Deployment(b *testing.B) {
	cfg := benchCfg()
	var placed int
	for i := 0; i < b.N; i++ {
		m := cfg.NewMap(1, 0)
		res := (core.VoronoiDECOR{Rc: 8}).Deploy(m, cfg.DeployRNG(0), core.Options{})
		placed = res.NumPlaced()
	}
	b.ReportMetric(float64(placed), "placed")
}

// BenchmarkFig06AreaFailure measures constructing the uncovered-area
// picture: deploy, then destroy the r=24 disaster disc.
func BenchmarkFig06AreaFailure(b *testing.B) {
	cfg := benchCfg()
	var cov float64
	for i := 0; i < b.N; i++ {
		m := cfg.NewMap(1, 0)
		(core.Centralized{}).Deploy(m, cfg.DeployRNG(0), core.Options{})
		for _, id := range m.SensorsInBall(cfg.AreaFailureDisk().Center, cfg.AreaFailureDisk().R) {
			m.RemoveSensor(id)
		}
		cov = m.CoverageFrac(1)
	}
	b.ReportMetric(100*cov, "pct-covered-after")
}

// BenchmarkFig07Coverage regenerates the coverage-vs-nodes curves (k=3).
func BenchmarkFig07Coverage(b *testing.B) {
	cfg := benchCfg()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig7(cfg)
	}
	mid := len(fig.Series[0].X) / 3
	b.ReportMetric(seriesValue(fig, "centralized", mid), "centralized-pct-mid")
	b.ReportMetric(seriesValue(fig, "random", mid), "random-pct-mid")
}

// BenchmarkFig08NodesNeeded regenerates nodes-for-100%-coverage vs k.
func BenchmarkFig08NodesNeeded(b *testing.B) {
	cfg := benchCfg()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig8(cfg)
	}
	// Paper reference points at k=4: centralized 788, voronoi ~891,
	// grid-small 1196.
	b.ReportMetric(seriesValue(fig, "centralized", 3), "centralized-k4")
	b.ReportMetric(seriesValue(fig, "voronoi-big", 3), "voronoi-big-k4")
	b.ReportMetric(seriesValue(fig, "grid-small", 3), "grid-small-k4")
}

// BenchmarkFig09Redundant regenerates the redundant-node percentages.
func BenchmarkFig09Redundant(b *testing.B) {
	cfg := benchCfg()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig9(cfg)
	}
	b.ReportMetric(seriesValue(fig, "random", 4), "random-pct-k5")
	b.ReportMetric(seriesValue(fig, "centralized", 4), "centralized-pct-k5")
}

// BenchmarkFig10Messages regenerates the message-overhead series.
func BenchmarkFig10Messages(b *testing.B) {
	cfg := benchCfg()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig10(cfg)
	}
	b.ReportMetric(seriesValue(fig, "grid-small", 2), "grid-small-k3")
	b.ReportMetric(seriesValue(fig, "voronoi-big", 2), "voronoi-big-k3")
}

// BenchmarkFig11RandomFailures regenerates 3-coverage under random
// failures.
func BenchmarkFig11RandomFailures(b *testing.B) {
	cfg := benchCfg()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig11(cfg)
	}
	last := len(fig.Series[0].X) - 1
	b.ReportMetric(seriesValue(fig, "grid-small", last), "grid-small-pct-at30")
	b.ReportMetric(seriesValue(fig, "centralized", last), "centralized-pct-at30")
}

// BenchmarkFig12MaxFailures regenerates the maximum tolerable failure
// fraction for 90% 1-coverage.
func BenchmarkFig12MaxFailures(b *testing.B) {
	cfg := benchCfg()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig12(cfg)
	}
	b.ReportMetric(seriesValue(fig, "grid-small", 4), "grid-small-pct-k5")
	b.ReportMetric(seriesValue(fig, "grid-small", 1), "grid-small-pct-k2")
}

// BenchmarkFig13AreaFailure regenerates k-covered points after the
// disaster.
func BenchmarkFig13AreaFailure(b *testing.B) {
	cfg := benchCfg()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig13(cfg)
	}
	b.ReportMetric(seriesValue(fig, "centralized", 2), "centralized-pct-k3")
}

// BenchmarkFig14Restore regenerates the restoration-cost series.
func BenchmarkFig14Restore(b *testing.B) {
	cfg := benchCfg()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig14(cfg)
	}
	b.ReportMetric(seriesValue(fig, "centralized", 4), "centralized-nodes-k5")
	b.ReportMetric(seriesValue(fig, "voronoi-big", 4), "voronoi-big-nodes-k5")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationIncrementalBenefit measures the centralized greedy
// with incremental benefit maintenance (the shipped engine). Its
// full-rescan counterpart is the test oracle in internal/core:
// BenchmarkDeployAblation/centralized-rescan.
func BenchmarkAblationIncrementalBenefit(b *testing.B) {
	cfg := benchCfg()
	var placed int
	for i := 0; i < b.N; i++ {
		m := cfg.NewMap(3, 0)
		res := core.Centralized{}.Deploy(m, cfg.DeployRNG(0), core.Options{})
		placed = res.NumPlaced()
	}
	b.ReportMetric(float64(placed), "placed")
}

// BenchmarkAblationPointGenerators compares the field approximations the
// paper discusses (§3.2): Halton (shipped), Hammersley ("results were
// similar"), and uniform random (the strawman). The placed-node metric
// shows the deployment cost is insensitive to the low-discrepancy family
// but the uniform set distorts the field estimate.
func BenchmarkAblationPointGenerators(b *testing.B) {
	field := geom.Square(100)
	for _, gen := range []lowdisc.Generator{
		lowdisc.Halton{}, lowdisc.Hammersley{}, lowdisc.Uniform{Seed: 9},
	} {
		b.Run(gen.Name(), func(b *testing.B) {
			var placed int
			var disc float64
			for i := 0; i < b.N; i++ {
				pts := gen.Points(2000, field)
				m := coverage.New(field, pts, 4, 3)
				res := (core.Centralized{}).Deploy(m, rng.New(4), core.Options{})
				placed = res.NumPlaced()
				disc = lowdisc.EstimateStarDiscrepancy(pts, field, 200, 1)
			}
			b.ReportMetric(float64(placed), "placed")
			b.ReportMetric(disc, "discrepancy-est")
		})
	}
}

// BenchmarkAblationCellSize sweeps the grid cell size beyond the paper's
// two settings, exposing the placement-quality vs message-cost trade-off.
func BenchmarkAblationCellSize(b *testing.B) {
	cfg := benchCfg()
	for _, cell := range []float64{4, 5, 8, 10, 20} {
		b.Run(cellName(cell), func(b *testing.B) {
			var placed int
			var msgs float64
			for i := 0; i < b.N; i++ {
				m := cfg.NewMap(3, 0)
				res := (core.GridDECOR{CellSize: cell}).Deploy(m, cfg.DeployRNG(0), core.Options{})
				placed = res.NumPlaced()
				msgs = res.MessagesPerCell()
			}
			b.ReportMetric(float64(placed), "placed")
			b.ReportMetric(msgs, "msgs-per-cell")
		})
	}
}

func cellName(c float64) string {
	switch c {
	case 4:
		return "cell-04"
	case 5:
		return "cell-05"
	case 8:
		return "cell-08"
	case 10:
		return "cell-10"
	default:
		return "cell-20"
	}
}

// BenchmarkAblationConcurrency compares the concurrent round model with
// the fully serialized execution (DESIGN.md §5): the placed metric shows
// how much of DECOR's node overhead is coordination cost.
func BenchmarkAblationConcurrency(b *testing.B) {
	cfg := benchCfg()
	for _, variant := range []struct {
		name string
		meth core.Method
	}{
		{"concurrent", core.GridDECOR{CellSize: 5}},
		{"sequential", core.GridDECOR{CellSize: 5, Sequential: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var placed int
			for i := 0; i < b.N; i++ {
				m := cfg.NewMap(3, 0)
				res := variant.meth.Deploy(m, cfg.DeployRNG(0), core.Options{})
				placed = res.NumPlaced()
			}
			b.ReportMetric(float64(placed), "placed")
		})
	}
}

// BenchmarkCoreAddSensor isolates the cost of one incremental coverage
// update at paper density.
func BenchmarkCoreAddSensor(b *testing.B) {
	cfg := benchCfg()
	m := cfg.NewMap(3, 0)
	r := rng.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := 1000 + i
		m.AddSensor(id, r.PointInRect(m.Field()))
		m.RemoveSensor(id)
	}
}

// BenchmarkStarDiscrepancyExact measures the exact O(N² log N) scan at
// the paper's field resolution.
func BenchmarkStarDiscrepancyExact(b *testing.B) {
	pts := lowdisc.Halton{}.Points(1000, geom.Square(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowdisc.StarDiscrepancy(pts, geom.Square(1))
	}
}
