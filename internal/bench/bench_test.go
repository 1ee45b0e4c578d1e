package bench

import (
	"math"
	"strings"
	"testing"
)

// testCfg is fast enough for CI while preserving every comparison shape.
func testCfg() Config {
	return Config{Quick: true, Scale: 2e-4, Epochs: 3, Seed: 1}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	paper := []struct{ um, p2p float64 }{
		{20.8, 1.35}, {29.6, 1.37}, {32.5, 1.43}, {35.3, 1.51}, {35.8, 1.56},
	}
	if len(rows) != len(paper) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if math.Abs(r.UMLatUs-paper[i].um) > 5 {
			t.Errorf("UM at %g GB = %.1f us, paper %.1f", r.SizeGB, r.UMLatUs, paper[i].um)
		}
		if math.Abs(r.P2PLatUs-paper[i].p2p) > 0.15 {
			t.Errorf("P2P at %g GB = %.2f us, paper %.2f", r.SizeGB, r.P2PLatUs, paper[i].p2p)
		}
		if r.UMLatUs < 10*r.P2PLatUs {
			t.Errorf("UM should be >=10x P2P at %g GB", r.SizeGB)
		}
	}
}

func TestTable2SpecsMatchPaper(t *testing.T) {
	rows, err := Table2(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int64{
		"ogbn-products":   {2_400_000, 61_900_000},
		"ogbn-papers100M": {111_100_000, 1_600_000_000},
		"Friendster":      {68_300_000, 2_600_000_000},
		"UK_domain":       {105_200_000, 3_300_000_000},
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected dataset %s", r.Name)
			continue
		}
		if r.SpecNodes != w[0] || r.SpecEdges != w[1] {
			t.Errorf("%s spec = %d/%d, paper %d/%d", r.Name, r.SpecNodes, r.SpecEdges, w[0], w[1])
		}
		if r.GenNodes == 0 || r.GenEdges == 0 {
			t.Errorf("%s generated nothing", r.Name)
		}
	}
}

func TestTable3AccuracyParity(t *testing.T) {
	rows, err := Table3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 datasets x 3 models)", len(rows))
	}
	for _, r := range rows {
		// Parity: the three frameworks land within a few points of each
		// other (they share the model math; sampling noise remains).
		var lo, hi float64 = 1, 0
		for _, v := range r.Valid {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi-lo > 0.10 {
			t.Errorf("%s/%s: framework accuracies diverge: %v", r.Dataset, r.Model, r.Valid)
		}
	}
}

func TestTable4MemoryDistribution(t *testing.T) {
	res, err := Table4(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The paper measures 3.1 GB structure and 6.7 GB features per GPU.
	// Hash partitioning is near-even, so per-GPU ~= total/8; allow the
	// synthetic degree distribution some slack.
	if res.FullStructPerGPU < 2 || res.FullStructPerGPU > 6 {
		t.Errorf("structure per GPU = %.1f GB, paper 3.1", res.FullStructPerGPU)
	}
	if res.FullFeatPerGPU < 5 || res.FullFeatPerGPU > 9 {
		t.Errorf("features per GPU = %.1f GB, paper 6.7", res.FullFeatPerGPU)
	}
	if math.Abs(res.TheoryStructTotal-25.6) > 0.1 {
		t.Errorf("theoretical structure = %.1f GB, paper ~24", res.TheoryStructTotal)
	}
	if math.Abs(res.TheoryFeatTotal-56.9) > 0.5 {
		t.Errorf("theoretical features = %.1f GB, paper ~53", res.TheoryFeatTotal)
	}
	if res.TrainPerGPU <= 0 || res.TrainPerGPU > 40 {
		t.Errorf("training estimate = %.1f GB, paper 20.4", res.TrainPerGPU)
	}
}

func TestTable5SpeedupShape(t *testing.T) {
	rows, err := Table5(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	bySpeedup := map[string]float64{}
	for _, r := range rows {
		// WholeGraph wins against both baselines, and PyG is the slowest,
		// on every dataset and model (Table V).
		if r.EpochTime[FwWholeGraph] >= r.EpochTime[FwDGL] {
			t.Errorf("%s/%s: WholeGraph (%g) not faster than DGL (%g)",
				r.Dataset, r.Model, r.EpochTime[FwWholeGraph], r.EpochTime[FwDGL])
		}
		if r.EpochTime[FwDGL] >= r.EpochTime[FwPyG] {
			t.Errorf("%s/%s: DGL (%g) not faster than PyG (%g)",
				r.Dataset, r.Model, r.EpochTime[FwDGL], r.EpochTime[FwPyG])
		}
		bySpeedup[r.Dataset+"/"+r.Model] = r.SpeedupVsDGL
	}
	// GAT gains less than GCN (more compute share, §IV-C2).
	for _, r := range rows {
		if r.Model != "gcn" {
			continue
		}
		gat := bySpeedup[r.Dataset+"/gat"]
		if gat >= r.SpeedupVsDGL {
			t.Errorf("%s: GAT speedup (%.2f) should be below GCN's (%.2f)",
				r.Dataset, gat, r.SpeedupVsDGL)
		}
	}
}

func TestFig7Parity(t *testing.T) {
	pts, err := Fig7(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != testCfg().Epochs {
		t.Fatalf("points = %d", len(pts))
	}
	last := pts[len(pts)-1]
	if math.Abs(last.DGLAcc-last.WGAcc) > 0.10 {
		t.Errorf("final accuracies diverge: DGL %.3f vs WG %.3f", last.DGLAcc, last.WGAcc)
	}
	// Both curves rise above their start.
	if last.DGLAcc <= pts[0].DGLAcc && last.WGAcc <= pts[0].WGAcc {
		t.Error("no learning visible in either curve")
	}
}

func TestFig8BandwidthCurve(t *testing.T) {
	pts, err := Fig8(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 8 {
		t.Fatalf("points = %d", len(pts))
	}
	// Rising then saturating; small segments proportional-ish.
	for i := 1; i < len(pts); i++ {
		if pts[i].AlgoBWGBs < pts[i-1].AlgoBWGBs*0.97 {
			t.Errorf("bandwidth fell at %dB: %.1f -> %.1f",
				pts[i].SegBytes, pts[i-1].AlgoBWGBs, pts[i].AlgoBWGBs)
		}
	}
	small := pts[0] // 4 B
	large := pts[len(pts)-1]
	if small.AlgoBWGBs > large.AlgoBWGBs/3 {
		t.Errorf("4B segment (%.1f) should be far below plateau (%.1f)", small.AlgoBWGBs, large.AlgoBWGBs)
	}
	// Plateau lands near the paper's ~230 GB/s BusBW (launch overhead at
	// the scaled volume costs some).
	if large.BusBWGBs < 150 || large.BusBWGBs > 235 {
		t.Errorf("plateau BusBW = %.1f GB/s, paper ~230", large.BusBWGBs)
	}
}

func TestFig9BreakdownShape(t *testing.T) {
	rows, err := Fig9(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		wg := r.Timing[FwWholeGraph]
		pyg := r.Timing[FwPyG]
		// WholeGraph: training dominates. PyG: sampling+gathering dominate.
		if wg.Sample+wg.Gather >= wg.Train {
			t.Errorf("%s/%s WholeGraph not train-dominated: %+v", r.Dataset, r.Model, wg)
		}
		// Prep dominance of the baselines needs a graph big enough that
		// per-iteration volumes beat fixed kernel overheads; assert it on
		// papers100M (products at test scale is a few hundred nodes).
		if strings.Contains(r.Dataset, "papers") && r.Model != "gat" &&
			pyg.Sample+pyg.Gather <= pyg.Train {
			t.Errorf("%s/%s PyG not prep-dominated: %+v", r.Dataset, r.Model, pyg)
		}
		// WholeGraph's prep phases are much cheaper than PyG's.
		if wg.Sample+wg.Gather >= (pyg.Sample+pyg.Gather)/2 {
			t.Errorf("%s/%s WholeGraph prep (%g) not well below PyG prep (%g)",
				r.Dataset, r.Model, wg.Sample+wg.Gather, pyg.Sample+pyg.Gather)
		}
	}
}

func TestFig10GatherSpeedup(t *testing.T) {
	rows, err := Fig10(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: speedups above 2x on all datasets.
		if r.Speedup < 2 {
			t.Errorf("%s: gather speedup %.2f < 2", r.Dataset, r.Speedup)
		}
		// The shared gather's whole-op bandwidth is comparable to the NCCL
		// implementation's alltoallv step alone.
		if r.SharedBusBWGBs < r.AlltoAllvBusBWGBs {
			t.Errorf("%s: ours BusBW (%.1f) below alltoallv-only BusBW (%.1f)",
				r.Dataset, r.SharedBusBWGBs, r.AlltoAllvBusBWGBs)
		}
	}
}

func TestFig11LayerBackends(t *testing.T) {
	rows, err := Fig11(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SpeedupVsDGL <= 1 {
			t.Errorf("%s/%s: dgl-layers (%.2f) not slower than native", r.Dataset, r.Model, r.SpeedupVsDGL)
		}
		if r.SpeedupVsPyG <= r.SpeedupVsDGL {
			t.Errorf("%s/%s: pyg-layers (%.2f) should trail dgl-layers (%.2f)",
				r.Dataset, r.Model, r.SpeedupVsPyG, r.SpeedupVsDGL)
		}
		// Paper bounds: up to 1.31x and 2.43x; stay under generous caps.
		if r.SpeedupVsPyG > 3 {
			t.Errorf("%s/%s: pyg-layers ratio %.2f implausibly large", r.Dataset, r.Model, r.SpeedupVsPyG)
		}
	}
}

func TestFig12Utilization(t *testing.T) {
	series, err := Fig12(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	byFw := map[Framework]Fig12Series{}
	for _, s := range series {
		byFw[s.Framework] = s
	}
	if byFw[FwWholeGraph].Mean < 0.90 {
		t.Errorf("WholeGraph utilization %.2f, paper >= 0.95", byFw[FwWholeGraph].Mean)
	}
	if byFw[FwDGL].Mean > 0.70 {
		t.Errorf("DGL utilization %.2f unexpectedly high", byFw[FwDGL].Mean)
	}
	if byFw[FwPyG].Mean >= byFw[FwDGL].Mean {
		t.Errorf("PyG (%.2f) should idle more than DGL (%.2f)", byFw[FwPyG].Mean, byFw[FwDGL].Mean)
	}
}

func TestFig13Scaling(t *testing.T) {
	rows, err := Fig13(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ScaleUsed != 1e-3 {
			t.Errorf("%s/%s: ran at scale %g, want the 1e-3 floor over the asked %g", r.Dataset, r.Model, r.ScaleUsed, testCfg().Scale)
		}
		if len(r.Speedup) != 4 {
			t.Fatalf("%s/%s: %d points", r.Dataset, r.Model, len(r.Speedup))
		}
		for i := 1; i < len(r.Speedup); i++ {
			if r.Speedup[i] <= r.Speedup[i-1] {
				t.Errorf("%s/%s: speedup not increasing: %v", r.Dataset, r.Model, r.Speedup)
			}
		}
		// Near-linear: at least 60% efficiency at 8 nodes on the scaled
		// graphs.
		if r.Speedup[3] < 4.5 {
			t.Errorf("%s/%s: 8-node speedup %.2f too sublinear", r.Dataset, r.Model, r.Speedup[3])
		}
	}
}

// TestScaleFloorClampSurfaced: a scale below an experiment's floor runs at
// the floor and says so; one at or above it runs as asked, silently. Fig13,
// Serving and AblationOOCGraph floor their scale through scaleFloor, and
// their rows record the scale it returns.
func TestScaleFloorClampSurfaced(t *testing.T) {
	for _, tc := range []struct {
		scale, want float64
		note        string
	}{
		{2e-4, 1e-3, "note: requested scale 0.0002 is below the 1e-3 floor for this experiment; running at 1e-3\n"},
		{1e-3, 1e-3, ""},
		{5e-3, 5e-3, ""},
	} {
		var sb strings.Builder
		cfg := testCfg()
		cfg.Scale, cfg.W = tc.scale, &sb
		if got := cfg.scaleFloor(1e-3); got != tc.want {
			t.Errorf("scale %g: ran at %g, want %g", tc.scale, got, tc.want)
		}
		if sb.String() != tc.note {
			t.Errorf("scale %g: printed %q, want %q", tc.scale, sb.String(), tc.note)
		}
	}
}

func TestSetupCost(t *testing.T) {
	res, err := Setup(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		// Paper: tens to one or two hundred milliseconds.
		if r.Seconds <= 0 || r.Seconds > 0.5 {
			t.Errorf("setup of %g GB = %g s, want < 0.5", r.SizeGB, r.Seconds)
		}
	}
	if res[len(res)-1].Seconds <= res[0].Seconds {
		t.Error("setup cost should grow with size")
	}
}

func TestReportWriting(t *testing.T) {
	var sb strings.Builder
	cfg := testCfg()
	cfg.W = &sb
	if _, err := Table1(cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Peer Access") {
		t.Errorf("report missing headers:\n%s", out)
	}
}

func TestAblationStorage(t *testing.T) {
	rows, err := AblationStorage(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// P2P beats UM beats... pinned host on the gather path; epoch times
	// follow the same order.
	if !(rows[0].GatherTime < rows[1].GatherTime && rows[1].GatherTime < rows[2].GatherTime) {
		t.Errorf("gather times not ordered P2P < UM < pinned: %+v", rows)
	}
	if rows[0].EpochTime >= rows[2].EpochTime {
		t.Errorf("P2P epoch (%g) not faster than pinned-host (%g)", rows[0].EpochTime, rows[2].EpochTime)
	}
	// Table I says UM is an order of magnitude slower at the access level;
	// on bulk gathers a solid multiple must remain.
	if rows[1].GatherTime < 2*rows[0].GatherTime {
		t.Errorf("UM gather (%g) should be >=2x P2P (%g)", rows[1].GatherTime, rows[0].GatherTime)
	}
}

func TestAblationUnique(t *testing.T) {
	rows, err := AblationUnique(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HashTime >= r.SortTime {
			t.Errorf("hash (%g) not cheaper than sort (%g) at %d neighbors",
				r.HashTime, r.SortTime, r.Neighbors)
		}
	}
}

func TestAblationDedup(t *testing.T) {
	rows, err := AblationDedup(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.UniqueRows >= r.SampledRows {
			t.Errorf("%s: dedup did not shrink the gather (%d vs %d)",
				r.Dataset, r.UniqueRows, r.SampledRows)
		}
		if r.DedupTime >= r.NoDedupTime {
			t.Errorf("%s: dedup gather (%g) not faster than raw (%g)",
				r.Dataset, r.DedupTime, r.NoDedupTime)
		}
	}
}

func TestAblationHardware(t *testing.T) {
	rows, err := AblationHardware(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	dgx, pcie := rows[0], rows[1]
	if dgx.SpeedupVsDGL <= 1 || pcie.SpeedupVsDGL <= 1 {
		t.Errorf("WholeGraph should win on both fabrics: %+v", rows)
	}
	// The NVLink fabric is what buys the big factors.
	if dgx.SpeedupVsDGL <= pcie.SpeedupVsDGL {
		t.Errorf("DGX speedup (%.2f) should exceed PCIe-server speedup (%.2f)",
			dgx.SpeedupVsDGL, pcie.SpeedupVsDGL)
	}
	if dgx.WGEpoch >= pcie.WGEpoch {
		t.Errorf("WholeGraph on DGX (%g) should beat itself on PCIe (%g)", dgx.WGEpoch, pcie.WGEpoch)
	}
}

func TestAblationPartition(t *testing.T) {
	rows, err := AblationPartition(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]PartitionRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
		if r.RemoteFrac <= 0 || r.RemoteFrac >= 1 {
			t.Errorf("%s: remote fraction %g implausible", r.Strategy, r.RemoteFrac)
		}
		if r.EdgeImbalance < 1 {
			t.Errorf("%s: imbalance %g below 1", r.Strategy, r.EdgeImbalance)
		}
	}
	// Community placement exploits homophily: less remote traffic than hash.
	if byName["community"].RemoteFrac >= byName["hash"].RemoteFrac {
		t.Errorf("community remote frac (%g) should beat hash (%g)",
			byName["community"].RemoteFrac, byName["hash"].RemoteFrac)
	}
}
