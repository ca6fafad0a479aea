package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must have a driver.
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "table2", "energy",
		"ablation-dampening", "ablation-similarity", "ablation-spct", "ablation-k",
		"trace-staleness", "byzantine",
	}
	have := map[string]bool{}
	for _, id := range All() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, expected %d", len(All()), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", ScaleCI); err == nil {
		t.Fatal("want error for unknown id")
	}
}

func TestFig5DampeningCurves(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig5")
	// The exponential must intersect the inverse at τ_thres/2 (the defining
	// property of β).
	if v := rep.Values["intersection"]; v > 1e-9 || v < -1e-9 {
		t.Errorf("intersection residual %v, want 0", v)
	}
	if len(rep.Lines) < 8 {
		t.Errorf("expected dampening table rows, got %d lines", len(rep.Lines))
	}
}

func TestFig6OnlineBeatsStandard(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig6")
	if boost := rep.Values["boost"]; boost < 1.3 {
		t.Errorf("online/standard boost %v, want > 1.3 (paper: 2.3)", boost)
	}
	if rep.Values["baseline"] > rep.Values["online"] {
		t.Error("most-popular baseline should not beat Online FL")
	}
}

func TestFig7LongTail(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig7")
	mean := rep.Values["mean"]
	if mean < 5 {
		t.Errorf("mean staleness %v, want the paper's double-digit regime", mean)
	}
	if rep.Values["max"] < 3*mean {
		t.Errorf("no long tail: max %v vs mean %v", rep.Values["max"], mean)
	}
}

func TestFig8Ordering(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig8")
	// SSGD is the ideal; AdaSGD must beat DynSGD under both staleness
	// setups (the paper's headline claim).
	if rep.Values["ssgd"] < 0.8 {
		t.Errorf("SSGD accuracy %v; substrate broken", rep.Values["ssgd"])
	}
	for _, d := range []string{"D1", "D2"} {
		ada, dyn := rep.Values["ada-"+d], rep.Values["dyn-"+d]
		if ada <= dyn {
			t.Errorf("%s: AdaSGD %v must beat DynSGD %v", d, ada, dyn)
		}
	}
	if rep.Values["fedavg"] > rep.Values["ssgd"] {
		t.Error("staleness-unaware FedAvg should not beat ideal SSGD")
	}
}

func TestFig9SimilarityBoostRecovery(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig9")
	ada, dyn := rep.Values["ada-class0"], rep.Values["dyn-class0"]
	if ada <= dyn+0.2 {
		t.Errorf("AdaSGD class-0 accuracy %v must clearly beat DynSGD %v", ada, dyn)
	}
	if ada < 0.5 {
		t.Errorf("AdaSGD class-0 accuracy %v; boost failed to recover stragglers", ada)
	}
}

func TestFig12IProfBeatsMAUI(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig12")
	if rep.Values["ratio-p90"] < 1.5 {
		t.Errorf("I-Prof p90 advantage %vx, want > 1.5x (paper: 3.6x)", rep.Values["ratio-p90"])
	}
}

func TestFig13IProfBeatsMAUI(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig13")
	if rep.Values["ratio-p90"] < 1.5 {
		t.Errorf("I-Prof energy p90 advantage %vx, want > 1.5x (paper: 19x)", rep.Values["ratio-p90"])
	}
}

func TestFig14FLeetComparable(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig14")
	for _, dev := range fig13TestDevices {
		fleetE, calE := rep.Values["fleet-"+dev], rep.Values["caloree-"+dev]
		if fleetE == 0 || calE == 0 {
			t.Fatalf("missing energy values for %s", dev)
		}
		if fleetE > calE*1.3 {
			t.Errorf("%s: FLeet energy %v should be within 1.3x of CALOREE %v", dev, fleetE, calE)
		}
	}
}

func TestTable2ErrorEscalates(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "table2")
	s7 := rep.Values["Galaxy S7"]
	h9 := rep.Values["Honor 9"]
	h10 := rep.Values["Honor 10"]
	if s7 > 5 {
		t.Errorf("same-device deadline error %v%%, want small", s7)
	}
	if h9 < 3*s7 || h10 < 5*s7 {
		t.Errorf("cross-vendor errors must dwarf same-device: S7 %v%%, Honor 9 %v%%, Honor 10 %v%%",
			s7, h9, h10)
	}
	if h10 < h9 {
		t.Errorf("Honor 10 (%v%%) should be the worst (Honor 9 %v%%)", h10, h9)
	}
}

func TestEnergyPlausible(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "energy")
	if v := rep.Values["mean-mwh"]; v <= 0 || v > 50 {
		t.Errorf("daily energy %v mWh outside the paper's regime", v)
	}
	if v := rep.Values["pct-battery"]; v <= 0 || v > 0.5 {
		t.Errorf("battery drain %v%% outside the paper's regime (0.036%%)", v)
	}
}

func TestAblationSimilarityHelps(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "ablation-similarity")
	if rep.Values["class0-with"] <= rep.Values["class0-without"] {
		t.Errorf("boost on (%v) must beat boost off (%v) on straggler class",
			rep.Values["class0-with"], rep.Values["class0-without"])
	}
}

func TestReportString(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig5")
	s := rep.String()
	if !strings.Contains(s, "fig5") || !strings.Contains(s, "gradient scaling") {
		t.Errorf("report rendering broken:\n%s", s)
	}
}

func TestByzantineRobustness(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "byzantine")
	meanClean := rep.Values["clean-Mean"]
	meanAttacked := rep.Values["attacked-Mean"]
	if meanClean < 0.6 {
		t.Fatalf("clean Mean accuracy %v; setup broken", meanClean)
	}
	if meanAttacked > 0.5*meanClean {
		t.Errorf("Mean under attack %v should collapse (clean %v)", meanAttacked, meanClean)
	}
	medAttacked := rep.Values["attacked-CoordinateMedian"]
	if medAttacked < 2*meanAttacked {
		t.Errorf("CoordinateMedian under attack %v should far exceed Mean %v",
			medAttacked, meanAttacked)
	}
}

func TestTraceStalenessExperiment(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "trace-staleness")
	if rep.Values["mean-staleness"] <= 0 {
		t.Error("no emergent staleness")
	}
	if rep.Values["ada"] < 0.3 {
		t.Errorf("AdaSGD accuracy %v under emergent staleness", rep.Values["ada"])
	}
}

func TestFig3WeakWorkersCancelTheBenefit(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig3")
	one, ten, weak := rep.Values["1 strong"], rep.Values["10 strong"], rep.Values["10 strong + 4 weak"]
	if ten <= one {
		t.Errorf("10 strong workers (%v) must beat 1 (%v)", ten, one)
	}
	if weak > ten-0.2 {
		t.Errorf("4 weak workers must cost 10 strong ones (%v) at least 0.2, got %v", ten, weak)
	}
}

func TestFig10StalenessAwarenessIID(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig10")
	for _, ds := range []string{"tiny-MNIST (IID)", "tiny-CIFAR (IID)"} {
		if ada, dyn := rep.Values["ada-"+ds], rep.Values["dyn-"+ds]; ada <= dyn {
			t.Errorf("%s: AdaSGD %v must beat DynSGD %v", ds, ada, dyn)
		}
	}
	if fed := rep.Values["fed-tiny-CIFAR (IID)"]; fed >= 0.3 {
		t.Errorf("staleness-unaware FedAvg should diverge on tiny-CIFAR under D2, got %v", fed)
	}
}

func TestFig11DPCostsAccuracy(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig11")
	if clean, private := rep.Values["ada-eps0.00"], rep.Values["ada-eps1.75"]; clean < private+0.1 {
		t.Errorf("AdaSGD without DP (%v) must exceed ε=1.75 (%v) by at least 0.1", clean, private)
	}
}

func TestFig15PruningCurve(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "fig15")
	base := rep.Values["base"]
	if acc := rep.Values["size40"]; acc < base-0.03 {
		t.Errorf("dropping the 40%% smallest batches: accuracy %v, want within 0.03 of %v", acc, base)
	}
	if pruned := rep.Values["size40-pruned"]; pruned < 0.3 {
		t.Errorf("size threshold 40 pruned %.1f%% of requests, want at least 30%%", pruned*100)
	}
	if acc := rep.Values["sim80"]; acc >= 0.6 {
		t.Errorf("dropping the 80%% most similar tasks should collapse accuracy, got %v", acc)
	}
}

func TestAblationKFewerUpdatesCost(t *testing.T) {
	t.Parallel()
	rep := ciReport(t, "ablation-k")
	// The gradient budget is fixed, so a larger K means fewer model updates.
	if k1, k5, k10 := rep.Values["k1"], rep.Values["k5"], rep.Values["k10"]; k5 > k1 || k10 > k5 {
		t.Errorf("accuracy must not increase with K: K=1 %v, K=5 %v, K=10 %v", k1, k5, k10)
	}
}
