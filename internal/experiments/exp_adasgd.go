package experiments

import (
	"fmt"
	"math/rand"

	"fleet/internal/core"
	"fleet/internal/data"
	"fleet/internal/dp"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/simrand"
)

// adaConfig returns the paper's AdaSGD configuration (§3.2): s% = 99.7.
func adaConfig() learning.AdaSGDConfig {
	return learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 30}
}

// stalenessSetup is one of the paper's controlled staleness regimes.
type stalenessSetup struct {
	name      string
	mu, sigma float64
}

// d1 and d2 are the §3.2 staleness distributions.
var (
	d1 = stalenessSetup{name: "D1", mu: 6, sigma: 2}
	d2 = stalenessSetup{name: "D2", mu: 12, sigma: 4}
)

// mnistNonIID builds the non-IID MNIST population of §3.2 at the given
// scale.
func mnistNonIID(scale Scale, seed int64) (users [][]nn.Sample, test []nn.Sample, arch nn.Arch, lr float64, batch, steps, evalEvery int) {
	rng := simrand.New(seed)
	if scale == ScaleFull {
		ds := data.SyntheticMNIST(seed, 1)
		return data.PartitionNonIID(rng, ds.Train, 100, 2), ds.Test,
			nn.ArchMNIST, 5e-2, 100, 4000, 200
	}
	ds := data.TinyMNIST(seed, 40, 10)
	return data.PartitionNonIID(rng, ds.Train, 20, 2), ds.Test,
		nn.ArchTinyMNIST, 0.03, 20, 1200, 100
}

func fig5(Scale) *Report {
	rep := &Report{}
	const tauThres = 24.0
	rep.addLine("gradient scaling vs staleness (τ_thres = %.0f, s%% percentile of history)", tauThres)
	rep.addLine("%4s  %10s  %10s  %10s", "τ", "AdaSGD", "DynSGD", "FedAvg")
	for _, tau := range []int{0, 3, 6, 12, 24, 36, 48} {
		ada := learning.ExponentialDampening(tau, tauThres)
		dyn := learning.InverseDampening(tau)
		rep.addLine("%4d  %10.4f  %10.4f  %10.4f", tau, ada, dyn, 1.0)
	}
	// The similarity-boosted straggler of Figure 5: τ=48 with near-zero
	// label similarity saturates to full weight (AdaSGDConfig.SimFloor).
	ada := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7})
	for i := 0; i < 100; i++ {
		ada.Observe(learning.GradientMeta{Staleness: 24})
	}
	boosted := ada.Scale(learning.GradientMeta{Staleness: 48, Similarity: 0.02})
	rep.addLine("straggler τ=48 with sim=0.02 boosted to %.4f (vs %.6f unboosted)",
		boosted, learning.ExponentialDampening(48, tauThres))
	rep.setValue("intersection", learning.ExponentialDampening(12, tauThres)-learning.InverseDampening(12))
	return rep
}

func fig8(scale Scale) *Report {
	rep := &Report{}
	users, test, arch, lr, batch, steps, evalEvery := mnistNonIID(scale, 8)

	run := func(alg learning.Algorithm, st stalenessSetup) *core.AsyncResult {
		return runAsync(core.AsyncConfig{
			Arch: arch, Algorithm: alg, LearningRate: lr, BatchSize: batch,
			Steps: steps, EvalEvery: evalEvery, Seed: 42,
			Staleness: core.GaussianStaleness(st.mu, st.sigma),
		}, users, test)
	}
	ssgd := runAsync(core.AsyncConfig{
		Arch: arch, Algorithm: learning.SSGD{}, LearningRate: lr, BatchSize: batch,
		Steps: steps, EvalEvery: evalEvery, Seed: 42,
	}, users, test)
	rep.addLine("%-22s final accuracy %.3f (ideal)", "SSGD (staleness-free)", ssgd.FinalAccuracy)
	rep.setValue("ssgd", ssgd.FinalAccuracy)

	// Convergence-speed target: 80% of SSGD's final accuracy.
	target := 0.8 * ssgd.FinalAccuracy
	for _, st := range []stalenessSetup{d1, d2} {
		ada := run(learning.NewAdaSGD(adaConfig()), st)
		dyn := run(learning.DynSGD{}, st)
		adaSteps := ada.Accuracy.StepsToReach(target)
		dynSteps := dyn.Accuracy.StepsToReach(target)
		speedup := 0.0
		if adaSteps > 0 && dynSteps > 0 {
			speedup = (dynSteps - adaSteps) / dynSteps * 100
		}
		rep.addLine("%s: AdaSGD final %.3f (target@%.0f steps) | DynSGD final %.3f (target@%.0f steps) | AdaSGD %.1f%% faster",
			st.name, ada.FinalAccuracy, adaSteps, dyn.FinalAccuracy, dynSteps, speedup)
		rep.setValue("ada-"+st.name, ada.FinalAccuracy)
		rep.setValue("dyn-"+st.name, dyn.FinalAccuracy)
		rep.setValue("speedup-"+st.name, speedup)
	}
	fed := run(learning.FedAvg{}, d2)
	rep.addLine("%-22s final accuracy %.3f (staleness-unaware, diverges/lags)", "FedAvg (D2)", fed.FinalAccuracy)
	rep.setValue("fedavg", fed.FinalAccuracy)
	return rep
}

// fig9Sampler draws D1 staleness for everyone except workers holding
// class-0 data, who are pinned to τ = 4·τ_thres = 48 (D1 ⇒ τ_thres = 12).
func fig9Sampler() core.StalenessSampler {
	base := core.GaussianStaleness(d1.mu, d1.sigma)
	return func(rng *rand.Rand, workerID int, labelCounts []int) int {
		if len(labelCounts) > 0 && labelCounts[0] > 0 {
			return 48
		}
		return base(rng, workerID, labelCounts)
	}
}

// fig9Population builds the long-tail straggler setup of §3.2: class 0 is
// present *only* on straggler workers (two users holding all class-0 data),
// the remaining classes are dealt non-IID to everyone else.
func fig9Population(scale Scale, seed int64) (users [][]nn.Sample, test []nn.Sample, arch nn.Arch, lr float64, batch, steps, evalEvery int) {
	rng := simrand.New(seed)
	var ds *data.Dataset
	if scale == ScaleFull {
		ds = data.SyntheticMNIST(seed, 1)
		arch, lr, batch, steps, evalEvery = nn.ArchMNIST, 5e-2, 100, 4000, 200
	} else {
		ds = data.TinyMNIST(seed, 40, 10)
		arch, lr, batch, steps, evalEvery = nn.ArchTinyMNIST, 0.03, 20, 1200, 100
	}
	var class0, rest []nn.Sample
	for _, s := range ds.Train {
		if s.Label == 0 {
			class0 = append(class0, s)
		} else {
			rest = append(rest, s)
		}
	}
	users = append(users, class0[:len(class0)/2], class0[len(class0)/2:])
	users = append(users, data.PartitionNonIID(rng, rest, 18, 2)...)
	return users, ds.Test, arch, lr, batch, steps, evalEvery
}

func fig9(scale Scale) *Report {
	rep := &Report{}
	users, test, arch, lr, batch, steps, evalEvery := fig9Population(scale, 9)

	run := func(alg learning.Algorithm, staleness core.StalenessSampler) *core.AsyncResult {
		return runAsync(core.AsyncConfig{
			Arch: arch, Algorithm: alg, LearningRate: lr, BatchSize: batch,
			Steps: steps, EvalEvery: evalEvery, Seed: 43,
			Staleness: staleness, TrackClasses: []int{0},
		}, users, test)
	}
	ada := run(learning.NewAdaSGD(adaConfig()), fig9Sampler())
	dyn := run(learning.DynSGD{}, fig9Sampler())
	ssgd := run(learning.SSGD{}, nil)

	rep.addLine("class-0 gradients pinned to τ=48 (= 4·τ_thres); class-0 test accuracy:")
	rep.addLine("%-8s class-0 final %.3f | overall %.3f (ideal)", "SSGD",
		ssgd.ClassAccuracy[0].FinalY(), ssgd.FinalAccuracy)
	rep.addLine("%-8s class-0 final %.3f | overall %.3f (similarity boost recovers stragglers)",
		"AdaSGD", ada.ClassAccuracy[0].FinalY(), ada.FinalAccuracy)
	rep.addLine("%-8s class-0 final %.3f | overall %.3f", "DynSGD",
		dyn.ClassAccuracy[0].FinalY(), dyn.FinalAccuracy)
	rep.setValue("ada-class0", ada.ClassAccuracy[0].FinalY())
	rep.setValue("dyn-class0", dyn.ClassAccuracy[0].FinalY())

	// Figure 9(b): CDF of the applied gradient scaling factors.
	for name, res := range map[string]*core.AsyncResult{"AdaSGD": ada, "DynSGD": dyn} {
		small := 0
		for _, s := range res.Scales {
			if s <= learning.InverseDampening(12) { // Λ(τ_thres) marker
				small++
			}
		}
		rep.addLine("%s: %.1f%% of scales ≤ Λ(τ_thres)=%.3f", name,
			float64(small)/float64(len(res.Scales))*100, learning.InverseDampening(12))
	}
	return rep
}

func fig10(scale Scale) *Report {
	rep := &Report{}
	rng := simrand.New(10)

	type setup struct {
		name  string
		users [][]nn.Sample
		test  []nn.Sample
		arch  nn.Arch
		lr    float64
		steps int
		batch int
	}
	var setups []setup
	if scale == ScaleFull {
		em := data.SyntheticEMNIST(10, 1)
		cf := data.SyntheticCIFAR100(11, 1)
		setups = []setup{
			{"E-MNIST (IID)", data.PartitionIID(rng, em.Train, 100), em.Test, nn.ArchEMNIST, 8e-2, 8000, 100},
			{"CIFAR-100 (IID)", data.PartitionIID(rng, cf.Train, 100), cf.Test, nn.ArchCIFAR100, 15e-2, 24000, 100},
		}
	} else {
		em := data.TinyMNIST(10, 40, 10)
		cf := data.TinyCIFAR(11, 30, 8)
		setups = []setup{
			{"tiny-MNIST (IID)", data.PartitionIID(rng, em.Train, 20), em.Test, nn.ArchTinyMNIST, 0.03, 1000, 20},
			{"tiny-CIFAR (IID)", data.PartitionIID(rng, cf.Train, 20), cf.Test, nn.ArchTinyCIFAR, 0.1, 200, 20},
		}
	}

	for _, s := range setups {
		run := func(alg learning.Algorithm, st core.StalenessSampler) float64 {
			return runAsync(core.AsyncConfig{
				Arch: s.arch, Algorithm: alg, LearningRate: s.lr, BatchSize: s.batch,
				Steps: s.steps, EvalEvery: s.steps / 4, Seed: 44, Staleness: st,
			}, s.users, s.test).FinalAccuracy
		}
		st := func() core.StalenessSampler { return core.GaussianStaleness(d2.mu, d2.sigma) }
		ada := run(learning.NewAdaSGD(adaConfig()), st())
		dyn := run(learning.DynSGD{}, st())
		fed := run(learning.FedAvg{}, st())
		ssgd := run(learning.SSGD{}, nil)
		rep.addLine("%s: SSGD %.3f (ideal) | AdaSGD %.3f | DynSGD %.3f | FedAvg %.3f",
			s.name, ssgd, ada, dyn, fed)
		rep.setValue("ada-"+s.name, ada)
		rep.setValue("dyn-"+s.name, dyn)
		rep.setValue("fed-"+s.name, fed)
		rep.setValue("ssgd-"+s.name, ssgd)
	}
	return rep
}

func fig11(scale Scale) *Report {
	rep := &Report{}
	users, test, arch, lr, batch, steps, evalEvery := mnistNonIID(scale, 11)
	// Figure 11 uses IID MNIST; re-partition.
	rng := simrand.New(12)
	var flat []nn.Sample
	for _, u := range users {
		flat = append(flat, u...)
	}
	users = data.PartitionIID(rng, flat, len(users))

	// δ = 1/N² with N the training-set size; q = batch/N (§3.2).
	n := float64(len(flat))
	delta := 1 / (n * n)
	q := float64(batch) / n

	run := func(alg learning.Algorithm, noise float64) float64 {
		var dpCfg *dp.Config
		if noise > 0 {
			dpCfg = &dp.Config{ClipNorm: 4, NoiseMultiplier: noise, BatchSize: batch}
		}
		return runAsync(core.AsyncConfig{
			Arch: arch, Algorithm: alg, LearningRate: lr, BatchSize: batch,
			Steps: steps, EvalEvery: evalEvery, Seed: 45,
			Staleness: core.GaussianStaleness(d2.mu, d2.sigma), DP: dpCfg,
		}, users, test).FinalAccuracy
	}

	rep.addLine("IID MNIST, staleness D2, δ=1/N²=%.2e, q=%.2e, T=%d", delta, q, steps)
	for _, eps := range []float64{0, 13.66, 1.75} {
		noise := 0.0
		label := "no DP"
		if eps > 0 {
			sigma, err := dp.SigmaFor(q, eps, steps, delta)
			if err != nil {
				rep.addLine("ε=%.2f: %v", eps, err)
				continue
			}
			noise = sigma
			label = fmt.Sprintf("ε=%.2f (σ=%.2f)", eps, sigma)
		}
		ada := run(learning.NewAdaSGD(adaConfig()), noise)
		dyn := run(learning.DynSGD{}, noise)
		rep.addLine("%-18s AdaSGD %.3f | DynSGD %.3f", label, ada, dyn)
		rep.setValue(fmt.Sprintf("ada-eps%.2f", eps), ada)
		rep.setValue(fmt.Sprintf("dyn-eps%.2f", eps), dyn)
	}
	return rep
}

func ablationDampening(scale Scale) *Report {
	rep := &Report{}
	// Averaged over seeds: single CI-scale runs are noisy.
	seeds := []int64{13, 14, 15}
	if scale == ScaleFull {
		seeds = []int64{13}
	}
	run := func(mk func() learning.Algorithm) float64 {
		total := 0.0
		for _, seed := range seeds {
			users, test, arch, lr, batch, steps, evalEvery := mnistNonIID(scale, seed)
			total += runAsync(core.AsyncConfig{
				Arch: arch, Algorithm: mk(), LearningRate: lr, BatchSize: batch,
				Steps: steps, EvalEvery: evalEvery, Seed: 46 + seed,
				Staleness: core.GaussianStaleness(d2.mu, d2.sigma),
			}, users, test).FinalAccuracy
		}
		return total / float64(len(seeds))
	}
	rep.addLine("dampening-function ablation under D2 staleness (mean over %d seeds):", len(seeds))
	for _, row := range []struct {
		key, label string
		mk         func() learning.Algorithm
	}{
		{"exponential", "exponential (AdaSGD):", func() learning.Algorithm {
			c := adaConfig()
			c.DisableSimilarityBoost = true
			return learning.NewAdaSGD(c)
		}},
		{"inverse", "inverse (DynSGD):", func() learning.Algorithm { return learning.DynSGD{} }},
		{"constant", "constant 1 (FedAvg):", func() learning.Algorithm { return learning.FedAvg{} }},
		{"drop", "hard drop (τ>0 ⇒ 0):", func() learning.Algorithm { return dropStale{} }},
	} {
		acc := run(row.mk)
		rep.addLine("%-21s %.3f", row.label, acc)
		rep.setValue(row.key, acc)
	}
	return rep
}

// dropStale is the ablation baseline that discards every stale gradient
// (Standard FL's behaviour transplanted to the async setting).
type dropStale struct{}

func (dropStale) Name() string { return "DropStale" }
func (dropStale) Scale(meta learning.GradientMeta) float64 {
	if meta.Staleness > 0 {
		return 0
	}
	return 1
}
func (d dropStale) AbsorbWeight(meta learning.GradientMeta) float64 { return d.Scale(meta) }
func (dropStale) Observe(learning.GradientMeta)                     {}

func ablationSimilarity(scale Scale) *Report {
	rep := &Report{}
	// Same population and seed as Figure 9; only the boost is toggled.
	users, test, arch, lr, batch, steps, evalEvery := fig9Population(scale, 9)
	run := func(disable bool) *core.AsyncResult {
		c := adaConfig()
		c.DisableSimilarityBoost = disable
		return runAsync(core.AsyncConfig{
			Arch: arch, Algorithm: learning.NewAdaSGD(c), LearningRate: lr, BatchSize: batch,
			Steps: steps, EvalEvery: evalEvery, Seed: 43,
			Staleness: fig9Sampler(), TrackClasses: []int{0},
		}, users, test)
	}
	with := run(false)
	without := run(true)
	rep.addLine("similarity-boost ablation (class-0 stragglers at τ=48):")
	rep.addLine("boost on:  class-0 %.3f, overall %.3f", with.ClassAccuracy[0].FinalY(), with.FinalAccuracy)
	rep.addLine("boost off: class-0 %.3f, overall %.3f", without.ClassAccuracy[0].FinalY(), without.FinalAccuracy)
	rep.setValue("class0-with", with.ClassAccuracy[0].FinalY())
	rep.setValue("class0-without", without.ClassAccuracy[0].FinalY())
	return rep
}

func ablationSPct(scale Scale) *Report {
	rep := &Report{}
	users, test, arch, lr, batch, steps, evalEvery := mnistNonIID(scale, 15)
	rep.addLine("s%% mis-estimation ablation under D2 (paper: underestimate slows, overestimate risks divergence):")
	for _, pct := range []float64{50, 90, 99.7, 100} {
		cfg := adaConfig()
		cfg.NonStragglerPct = pct
		acc := runAsync(core.AsyncConfig{
			Arch: arch, Algorithm: learning.NewAdaSGD(cfg), LearningRate: lr, BatchSize: batch,
			Steps: steps, EvalEvery: evalEvery, Seed: 48,
			Staleness: core.GaussianStaleness(d2.mu, d2.sigma),
		}, users, test).FinalAccuracy
		rep.addLine("s%%=%5.1f: final accuracy %.3f", pct, acc)
		rep.setValue(fmt.Sprintf("s%.1f", pct), acc)
	}
	return rep
}

func ablationK(scale Scale) *Report {
	rep := &Report{}
	users, test, arch, lr, batch, steps, evalEvery := mnistNonIID(scale, 16)
	rep.addLine("aggregation-parameter K ablation (same gradient budget, D1 staleness):")
	for _, k := range []int{1, 5, 10} {
		acc := runAsync(core.AsyncConfig{
			Arch: arch, Algorithm: learning.NewAdaSGD(adaConfig()), LearningRate: lr, BatchSize: batch,
			Steps: steps / k, K: k, EvalEvery: evalEvery, Seed: 49,
			Staleness: core.GaussianStaleness(d1.mu, d1.sigma),
		}, users, test).FinalAccuracy
		rep.addLine("K=%2d: final accuracy %.3f (%d updates)", k, acc, steps/k)
		rep.setValue(fmt.Sprintf("k%d", k), acc)
	}
	return rep
}
