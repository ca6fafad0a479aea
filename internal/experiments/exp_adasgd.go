package experiments

import (
	"fmt"
	"math/rand"

	"fleet/internal/core"
	"fleet/internal/data"
	"fleet/internal/dp"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
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

func (s stalenessSetup) sampler() core.StalenessSampler { return core.GaussianStaleness(s.mu, s.sigma) }

// population is the users' local datasets with their test set, and the run
// parameters every training on them shares.
type population struct {
	users                   [][]nn.Sample
	test                    []nn.Sample
	arch                    nn.Arch
	lr                      float64
	batch, steps, evalEvery int
}

// config is one run of alg on the population, under staleness st.
func (p population) config(alg learning.Algorithm, seed int64, st core.StalenessSampler) core.AsyncConfig {
	return core.AsyncConfig{
		Arch: p.arch, Algorithm: alg, LearningRate: p.lr, BatchSize: p.batch,
		Steps: p.steps, EvalEvery: p.evalEvery, Seed: seed, Staleness: st,
	}
}

// iid re-deals the population's samples uniformly to as many users.
func (p population) iid(seed int64) population {
	var flat []nn.Sample
	for _, u := range p.users {
		flat = append(flat, u...)
	}
	p.users = data.PartitionIID(simrand.New(seed), flat, len(p.users))
	return p
}

// mnist generates the MNIST-style dataset of §3.2 at the given scale with
// its run parameters; the caller deals the training set to users.
func mnist(scale Scale, seed int64) (population, []nn.Sample) {
	if scale == ScaleFull {
		ds := data.SyntheticMNIST(seed, 1)
		return population{test: ds.Test, arch: nn.ArchMNIST, lr: 5e-2, batch: 100, steps: 4000, evalEvery: 200}, ds.Train
	}
	ds := data.TinyMNIST(seed, 40, 10)
	return population{test: ds.Test, arch: nn.ArchTinyMNIST, lr: 0.03, batch: 20, steps: 1200, evalEvery: 100}, ds.Train
}

// mnistNonIID builds the non-IID MNIST population of §3.2 at the given
// scale.
func mnistNonIID(scale Scale, seed int64) population {
	p, train := mnist(scale, seed)
	users := 20
	if scale == ScaleFull {
		users = 100
	}
	p.users = data.PartitionNonIID(simrand.New(seed), train, users, 2)
	return p
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
	// label similarity saturates to full weight (AdaSGD's similarity floor).
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
	pop := mnistNonIID(scale, 8)
	run := func(alg learning.Algorithm, st core.StalenessSampler) *core.AsyncResult {
		return core.RunAsync(pop.config(alg, 42, st), pop.users, pop.test)
	}
	ssgd := run(learning.SSGD{}, nil)
	rep.addLine("%-22s final accuracy %.3f (ideal)", "SSGD (staleness-free)", ssgd.FinalAccuracy)
	rep.setValue("ssgd", ssgd.FinalAccuracy)

	// Convergence-speed target: 80% of SSGD's final accuracy.
	target := 0.8 * ssgd.FinalAccuracy
	for _, st := range []stalenessSetup{d1, d2} {
		ada := run(learning.NewAdaSGD(adaConfig()), st.sampler())
		dyn := run(learning.DynSGD{}, st.sampler())
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
	fed := run(learning.FedAvg{}, d2.sampler())
	rep.addLine("%-22s final accuracy %.3f (staleness-unaware, diverges/lags)", "FedAvg (D2)", fed.FinalAccuracy)
	rep.setValue("fedavg", fed.FinalAccuracy)
	return rep
}

// fig9Sampler draws D1 staleness for everyone except workers holding
// class-0 data, who are pinned to τ = 4·τ_thres = 48 (D1 ⇒ τ_thres = 12).
func fig9Sampler() core.StalenessSampler {
	base := d1.sampler()
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
func fig9Population(scale Scale, seed int64) population {
	p, train := mnist(scale, seed)
	var class0, rest []nn.Sample
	for _, s := range train {
		if s.Label == 0 {
			class0 = append(class0, s)
		} else {
			rest = append(rest, s)
		}
	}
	p.users = append(p.users, class0[:len(class0)/2], class0[len(class0)/2:])
	p.users = append(p.users, data.PartitionNonIID(simrand.New(seed), rest, 18, 2)...)
	return p
}

// class0Run is a Figure-9 run: class-0 stragglers, class-0 accuracy tracked.
func class0Run(pop population, alg learning.Algorithm, st core.StalenessSampler) *core.AsyncResult {
	cfg := pop.config(alg, 43, st)
	cfg.TrackClasses = []int{0}
	return core.RunAsync(cfg, pop.users, pop.test)
}

func fig9(scale Scale) *Report {
	rep := &Report{}
	pop := fig9Population(scale, 9)
	ada := class0Run(pop, learning.NewAdaSGD(adaConfig()), fig9Sampler())
	dyn := class0Run(pop, learning.DynSGD{}, fig9Sampler())
	ssgd := class0Run(pop, learning.SSGD{}, nil)

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
		name string
		population
	}
	// users and batch are 100 at full scale, 20 at CI scale.
	iid := func(name string, ds *data.Dataset, n int, arch nn.Arch, lr float64, steps int) setup {
		return setup{name, population{
			users: data.PartitionIID(rng, ds.Train, n), test: ds.Test,
			arch: arch, lr: lr, batch: n, steps: steps, evalEvery: steps / 4,
		}}
	}
	var setups []setup
	if scale == ScaleFull {
		setups = []setup{
			iid("E-MNIST (IID)", data.SyntheticEMNIST(10, 1), 100, nn.ArchEMNIST, 8e-2, 8000),
			iid("CIFAR-100 (IID)", data.SyntheticCIFAR100(11, 1), 100, nn.ArchCIFAR100, 15e-2, 24000),
		}
	} else {
		setups = []setup{
			iid("tiny-MNIST (IID)", data.TinyMNIST(10, 40, 10), 20, nn.ArchTinyMNIST, 0.03, 1000),
			iid("tiny-CIFAR (IID)", data.TinyCIFAR(11, 30, 8), 20, nn.ArchTinyCIFAR, 0.1, 200),
		}
	}

	for _, s := range setups {
		run := func(alg learning.Algorithm, st core.StalenessSampler) float64 {
			return core.RunAsync(s.config(alg, 44, st), s.users, s.test).FinalAccuracy
		}
		st := d2.sampler
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
	// Figure 11 uses IID MNIST.
	pop := mnistNonIID(scale, 11).iid(12)

	// δ = 1/N² with N the training-set size; q = batch/N (§3.2).
	n := 0.0
	for _, u := range pop.users {
		n += float64(len(u))
	}
	delta := 1 / (n * n)
	q := float64(pop.batch) / n

	// DP is the served pipeline's dp stage (clip 4, noise σ per batch) in
	// front of the staleness scaling.
	run := func(alg learning.Algorithm, noise float64) float64 {
		var pipe *pipeline.Pipeline
		if noise > 0 {
			var err error
			pipe, err = pipeline.Build(fmt.Sprintf("dp(4,%g),staleness", noise), "mean",
				pipeline.BuildOptions{Algorithm: alg, Seed: 45})
			if err != nil {
				panic(fmt.Sprintf("experiments: building the dp pipeline: %v", err))
			}
		}
		cfg := pop.config(alg, 45, d2.sampler())
		cfg.Pipeline = pipe
		return core.RunAsync(cfg, pop.users, pop.test).FinalAccuracy
	}

	rep.addLine("IID MNIST, staleness D2, δ=1/N²=%.2e, q=%.2e, T=%d", delta, q, pop.steps)
	for _, eps := range []float64{0, 13.66, 1.75} {
		noise := 0.0
		label := "no DP"
		if eps > 0 {
			sigma, err := dp.SigmaFor(q, eps, pop.steps, delta)
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
			pop := mnistNonIID(scale, seed)
			total += core.RunAsync(pop.config(mk(), 46+seed, d2.sampler()), pop.users, pop.test).FinalAccuracy
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
	pop := fig9Population(scale, 9)
	run := func(disable bool) *core.AsyncResult {
		c := adaConfig()
		c.DisableSimilarityBoost = disable
		return class0Run(pop, learning.NewAdaSGD(c), fig9Sampler())
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
	pop := mnistNonIID(scale, 15)
	rep.addLine("s%% mis-estimation ablation under D2 (paper: underestimate slows, overestimate risks divergence):")
	for _, pct := range []float64{50, 90, 99.7, 100} {
		cfg := adaConfig()
		cfg.NonStragglerPct = pct
		acc := core.RunAsync(pop.config(learning.NewAdaSGD(cfg), 48, d2.sampler()), pop.users, pop.test).FinalAccuracy
		rep.addLine("s%%=%5.1f: final accuracy %.3f", pct, acc)
		rep.setValue(fmt.Sprintf("s%.1f", pct), acc)
	}
	return rep
}

func ablationK(scale Scale) *Report {
	rep := &Report{}
	pop := mnistNonIID(scale, 16)
	rep.addLine("aggregation-parameter K ablation (same gradient budget, D1 staleness):")
	for _, k := range []int{1, 5, 10} {
		cfg := pop.config(learning.NewAdaSGD(adaConfig()), 49, d1.sampler())
		cfg.Steps, cfg.K = pop.steps/k, k
		acc := core.RunAsync(cfg, pop.users, pop.test).FinalAccuracy
		rep.addLine("K=%2d: final accuracy %.3f (%d updates)", k, acc, cfg.Steps)
		rep.setValue(fmt.Sprintf("k%d", k), acc)
	}
	return rep
}
