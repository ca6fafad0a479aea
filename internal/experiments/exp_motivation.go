package experiments

import (
	"fleet/internal/core"
	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/nn"
	"fleet/internal/simrand"
)

func fig3(scale Scale) *Report {
	rep := &Report{}
	var (
		ds          *data.Dataset
		arch        nn.Arch
		strongBatch int
		steps       int
		lr          float64
	)
	// A hard (high-noise) dataset is essential here: the weak workers'
	// batch-1 gradients must be genuinely noisy for the Figure-3 effect.
	if scale == ScaleFull {
		ds = data.Generate(data.SyntheticConfig{
			Name: "fig3-full", Classes: 10, TrainPerClass: 200, TestPerClass: 40,
			C: 3, H: 16, W: 16, NoiseStd: 1.0, Seed: 3,
		})
		arch, strongBatch, steps, lr = nn.ArchTinyCIFAR, 128, 150, 0.2
	} else {
		ds = data.Generate(data.SyntheticConfig{
			Name: "fig3-ci", Classes: 10, TrainPerClass: 60, TestPerClass: 12,
			C: 3, H: 16, W: 16, NoiseStd: 1.0, Seed: 3,
		})
		arch, strongBatch, steps, lr = nn.ArchTinyCIFAR, 64, 60, 0.2
	}

	configs := []struct {
		name         string
		strong, weak int
	}{
		{"1 strong", 1, 0},
		{"10 strong", 10, 0},
		{"10 strong + 2 weak", 10, 2},
		{"10 strong + 4 weak", 10, 4},
	}
	rep.addLine("synchronous SGD, strong batch %d, weak batch 1 (CIFAR-style CNN):", strongBatch)
	for _, c := range configs {
		series := core.RunSyncMixed(core.SyncMixedConfig{
			Arch: arch, StrongWorkers: c.strong, WeakWorkers: c.weak,
			StrongBatch: strongBatch, WeakBatch: 1,
			LearningRate: lr, Steps: steps, EvalEvery: steps / 3, Seed: 31,
		}, ds.Train, ds.Test)
		rep.addLine("%-20s final accuracy %.3f", c.name, series.FinalY())
		rep.setValue(c.name, series.FinalY())
	}
	rep.addLine("expected shape: weak workers erase the multi-worker benefit (≈ 1-strong level)")
	return rep
}

func fig4(scale Scale) *Report {
	rep := &Report{}
	sweeps := 12
	maxBatch := 3200
	if scale == ScaleCI {
		sweeps = 8
		maxBatch = 1600
	}
	rep.addLine("mini-batch sweep up then down per device; measured per-sample slope α (s/sample):")
	for _, name := range []string{"Galaxy S7", "Xperia E3", "Honor 10"} {
		m, err := device.ModelByName(name)
		if err != nil {
			rep.addLine("%s: %v", name, err)
			continue
		}
		d := device.New(m, simrand.New(41))
		// "Up" phase: increasing batches heat the device.
		var firstAlpha, lastUpAlpha float64
		batch := maxBatch / sweeps
		for i := 1; i <= sweeps; i++ {
			n := batch * i
			res := d.Execute(n)
			alpha := res.LatencySec / float64(n)
			if i == 1 {
				firstAlpha = alpha
			}
			lastUpAlpha = alpha
		}
		hotTemp := d.TempC()
		// Cool down, then "down" phase.
		d.Idle(1e6)
		var lastDownAlpha float64
		for i := sweeps; i >= 1; i-- {
			n := batch * i
			res := d.Execute(n)
			lastDownAlpha = res.LatencySec / float64(n)
			d.Idle(120)
		}
		rep.addLine("%-12s cool α=%.5f, hot α=%.5f (%.0f°C), cooled-down α=%.5f",
			name, firstAlpha, lastUpAlpha, hotTemp, lastDownAlpha)
		rep.setValue(name+"-cool", firstAlpha)
		rep.setValue(name+"-hot", lastUpAlpha)
	}
	rep.addLine("expected shape: α is device-specific and rises with temperature (thermal throttling)")
	return rep
}
