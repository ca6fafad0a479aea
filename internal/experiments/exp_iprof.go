package experiments

import (
	"math/rand"

	"fleet/internal/device"
	"fleet/internal/iprof"
	"fleet/internal/metrics"
	"fleet/internal/simrand"
)

// fig12TestDevices are the 20 AWS Device Farm phones of Figure 12(a), in
// log-in order.
var fig12TestDevices = []string{
	"Galaxy S6", "Galaxy S6 Edge", "Nexus 6", "MotoG3", "Moto G (4)",
	"Galaxy Note5", "XT1096", "Galaxy S5", "SM-N900P", "Nexus 5",
	"Lenovo TB-8504F", "Venue 8", "Moto G (2nd Gen)", "Pixel", "HTC U11",
	"SM-G950U1", "XT1254", "HTC One A9", "LG-H910", "LG-H830",
}

// fig13TestDevices are the 5 lab phones of Figure 13, in log-in order.
var fig13TestDevices = []string{
	"Honor 10", "Galaxy S8", "Galaxy S7", "Galaxy S4 mini", "Xperia E3",
}

func modelsByName(names []string) ([]device.Model, error) {
	out := make([]device.Model, 0, len(names))
	for _, n := range names {
		m, err := device.ModelByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// profilerDuel drives the Figure 12/13 A/B comparison: devices log in one
// per round; each logged-in device issues one request per round; a
// round-robin dispatcher alternates each device's requests between I-Prof
// and MAUI. Every executed task reports its measured cost back to the
// profiler that sized it.
func profilerDuel(rep *Report, rng *rand.Rand, trainNames, testNames []string,
	kind iprof.Kind, slo, epsilon float64, rounds int) {
	trainModels, err := modelsByName(trainNames)
	if err != nil {
		rep.addLine("setup error: %v", err)
		return
	}
	testModels, err := modelsByName(testNames)
	if err != nil {
		rep.addLine("setup error: %v", err)
		return
	}

	pretrain := iprof.Collect(rng, trainModels, kind, slo)
	prof, err := iprof.New(iprof.Config{Epsilon: epsilon, RetrainEvery: 100}, pretrain.Observations)
	if err != nil {
		rep.addLine("iprof init: %v", err)
		return
	}
	maui, err := iprof.NewMAUI(pretrain.BatchSizes, pretrain.Costs)
	if err != nil {
		rep.addLine("maui init: %v", err)
		return
	}

	devices := make([]*device.Device, len(testModels))
	reqCount := make([]int, len(testModels))
	var iprofDev, mauiDev []float64
	for round := 0; round < rounds; round++ {
		for i, m := range testModels {
			if i > round { // staggered log-ins: device i joins at round i
				continue
			}
			if devices[i] == nil {
				devices[i] = device.New(m, rand.New(rand.NewSource(rng.Int63())))
			}
			d := devices[i]
			features := iprof.FeaturesOf(d, kind)
			useIProf := reqCount[i]%2 == 0
			reqCount[i]++

			var batch int
			if useIProf {
				batch = prof.BatchSize(m.Name, features, slo)
			} else {
				batch = maui.BatchSize(slo)
			}
			res := d.Execute(batch)
			cost := iprof.CostOf(res, kind)
			dev := iprof.SLODeviation(cost, slo)
			if useIProf {
				iprofDev = append(iprofDev, dev)
				prof.Observe(iprof.Observation{
					DeviceModel: m.Name,
					Features:    iprof.FeaturesOf(d, kind),
					Alpha:       cost / float64(batch),
				})
			} else {
				mauiDev = append(mauiDev, dev)
				maui.Observe(batch, cost)
			}
			d.Idle(45) // requests are spaced out
		}
	}

	unit := "s"
	if kind == iprof.KindEnergy {
		unit = "% battery"
	}
	rep.addLine("%d I-Prof requests, %d MAUI requests, SLO %.3g%s", len(iprofDev), len(mauiDev), slo, unit)
	ip90 := metrics.Percentile(iprofDev, 90)
	mp90 := metrics.Percentile(mauiDev, 90)
	rep.addLine("p90 |cost − SLO|: I-Prof %.4g%s vs MAUI %.4g%s (%.1fx better)",
		ip90, unit, mp90, unit, mp90/ip90)
	rep.addLine("mean |cost − SLO|: I-Prof %.4g%s vs MAUI %.4g%s",
		metrics.Mean(iprofDev), unit, metrics.Mean(mauiDev), unit)
	rep.setValue("iprof-p90", ip90)
	rep.setValue("maui-p90", mp90)
	rep.setValue("ratio-p90", mp90/ip90)
	for _, p := range []float64{50, 75, 90, 99} {
		rep.addLine("  CDF p%-3.0f  I-Prof %.4g  MAUI %.4g", p,
			metrics.Percentile(iprofDev, p), metrics.Percentile(mauiDev, p))
	}
}

func fig12(scale Scale) *Report {
	rep := &Report{}
	rounds := 33 // ≈ 280 test requests, as in the paper
	if scale == ScaleCI {
		rounds = 24
	}
	rep.addLine("computation-time SLO 3 s, 20 AWS devices, staggered log-ins, A/B dispatcher:")
	// Training devices are the lab phones — disjoint from the AWS test set
	// (the paper pre-trains on 15 separate devices). The PA sensitivity ε
	// corresponds to the paper's 0.1 in ms-per-sample units: our slopes are
	// in s/sample, so ε = 2e-4 gives comparable insensitivity.
	profilerDuel(rep, simrand.New(121),
		[]string{"Galaxy S7", "Galaxy S8", "Honor 9", "Honor 10", "Galaxy S4 mini", "Xperia E3"},
		fig12TestDevices, iprof.KindTime, 3.0, 2e-4, rounds)
	rep.addLine("paper: 90%% of tasks deviate ≤0.75s with I-Prof vs 2.7s with MAUI")
	return rep
}

func fig13(scale Scale) *Report {
	rep := &Report{}
	rounds := 12 // ≈ 36 test requests, as in the paper
	if scale == ScaleCI {
		rounds = 10
	}
	rep.addLine("energy SLO 0.075%% battery, 5 lab devices, ε=6e-5:")
	// Pre-train on AWS models disjoint from the lab set (the paper uses 15
	// separate training devices; enough to avoid interpolating the 6-dim
	// energy feature space exactly).
	profilerDuel(rep, simrand.New(131),
		[]string{"Galaxy S6", "Galaxy S6 Edge", "Nexus 6", "Nexus 5", "MotoG3",
			"Moto G (4)", "Galaxy Note5", "Pixel", "HTC U11", "SM-G950U1",
			"XT1254", "Venue 8", "Galaxy S5", "LG-H910", "HTC One A9"},
		fig13TestDevices, iprof.KindEnergy, 0.075, 6e-5, rounds)
	rep.addLine("paper: 90%% of tasks deviate ≤0.01%% with I-Prof vs 0.19%% with MAUI")
	return rep
}
