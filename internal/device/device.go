// Package device simulates the heterogeneous fleet of commercial Android
// phones used in the paper's evaluation (40 devices, AWS Device Farm + lab).
//
// The simulator reproduces the empirical behaviour that drives I-Prof's
// design (Figure 4):
//
//   - computation time and energy grow linearly with mini-batch size,
//     t = α·n, with a device-specific slope α;
//   - α drifts with operating temperature (thermal throttling), so the same
//     device can be measurably slower when hot;
//   - measurements are noisy, and the noise grows when the device is hot.
//
// Devices expose exactly the feature vector that I-Prof reads through the
// stock Android API (§2.2): available memory, total memory, temperature,
// and the sum of maximum CPU frequencies — plus, for the energy predictor,
// the energy consumption per non-idle CPU time.
package device

import (
	"fmt"
	"math/rand"
)

// AmbientTempC is the resting device temperature.
const AmbientTempC = 25.0

// Model is a phone model's static characteristics. AlphaTime/AlphaEnergy
// are the cool-device per-sample cost slopes; the effective slope rises
// with temperature (thermal throttling).
type Model struct {
	Name string
	// TotalMemMB is the device RAM.
	TotalMemMB float64
	// MaxFreqGHzSum is the sum of maximum frequencies over all CPU cores
	// (the compute-power feature of §2.2).
	MaxFreqGHzSum float64
	// BigCores and LittleCores describe the ARM big.LITTLE topology.
	// LittleCores is 0 for symmetric (ARMv7-style) parts.
	BigCores    int
	LittleCores int
	// AlphaTime is seconds of gradient computation per training example on
	// the FLeet allocation (big cores), at ambient temperature.
	AlphaTime float64
	// AlphaEnergy is the battery percentage drained per training example.
	AlphaEnergy float64
	// ThermalRatePerSec is the °C temperature rise per second of compute.
	ThermalRatePerSec float64
	// CoolRatePerSec is the °C temperature decay per second of idling.
	CoolRatePerSec float64
	// ThermalCoeff is the fractional slope increase per °C above ambient
	// (thermal throttling strength).
	ThermalCoeff float64
	// LittleSpeed is the per-core throughput of a LITTLE core relative to a
	// big core (big = 1.0). Zero means the common default (0.35). Vendors
	// tune this ratio differently, which is precisely what makes CALOREE's
	// performance hash tables non-transferable across vendors (Table 2).
	LittleSpeed float64
	// SwitchCostSec is the latency penalty of changing the core
	// configuration between two consecutive tasks (scheduler migration,
	// DVFS re-ramp, cache refill). Zero means the common default (0.08 s).
	// Vendor schedulers differ wildly here; on EAS-based Honor builds a
	// core-set change is far more disruptive, which is the second effect
	// behind CALOREE's poor transfer in Table 2.
	SwitchCostSec float64
	// NoiseStd is the base relative measurement noise.
	NoiseStd float64
	// HotNoiseStd is additional relative noise per °C above ambient,
	// reproducing the high-temperature variance of Figure 4(b).
	HotNoiseStd float64
	// BatteryMWh is the battery capacity.
	BatteryMWh float64
}

// Catalogue returns the simulated phone-model catalogue. Names follow the
// devices in the paper's Figures 12–14 and Table 2; slopes are calibrated so
// that their spread matches Figure 4 (e.g. a Galaxy S6 ≈ 7 Gflops vs Galaxy
// S10 ≈ 51 Gflops — a >7× range).
func Catalogue() []Model {
	return []Model{
		{Name: "Galaxy S6", TotalMemMB: 3072, MaxFreqGHzSum: 10.0, BigCores: 4, LittleCores: 4, AlphaTime: 0.0090, AlphaEnergy: 7.0e-5, ThermalRatePerSec: 0.50, CoolRatePerSec: 0.10, ThermalCoeff: 0.012, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 9800},
		{Name: "Galaxy S6 Edge", TotalMemMB: 3072, MaxFreqGHzSum: 10.0, BigCores: 4, LittleCores: 4, AlphaTime: 0.0088, AlphaEnergy: 6.9e-5, ThermalRatePerSec: 0.50, CoolRatePerSec: 0.10, ThermalCoeff: 0.012, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 9900},
		{Name: "Nexus 6", TotalMemMB: 3072, MaxFreqGHzSum: 10.8, BigCores: 0, LittleCores: 4, AlphaTime: 0.0120, AlphaEnergy: 9.5e-5, ThermalRatePerSec: 0.45, CoolRatePerSec: 0.09, ThermalCoeff: 0.010, NoiseStd: 0.035, HotNoiseStd: 0.001, BatteryMWh: 12300},
		{Name: "MotoG3", TotalMemMB: 2048, MaxFreqGHzSum: 5.6, BigCores: 0, LittleCores: 4, AlphaTime: 0.0200, AlphaEnergy: 1.40e-4, ThermalRatePerSec: 0.35, CoolRatePerSec: 0.08, ThermalCoeff: 0.008, NoiseStd: 0.04, HotNoiseStd: 0.001, BatteryMWh: 9300},
		{Name: "Moto G (4)", TotalMemMB: 2048, MaxFreqGHzSum: 12.2, BigCores: 0, LittleCores: 8, AlphaTime: 0.0160, AlphaEnergy: 1.15e-4, ThermalRatePerSec: 0.35, CoolRatePerSec: 0.08, ThermalCoeff: 0.008, NoiseStd: 0.035, HotNoiseStd: 0.001, BatteryMWh: 11400},
		{Name: "Galaxy Note5", TotalMemMB: 4096, MaxFreqGHzSum: 10.2, BigCores: 4, LittleCores: 4, AlphaTime: 0.0070, AlphaEnergy: 5.6e-5, ThermalRatePerSec: 0.50, CoolRatePerSec: 0.10, ThermalCoeff: 0.013, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 11400},
		{Name: "XT1096", TotalMemMB: 2048, MaxFreqGHzSum: 10.0, BigCores: 0, LittleCores: 4, AlphaTime: 0.0180, AlphaEnergy: 1.30e-4, ThermalRatePerSec: 0.40, CoolRatePerSec: 0.08, ThermalCoeff: 0.009, NoiseStd: 0.04, HotNoiseStd: 0.001, BatteryMWh: 8700},
		{Name: "Galaxy S5", TotalMemMB: 2048, MaxFreqGHzSum: 10.0, BigCores: 0, LittleCores: 4, AlphaTime: 0.0110, AlphaEnergy: 8.5e-5, ThermalRatePerSec: 0.45, CoolRatePerSec: 0.09, ThermalCoeff: 0.010, NoiseStd: 0.035, HotNoiseStd: 0.001, BatteryMWh: 10600},
		{Name: "SM-N900P", TotalMemMB: 3072, MaxFreqGHzSum: 9.2, BigCores: 0, LittleCores: 4, AlphaTime: 0.0150, AlphaEnergy: 1.10e-4, ThermalRatePerSec: 0.45, CoolRatePerSec: 0.09, ThermalCoeff: 0.010, NoiseStd: 0.04, HotNoiseStd: 0.001, BatteryMWh: 12100},
		{Name: "Nexus 5", TotalMemMB: 2048, MaxFreqGHzSum: 9.1, BigCores: 0, LittleCores: 4, AlphaTime: 0.0140, AlphaEnergy: 1.05e-4, ThermalRatePerSec: 0.45, CoolRatePerSec: 0.09, ThermalCoeff: 0.010, NoiseStd: 0.035, HotNoiseStd: 0.001, BatteryMWh: 8700},
		{Name: "Lenovo TB-8504F", TotalMemMB: 2048, MaxFreqGHzSum: 5.7, BigCores: 0, LittleCores: 4, AlphaTime: 0.0170, AlphaEnergy: 1.25e-4, ThermalRatePerSec: 0.35, CoolRatePerSec: 0.08, ThermalCoeff: 0.008, NoiseStd: 0.04, HotNoiseStd: 0.001, BatteryMWh: 18200},
		{Name: "Venue 8", TotalMemMB: 1024, MaxFreqGHzSum: 6.6, BigCores: 0, LittleCores: 4, AlphaTime: 0.0220, AlphaEnergy: 1.55e-4, ThermalRatePerSec: 0.35, CoolRatePerSec: 0.08, ThermalCoeff: 0.008, NoiseStd: 0.045, HotNoiseStd: 0.001, BatteryMWh: 15800},
		{Name: "Moto G (2nd Gen)", TotalMemMB: 1024, MaxFreqGHzSum: 4.8, BigCores: 0, LittleCores: 4, AlphaTime: 0.0210, AlphaEnergy: 1.50e-4, ThermalRatePerSec: 0.35, CoolRatePerSec: 0.08, ThermalCoeff: 0.008, NoiseStd: 0.045, HotNoiseStd: 0.001, BatteryMWh: 8200},
		{Name: "Pixel", TotalMemMB: 4096, MaxFreqGHzSum: 8.4, BigCores: 2, LittleCores: 2, AlphaTime: 0.0050, AlphaEnergy: 4.2e-5, ThermalRatePerSec: 0.50, CoolRatePerSec: 0.10, ThermalCoeff: 0.012, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 10600},
		{Name: "HTC U11", TotalMemMB: 4096, MaxFreqGHzSum: 17.4, BigCores: 4, LittleCores: 4, AlphaTime: 0.0045, AlphaEnergy: 3.8e-5, ThermalRatePerSec: 0.55, CoolRatePerSec: 0.11, ThermalCoeff: 0.013, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 11400},
		{Name: "SM-G950U1", TotalMemMB: 4096, MaxFreqGHzSum: 17.3, BigCores: 4, LittleCores: 4, AlphaTime: 0.0048, AlphaEnergy: 4.0e-5, ThermalRatePerSec: 0.55, CoolRatePerSec: 0.11, ThermalCoeff: 0.013, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 11400},
		{Name: "XT1254", TotalMemMB: 3072, MaxFreqGHzSum: 10.8, BigCores: 0, LittleCores: 4, AlphaTime: 0.0130, AlphaEnergy: 9.8e-5, ThermalRatePerSec: 0.45, CoolRatePerSec: 0.09, ThermalCoeff: 0.010, NoiseStd: 0.035, HotNoiseStd: 0.001, BatteryMWh: 14800},
		{Name: "HTC One A9", TotalMemMB: 3072, MaxFreqGHzSum: 9.8, BigCores: 4, LittleCores: 4, AlphaTime: 0.0100, AlphaEnergy: 7.8e-5, ThermalRatePerSec: 0.45, CoolRatePerSec: 0.09, ThermalCoeff: 0.011, NoiseStd: 0.035, HotNoiseStd: 0.001, BatteryMWh: 8100},
		{Name: "LG-H910", TotalMemMB: 4096, MaxFreqGHzSum: 8.7, BigCores: 2, LittleCores: 2, AlphaTime: 0.0065, AlphaEnergy: 5.2e-5, ThermalRatePerSec: 0.50, CoolRatePerSec: 0.10, ThermalCoeff: 0.012, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 12100},
		{Name: "LG-H830", TotalMemMB: 4096, MaxFreqGHzSum: 10.6, BigCores: 2, LittleCores: 4, AlphaTime: 0.0120, AlphaEnergy: 9.0e-5, ThermalRatePerSec: 0.45, CoolRatePerSec: 0.09, ThermalCoeff: 0.010, NoiseStd: 0.035, HotNoiseStd: 0.001, BatteryMWh: 10600},
		// Lab devices (energy-SLO + resource-allocation experiments).
		{Name: "Galaxy S7", TotalMemMB: 4096, MaxFreqGHzSum: 12.5, BigCores: 4, LittleCores: 4, AlphaTime: 0.0060, AlphaEnergy: 5.0e-5, ThermalRatePerSec: 0.55, CoolRatePerSec: 0.10, ThermalCoeff: 0.015, NoiseStd: 0.03, HotNoiseStd: 0.0015, BatteryMWh: 11400},
		{Name: "Galaxy S8", TotalMemMB: 4096, MaxFreqGHzSum: 17.3, BigCores: 4, LittleCores: 4, AlphaTime: 0.0045, AlphaEnergy: 3.9e-5, SwitchCostSec: 0.12, ThermalRatePerSec: 0.55, CoolRatePerSec: 0.11, ThermalCoeff: 0.013, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 11400},
		{Name: "Honor 9", TotalMemMB: 4096, MaxFreqGHzSum: 15.1, BigCores: 4, LittleCores: 4, AlphaTime: 0.0085, AlphaEnergy: 6.8e-5, LittleSpeed: 0.18, SwitchCostSec: 0.7, ThermalRatePerSec: 0.55, CoolRatePerSec: 0.10, ThermalCoeff: 0.014, NoiseStd: 0.03, HotNoiseStd: 0.001, BatteryMWh: 12100},
		{Name: "Honor 10", TotalMemMB: 4096, MaxFreqGHzSum: 16.4, BigCores: 4, LittleCores: 4, AlphaTime: 0.0035, AlphaEnergy: 3.4e-5, LittleSpeed: 0.10, SwitchCostSec: 3.5, ThermalRatePerSec: 2.2, CoolRatePerSec: 0.35, ThermalCoeff: 0.05, NoiseStd: 0.03, HotNoiseStd: 0.004, BatteryMWh: 12700},
		{Name: "Galaxy S4 mini", TotalMemMB: 1536, MaxFreqGHzSum: 3.4, BigCores: 0, LittleCores: 2, AlphaTime: 0.0230, AlphaEnergy: 1.65e-4, ThermalRatePerSec: 0.30, CoolRatePerSec: 0.08, ThermalCoeff: 0.008, NoiseStd: 0.045, HotNoiseStd: 0.001, BatteryMWh: 7200},
		{Name: "Xperia E3", TotalMemMB: 1024, MaxFreqGHzSum: 4.8, BigCores: 0, LittleCores: 4, AlphaTime: 0.0240, AlphaEnergy: 1.60e-4, ThermalRatePerSec: 0.30, CoolRatePerSec: 0.08, ThermalCoeff: 0.007, NoiseStd: 0.045, HotNoiseStd: 0.001, BatteryMWh: 8900},
	}
}

// Scaled returns a copy of the model whose per-sample cost slopes are
// multiplied by factor — a synthetic speed tier of the same hardware
// (straggler: factor > 1, overclocked: factor < 1). The name is suffixed so
// I-Prof keys the tier as a distinct device model; factor 1 is the identity.
func (m Model) Scaled(factor float64) Model {
	if factor == 1 {
		return m
	}
	m.Name = fmt.Sprintf("%s x%g", m.Name, factor)
	m.AlphaTime *= factor
	m.AlphaEnergy *= factor
	return m
}

// ModelByName looks a model up in the catalogue.
func ModelByName(name string) (Model, error) {
	for _, m := range Catalogue() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("device: unknown model %q", name)
}

// ExecResult is the outcome of one simulated learning task.
type ExecResult struct {
	// LatencySec is the computation time of the task.
	LatencySec float64
	// EnergyPct is the battery percentage consumed.
	EnergyPct float64
	// TempC is the device temperature after the task.
	TempC float64
}

// Device is one simulated phone instance with mutable thermal and memory
// state. Not safe for concurrent use; each worker owns one device.
type Device struct {
	Model Model

	rng        *rand.Rand
	tempC      float64
	availMemMB float64
	lastCfg    *CoreConfig
	switches   int
}

// Switches returns how many configuration changes this device has paid for.
func (d *Device) Switches() int { return d.switches }

// switchCost returns the model's per-switch latency penalty.
func (m Model) switchCost() float64 {
	if m.SwitchCostSec > 0 {
		return m.SwitchCostSec
	}
	return 0.08
}

// New instantiates a device of the given model at ambient temperature.
func New(model Model, rng *rand.Rand) *Device {
	return &Device{
		Model:      model,
		rng:        rng,
		tempC:      AmbientTempC,
		availMemMB: model.TotalMemMB * (0.35 + 0.25*rng.Float64()),
	}
}

// TempC returns the current device temperature.
func (d *Device) TempC() float64 { return d.tempC }

// effectiveAlpha returns the temperature-adjusted per-sample slope for a
// base slope.
func (d *Device) effectiveAlpha(base float64) float64 {
	excess := d.tempC - AmbientTempC
	if excess < 0 {
		excess = 0
	}
	return base * (1 + d.Model.ThermalCoeff*excess)
}

// noise returns a multiplicative noise factor whose spread grows with
// device temperature (Figure 4(b)'s hot-device variance).
func (d *Device) noise() float64 {
	excess := d.tempC - AmbientTempC
	if excess < 0 {
		excess = 0
	}
	std := d.Model.NoiseStd + d.Model.HotNoiseStd*excess
	f := 1 + d.rng.NormFloat64()*std
	if f < 0.5 {
		f = 0.5
	}
	return f
}

// Execute runs one learning task of the given mini-batch size and returns
// the observed latency and energy. Device temperature rises with compute
// time and available memory jitters. Execute always uses the model's
// default core configuration (FLeet's static allocation, §2.4).
func (d *Device) Execute(batchSize int) ExecResult {
	if batchSize < 1 {
		batchSize = 1
	}
	n := float64(batchSize)
	latency := d.effectiveAlpha(d.Model.AlphaTime) * n * d.noise()
	def := d.Model.DefaultConfig()
	if d.lastCfg != nil && *d.lastCfg != def {
		latency += d.Model.switchCost()
		d.switches++
	}
	d.lastCfg = &def
	energy := d.effectiveAlpha(d.Model.AlphaEnergy) * n * d.noise()
	d.tempC += d.Model.ThermalRatePerSec * latency
	if d.tempC > 60 {
		d.tempC = 60
	}
	jitter := 1 + d.rng.NormFloat64()*0.05
	d.availMemMB = clamp(d.availMemMB*jitter, d.Model.TotalMemMB*0.1, d.Model.TotalMemMB*0.8)
	return ExecResult{LatencySec: latency, EnergyPct: energy, TempC: d.tempC}
}

// Idle cools the device for the given number of seconds.
func (d *Device) Idle(seconds float64) {
	d.tempC -= d.Model.CoolRatePerSec * seconds
	if d.tempC < AmbientTempC {
		d.tempC = AmbientTempC
	}
}

// Features returns the I-Prof feature vector available through the stock
// Android API (§2.2): [1, availMemGB, totalMemGB, temperature/10,
// 10/ΣmaxFreqGHz]. The leading 1 is the intercept. Frequency enters
// inverted because the per-sample slope is proportional to 1/throughput —
// in inverse-frequency space the slope is (approximately) linear, so the
// cold-start OLS model extrapolates sanely to faster devices than it was
// trained on.
func (d *Device) Features() []float64 {
	return []float64{
		1,
		d.availMemMB / 1024,
		d.Model.TotalMemMB / 1024,
		d.tempC / 10,
		10 / d.Model.MaxFreqGHzSum,
	}
}

// EnergyFeatures returns the feature vector of I-Prof's energy predictor:
// the time features scaled by the measured energy-per-non-idle-CPU-time
// (battery %% per busy second), plus an intercept. The energy slope is the
// product α_E = perCPU · α_t; since α_t is (approximately) linear in the
// time features, α_E is linear in these *scaled* features — which is what
// lets a linear cold-start model extrapolate across devices.
func (d *Device) EnergyFeatures() []float64 {
	perCPU := d.Model.AlphaEnergy / d.Model.AlphaTime // %battery per busy second
	noisy := perCPU * (1 + d.rng.NormFloat64()*0.02)
	base := d.Features()
	out := make([]float64, 0, len(base))
	for _, f := range base {
		out = append(out, f*noisy*100)
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
