// Package iprof implements I-Prof (§2.2), FLeet's lightweight profiler that
// predicts the largest mini-batch size a device can process within a
// computation-time or energy SLO, together with the MAUI-style baseline
// profiler the paper compares against (§3.3).
//
// I-Prof models the per-sample cost slope α (t = α·n) from device features
// with two estimators:
//
//   - a cold-start linear-regression model pre-trained offline with OLS and
//     periodically re-trained as new device data arrives, used for the first
//     request of every device model;
//   - a personalized Passive-Aggressive model per device model (e.g.
//     "Galaxy S7"), bootstrapped from the cold-start prediction and updated
//     online with every (features, α) observation.
//
// Given a target SLO the predicted batch size is n̂ = max(1, SLO/α̂)
// (Equation 1).
package iprof

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fleet/internal/regression"
)

// Kind selects which SLO a predictor targets.
type Kind int

// Predictor kinds.
const (
	// KindTime predicts the computation-time slope (seconds per example).
	KindTime Kind = iota + 1
	// KindEnergy predicts the energy slope (battery %% per example).
	KindEnergy
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTime:
		return "time"
	case KindEnergy:
		return "energy"
	default:
		return "unknown"
	}
}

// Observation is one profiling data point: the device feature vector and
// the measured per-sample slope α = cost/batchSize.
type Observation struct {
	DeviceModel string
	Features    []float64
	Alpha       float64
}

// Config parameterizes I-Prof.
type Config struct {
	// Epsilon is the PA sensitivity ε of Equation 2. The paper uses 0.1 for
	// time and 6e-5 for energy (the energy slope is orders of magnitude
	// smaller).
	Epsilon float64
	// RetrainEvery re-fits the cold-start OLS model after this many new
	// observations (0 disables periodic retraining).
	RetrainEvery int
}

// maxObservations bounds the retraining observation set: once the set
// reaches this size, each new observation overwrites the oldest one (a
// sliding window over the observation stream), so a long-lived server's
// memory — and every checkpoint it writes — stops growing with fleet
// lifetime. The window always contains the most recent maxObservations
// points, which is also what periodic OLS retraining should fit: recent
// device behavior, not the full history.
const maxObservations = 1024

// IProf is the profiler. It is safe for concurrent use.
type IProf struct {
	cfg Config

	mu       sync.Mutex
	global   []float64 // cold-start OLS weights
	personal map[string]*regression.PassiveAggressive
	obsX     [][]float64
	obsY     []float64
	// obsNext is the ring cursor of the bounded observation window: once
	// obsX is full (maxObservations), it indexes the oldest entry —
	// the one the next observation overwrites.
	obsNext  int
	sinceFit int
	// minAlpha/maxAlpha bound predictions to the plausible range observed
	// during pre-training; linear extrapolation to unseen devices can
	// otherwise go negative (and Equation 1 would explode the batch size).
	minAlpha float64
	maxAlpha float64
}

// New builds an I-Prof instance whose cold-start model is pre-trained on
// the given offline observations (§2.2: data collected from a set of
// training devices). It returns an error when the OLS fit fails.
func New(cfg Config, pretrain []Observation) (*IProf, error) {
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("iprof: negative epsilon %v", cfg.Epsilon)
	}
	if len(pretrain) == 0 {
		return nil, fmt.Errorf("iprof: cold-start model needs pretraining observations")
	}
	p := &IProf{
		cfg:      cfg,
		personal: make(map[string]*regression.PassiveAggressive),
		minAlpha: math.Inf(1),
	}
	for _, o := range pretrain {
		p.obsX = append(p.obsX, o.Features)
		p.obsY = append(p.obsY, o.Alpha)
		if o.Alpha < p.minAlpha {
			p.minAlpha = o.Alpha
		}
		if o.Alpha > p.maxAlpha {
			p.maxAlpha = o.Alpha
		}
	}
	theta, err := regression.OLS(p.obsX, p.obsY)
	if err != nil {
		return nil, fmt.Errorf("iprof: cold-start fit: %w", err)
	}
	p.global = theta
	return p, nil
}

// PredictAlpha estimates the per-sample slope α̂ for a device model given
// its feature vector: personalized PA model when one exists, cold-start OLS
// otherwise. Predictions are clamped to the plausible range learned during
// pre-training (within a generous margin) so Equation 1 stays finite even
// when the linear model extrapolates badly on an unseen device.
func (p *IProf) PredictAlpha(deviceModel string, features []float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var alpha float64
	if pa, ok := p.personal[deviceModel]; ok {
		alpha = pa.Predict(features)
	} else {
		alpha = dot(p.global, features)
	}
	if lo := p.minAlpha * 0.5; alpha < lo {
		alpha = lo
	}
	if hi := p.maxAlpha * 5; alpha > hi {
		alpha = hi
	}
	if alpha < 1e-12 {
		alpha = 1e-12
	}
	return alpha
}

// BatchSize applies Equation 1: n̂ = max(1, SLO/α̂).
func (p *IProf) BatchSize(deviceModel string, features []float64, slo float64) int {
	alpha := p.PredictAlpha(deviceModel, features)
	n := int(slo / alpha)
	if n < 1 {
		n = 1
	}
	return n
}

// Observe folds one measured (features, α) pair into the profiler: the
// device model's personalized PA model is bootstrapped from the cold-start
// weights on first sight and updated otherwise; the observation is also
// appended to the cold-start training set for periodic re-training (§2.2).
func (p *IProf) Observe(o Observation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pa, ok := p.personal[o.DeviceModel]
	if !ok {
		pa = regression.NewPassiveAggressive(p.global, p.cfg.Epsilon)
		p.personal[o.DeviceModel] = pa
	}
	pa.Update(o.Features, o.Alpha)
	if o.Alpha > 0 && o.Alpha < p.minAlpha {
		p.minAlpha = o.Alpha
	}
	if o.Alpha > p.maxAlpha {
		p.maxAlpha = o.Alpha
	}

	if len(p.obsX) >= maxObservations {
		// Window full: overwrite the oldest observation in place. The
		// modulo guards a restored window larger than the current bound
		// (a checkpoint written under a bigger one) — the ring
		// then cycles over that larger-but-still-bounded buffer.
		i := p.obsNext % len(p.obsX)
		p.obsX[i] = o.Features
		p.obsY[i] = o.Alpha
		p.obsNext = (i + 1) % len(p.obsX)
	} else {
		p.obsX = append(p.obsX, o.Features)
		p.obsY = append(p.obsY, o.Alpha)
	}
	p.sinceFit++
	if p.cfg.RetrainEvery > 0 && p.sinceFit >= p.cfg.RetrainEvery {
		if theta, err := regression.OLS(p.obsX, p.obsY); err == nil {
			p.global = theta
		}
		p.sinceFit = 0
	}
}

// PersonalState is one personalized Passive-Aggressive model's serialized
// weights.
type PersonalState struct {
	Model string
	Theta []float64
}

// State is the serializable mutable state of an I-Prof instance: the
// cold-start OLS weights, every personalized PA model (sorted by device
// model name, so exports are deterministic), the accumulated observation
// set behind periodic retraining, and the plausibility clamps. The Config
// (epsilon, retrain cadence, batch clamps) is not part of the state — it
// comes from the deployment that restores it.
type State struct {
	Global   []float64
	Personal []PersonalState
	ObsX     [][]float64
	ObsY     []float64
	// ObsNext is the observation ring cursor (see maxObservations).
	// Absent in pre-compaction checkpoints, which decodes as 0 — the ring
	// then starts overwriting from the front, preserving window semantics.
	ObsNext  int
	SinceFit int
	MinAlpha float64
	MaxAlpha float64
}

// ExportState snapshots the profiler's mutable state for checkpointing.
func (p *IProf) ExportState() *State {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &State{
		Global:   append([]float64(nil), p.global...),
		ObsX:     make([][]float64, len(p.obsX)),
		ObsY:     append([]float64(nil), p.obsY...),
		ObsNext:  p.obsNext,
		SinceFit: p.sinceFit,
		MinAlpha: p.minAlpha,
		MaxAlpha: p.maxAlpha,
	}
	for i, x := range p.obsX {
		st.ObsX[i] = append([]float64(nil), x...)
	}
	names := make([]string, 0, len(p.personal))
	for name := range p.personal {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Personal = append(st.Personal, PersonalState{Model: name, Theta: p.personal[name].Theta()})
	}
	return st
}

// RestoreState replaces the profiler's mutable state with a checkpointed
// one; the instance keeps its own Config. It errors on an internally
// inconsistent state (the checkpoint is corrupt, not merely stale).
func (p *IProf) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("iprof: nil state")
	}
	if len(st.Global) == 0 {
		return fmt.Errorf("iprof: state has no cold-start weights")
	}
	if len(st.ObsX) != len(st.ObsY) {
		return fmt.Errorf("iprof: state has %d observation rows but %d targets", len(st.ObsX), len(st.ObsY))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.global = append([]float64(nil), st.Global...)
	p.personal = make(map[string]*regression.PassiveAggressive, len(st.Personal))
	for _, ps := range st.Personal {
		p.personal[ps.Model] = regression.NewPassiveAggressive(ps.Theta, p.cfg.Epsilon)
	}
	p.obsX = make([][]float64, len(st.ObsX))
	for i, x := range st.ObsX {
		p.obsX[i] = append([]float64(nil), x...)
	}
	p.obsY = append([]float64(nil), st.ObsY...)
	p.obsNext = st.ObsNext
	p.sinceFit = st.SinceFit
	p.minAlpha = st.MinAlpha
	p.maxAlpha = st.MaxAlpha
	return nil
}

func dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("iprof: feature length %d does not match model %d", len(b), len(a)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// MAUI is the baseline profiler adapted from MAUI (MobiSys'10) exactly as
// the paper does (§3.3): a single global linear model cost = θ₀·n on the
// mini-batch size, pre-trained offline and updated online with running
// least squares. It ignores device features entirely, which is what makes
// it inaccurate across heterogeneous devices.
type MAUI struct {
	mu    sync.Mutex
	sumNN float64 // Σ n²
	sumNC float64 // Σ n·cost
}

// NewMAUI pre-trains the baseline on (batchSize, cost) pairs.
func NewMAUI(batchSizes []int, costs []float64) (*MAUI, error) {
	if len(batchSizes) != len(costs) || len(batchSizes) == 0 {
		return nil, fmt.Errorf("maui: need equal, non-empty training slices")
	}
	m := &MAUI{}
	for i, n := range batchSizes {
		m.sumNN += float64(n) * float64(n)
		m.sumNC += float64(n) * costs[i]
	}
	if m.sumNN == 0 {
		return nil, fmt.Errorf("maui: degenerate training data")
	}
	return m, nil
}

func (m *MAUI) theta() float64 {
	if m.sumNN == 0 {
		return 1e-9
	}
	t := m.sumNC / m.sumNN
	if t < 1e-9 {
		t = 1e-9
	}
	return t
}

// BatchSize predicts n̂ = max(1, SLO/θ₀).
func (m *MAUI) BatchSize(slo float64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := int(slo / m.theta())
	if n < 1 {
		n = 1
	}
	return n
}

// Observe folds one (batchSize, cost) measurement into the running fit.
func (m *MAUI) Observe(batchSize int, cost float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sumNN += float64(batchSize) * float64(batchSize)
	m.sumNC += float64(batchSize) * cost
}

// SLODeviation is |measured − SLO|: the evaluation metric of Figures 12–13.
func SLODeviation(measured, slo float64) float64 {
	return math.Abs(measured - slo)
}
