package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// hostProbe is a fixed piece of standard-library work — deflate 32 KB, sort
// 8 k ints, a float multiply-add sweep — that no change to the repository
// can speed up or slow down. The benchmark runs on a shared 2-vCPU host
// whose speed drifts by 10–20 % over seconds to minutes; that drift, not
// the program, is what moves the timings between two runs of the same code
// (run-to-run quartile spreads of 8–32 % on the raw clock, past any bound
// the driver's contract allows). So the probe is sampled on the idle,
// collected process before, between and after the segments of each measured
// window — never while a request is in flight, where the program's own
// garbage collection slowed it by up to 30 % — and every end-to-end timing
// is reported as it would read on a host where the probe takes
// hostNominalMs. The factor applied is itself a reported metric
// (runtime.host_factor, beside runtime.host_probe_ms).
type hostProbe struct {
	text   []byte
	ints   []int
	floats []float64
	work   []int
	zw     *flate.Writer
	sink   bytes.Buffer
	acc    float64 // keeps the float sweep alive
}

const (
	// hostNominalMs is the probe's typical duration on this class of host
	// (the median of the committed runs' samples), so that a corrected
	// timing reads like the clock did on a typical run.
	hostNominalMs = 2.6
	// probeBurst probes make one sample of the host's speed (~20 ms).
	probeBurst = 8
)

func newHostProbe() *hostProbe {
	rng := rand.New(rand.NewSource(1))
	p := &hostProbe{
		text:   make([]byte, 32<<10),
		ints:   make([]int, 1<<13),
		floats: make([]float64, 1<<15),
	}
	for i := range p.text {
		p.text[i] = byte('a' + rng.Intn(8)) // compressible, not trivially so
	}
	for i := range p.ints {
		p.ints[i] = rng.Int()
	}
	for i := range p.floats {
		p.floats[i] = rng.Float64()
	}
	p.work = make([]int, len(p.ints))
	p.zw, _ = flate.NewWriter(&p.sink, flate.DefaultCompression)
	return p
}

// once runs the fixed work once and returns how long it took.
func (p *hostProbe) once() time.Duration {
	start := time.Now()
	p.sink.Reset()
	p.zw.Reset(&p.sink)
	_, _ = p.zw.Write(p.text)
	_ = p.zw.Close()
	copy(p.work, p.ints)
	sort.Ints(p.work)
	acc := 0.0
	for pass := 0; pass < 16; pass++ {
		for i, v := range p.floats {
			acc += v * float64(i&7)
		}
	}
	p.acc = acc
	return time.Since(start)
}

// sample returns the mean probe duration (ms) of one burst. The caller has
// no request in flight; the forced collection first leaves no GC cycle in
// flight either, so the probe has the process to itself.
func (p *hostProbe) sample() float64 {
	runtime.GC()
	var sum time.Duration
	for i := 0; i < probeBurst; i++ {
		sum += p.once()
	}
	return float64(sum) / 1e6 / probeBurst
}

// hostFactor is what a raw duration is multiplied by to correct it, given
// the probe duration (ms) sampled around it.
func hostFactor(probeMs float64) float64 { return hostNominalMs / probeMs }
