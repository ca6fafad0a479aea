package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"fleet/internal/protocol"
)

// client is the closed-loop load generator: one worker that waits for its
// task before it pushes and for its ack before the next round. It replays
// the pre-generated pool, so no worker compute runs in the process.
type client struct {
	d  *deployment
	in *inputs

	// The model cache of the delta workloads, fed by delta pulls, cold full
	// pulls and absorbed announces — exactly a subscribed worker's.
	cache   []float64
	cached  bool
	version int
	epoch   int64

	rounds    int // completed rounds, warm-up included
	acked     int // acked pushes
	lastAck   int // NewVersion of the previous ack
	attempted int // service calls made
}

// round runs one accepted RequestTask followed by one acked PushGradient
// and returns the two client-observed round trips.
func (c *client) round() (pull, push time.Duration, err error) {
	w := c.d.w
	req := c.in.task
	cold := w.coldEvery > 0 && c.rounds%w.coldEvery == coldPhase
	if w.delta && c.cached && !cold {
		req.WantDelta, req.KnownVersion, req.KnownEpoch = true, c.version, c.epoch
	}
	c.attempted++
	t0 := time.Now()
	resp, err := c.d.svc.RequestTask(c.d.ctx, &req)
	pull = time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("round %d: task: %w", c.rounds, err)
	}
	if !resp.Accepted {
		return 0, 0, fmt.Errorf("round %d: task refused: %s", c.rounds, resp.Reason)
	}
	if w.delta {
		if err := c.absorbTask(resp); err != nil {
			return 0, 0, fmt.Errorf("round %d: %w", c.rounds, err)
		}
	} else if len(resp.Params) != c.in.params {
		return 0, 0, fmt.Errorf("round %d: served %d params, want %d", c.rounds, len(resp.Params), c.in.params)
	}

	msg := c.in.pool[c.rounds%len(c.in.pool)]
	msg.ModelVersion, msg.ModelEpoch = resp.ModelVersion, resp.ServerEpoch
	c.attempted++
	t0 = time.Now()
	ack, err := c.d.svc.PushGradient(c.d.ctx, &msg)
	push = time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("round %d: push: %w", c.rounds, err)
	}
	if !ack.Applied {
		return 0, 0, fmt.Errorf("round %d: push not applied", c.rounds)
	}
	c.acked++
	if sc := c.d.stream; sc != nil {
		if ack.NewVersion > c.lastAck {
			// The push that mints a version broadcasts it before acking,
			// but the announce frame is written by another goroutine:
			// wait for it, as a subscribed worker's next round would.
			wctx, cancel := context.WithTimeout(c.d.ctx, 5*time.Second)
			err := sc.WaitAnnounced(wctx, resp.ServerEpoch, ack.NewVersion)
			cancel()
			if err != nil {
				return 0, 0, fmt.Errorf("round %d: announce of v%d: %w", c.rounds, ack.NewVersion, err)
			}
		}
		c.absorbAnnounces(sc.TakeAnnounces())
	}
	c.lastAck = ack.NewVersion
	c.rounds++
	return pull, push, nil
}

// absorbTask folds an accepted task response into the cache: a delta is
// patched in place, a full response is copied.
func (c *client) absorbTask(resp *protocol.TaskResponse) error {
	if d := resp.ParamsDelta; d != nil {
		if !c.cached || resp.DeltaBase != c.version || resp.ServerEpoch != c.epoch {
			return fmt.Errorf("delta from (v%d, epoch %d), cache at (v%d, epoch %d, cached=%v)",
				resp.DeltaBase, resp.ServerEpoch, c.version, c.epoch, c.cached)
		}
		if err := d.Patch(c.cache); err != nil {
			return err
		}
		c.version = resp.ModelVersion
		return nil
	}
	if len(resp.Params) != c.in.params {
		return fmt.Errorf("served %d params, want %d", len(resp.Params), c.in.params)
	}
	if c.cache == nil {
		c.cache = make([]float64, c.in.params)
	}
	copy(c.cache, resp.Params)
	c.cached, c.version, c.epoch = true, resp.ModelVersion, resp.ServerEpoch
	return nil
}

// absorbAnnounces patches every announce that chains exactly onto the
// cache; anything else (stale, gap, delta-less) is left to the next pull.
func (c *client) absorbAnnounces(anns []protocol.ModelAnnounce) {
	for _, ann := range anns {
		if !c.cached || ann.ServerEpoch != c.epoch || ann.Delta == nil ||
			ann.DeltaBase != c.version || ann.ModelVersion <= c.version {
			continue
		}
		if ann.Delta.Patch(c.cache) == nil {
			c.version = ann.ModelVersion
		}
	}
}

const (
	// historyFill is a little over the 16 384 staleness values AdaSGD keeps.
	historyFill = 17000
	// setupsPerRep set-ups are timed per rep: a set-up takes 0.4–13 ms, and
	// one sample per rep left setup_s differing by 30 % between two runs.
	setupsPerRep = 4
	// windowSegments is how many stretches a rep's measured window is cut
	// into, with a host-speed sample on either side of each.
	windowSegments = 8
)

// repResult is what one rep measured: every metric it can produce by name,
// plus what went wrong — a call that errored or was refused, or a failed
// check of the verify stage, one problem each.
type repResult struct {
	metrics   map[string]float64
	attempted int
	problems  []string
	// spans is the traced rep's measured window (nil on untraced reps).
	spans []span
}

// setUp is what setup_s times: compile and start the nodes, dial, and
// complete the first cold round. It returns the seconds that took as the
// clock read them and the host's speed sampled right after, on the idle
// deployment. The client is nil when the deployment itself failed.
func setUp(w *workload, in *inputs, tr *tracer, probe *hostProbe) (c *client, seconds, probeMs float64, err error) {
	start := time.Now()
	d, err := w.deploy(w.transport, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	c = &client{d: d, in: in}
	_, _, err = c.round()
	seconds = time.Since(start).Seconds()
	return c, seconds, probe.sample(), err
}

// runRep sets the workload up (setup_s), discards warm-up, measures for
// measure on the last deployment, shuts it down and verifies.
func runRep(w *workload, in *inputs, warm, measure time.Duration, tr *tracer, probe *hostProbe) repResult {
	res := repResult{metrics: map[string]float64{}}
	problem := func(format string, args ...interface{}) {
		res.problems = append(res.problems, fmt.Sprintf("%s: ", w.name)+fmt.Sprintf(format, args...))
	}
	runtime.GC() // every rep starts from a collected heap

	// setup_s is the median of setupsPerRep set-ups, each corrected by its
	// own host sample; the earlier deployments are shut down at once, the
	// last one serves the rep.
	var (
		c      *client
		setups []float64
		err    error
	)
	for {
		var seconds, probeMs float64
		c, seconds, probeMs, err = setUp(w, in, tr, probe)
		if c == nil {
			problem("deploy: %v", err)
			res.attempted++
			return res
		}
		setups = append(setups, seconds*hostFactor(probeMs))
		if err != nil || len(setups) == setupsPerRep {
			break
		}
		res.attempted += c.attempted
		if _, clean := c.d.shutdown(); !clean {
			problem("a node did not shut down cleanly after set-up")
		}
	}
	d := c.d
	res.metrics["setup_s"] = median(setups)
	res.metrics["node.from_spec_ms"] = float64(d.fromSpec) / 1e6
	res.metrics["node.start_ms"] = float64(d.start) / 1e6

	// Warm-up. A server's per-push cost grows with AdaSGD's staleness
	// history until that fills (historyFill pushes); a deployment fast
	// enough to fill it within three warm-ups is measured after it has, so
	// its numbers do not depend on how many rounds the warm-up happened to
	// fit. The slower ones never fill it within a rep either way.
	warmStart := time.Now()
	for err == nil && time.Since(warmStart) < warm {
		_, _, err = c.round()
	}
	if 3*c.rounds >= historyFill {
		for err == nil && c.rounds < historyFill && time.Since(warmStart) < 3*warm {
			_, _, err = c.round()
		}
	}

	// Percentiles need every sample; the slices are sized up front so the
	// measured window's allocation counts are the program's, not ours.
	const maxSamples = 1 << 18
	pulls := make([]int64, 0, maxSamples)
	pushes := make([]int64, 0, maxSamples)
	goroutines := runtime.NumGoroutine()
	if tr != nil {
		tr.begin()
	}
	// The window is windowSegments stretches of closed-loop rounds. Before,
	// between and after them the client pauses and the host's speed is
	// sampled on the idle, collected process: often enough to follow a host
	// whose speed moves within a second, and never while a request or a GC
	// cycle of the program's is in flight. The pauses are no part of the
	// window: the clock and the runtime's counters are read per segment.
	var (
		elapsed                                  time.Duration
		before, after                            runtime.MemStats
		mallocs, allocBytes, gcCycles, gcPauseNs uint64
	)
	wireBefore := d.wire.Uplink() + d.wire.Downlink()
	probeMs := probe.sample()
	for seg := 0; seg < windowSegments && err == nil; seg++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for end := start.Add(measure / windowSegments); err == nil && len(pulls) < maxSamples && time.Now().Before(end); {
			var pull, push time.Duration
			if pull, push, err = c.round(); err == nil {
				pulls = append(pulls, int64(pull))
				pushes = append(pushes, int64(push))
				if len(pulls)%256 == 0 {
					if n := runtime.NumGoroutine(); n > goroutines {
						goroutines = n
					}
				}
			}
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcCycles += uint64(after.NumGC - before.NumGC)
		gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
		probeMs += probe.sample()
	}
	probeMs /= windowSegments + 1
	wireBytes := d.wire.Uplink() + d.wire.Downlink() - wireBefore
	if tr != nil {
		res.spans = tr.end()
	}
	f := hostFactor(probeMs)
	res.metrics["runtime.host_probe_ms"] = probeMs
	res.metrics["runtime.host_factor"] = f
	if err != nil {
		problem("%v", err)
	}

	if n := len(pulls); n > 0 {
		rounds := float64(n)
		pullUs, pushUs := nsToSortedUs(pulls), nsToSortedUs(pushes)
		m := res.metrics
		// The end-to-end timings are the clock's readings corrected for
		// how fast the host ran around this window (see hostProbe).
		m["rounds_per_s"] = rounds / elapsed.Seconds() / f
		m["pull_p50_us"] = percentile(pullUs, 50) * f
		m["pull_p90_us"] = percentile(pullUs, 90) * f
		m["push_p50_us"] = percentile(pushUs, 50) * f
		m["push_p90_us"] = percentile(pushUs, 90) * f
		m["client.pull_p99_us"] = percentile(pullUs, 99)
		m["client.push_p99_us"] = percentile(pushUs, 99)
		m["client.samples"] = rounds
		m["allocs_per_round"] = float64(mallocs) / rounds
		m["alloc_kb_per_round"] = float64(allocBytes) / rounds / 1024
		m["wire_bytes_per_round"] = float64(wireBytes) / rounds
		m["runtime.gc_cycles_per_kround"] = float64(gcCycles) / rounds * 1000
		m["runtime.gc_pause_us_per_round"] = float64(gcPauseNs) / 1e3 / rounds
		m["runtime.heap_sys_mb"] = float64(after.HeapSys) / (1 << 20)
		m["runtime.goroutines_peak"] = float64(goroutines)
	} else {
		problem("no round completed in the measured window")
	}

	verifyRep(c, &res, problem)
	res.attempted += c.attempted
	res.metrics["fail_ratio"] = float64(len(res.problems)) / float64(res.attempted)
	return res
}

// verifyRep is the per-rep verify stage: the delta cache against a final
// full pull, then — after the canonical shutdown, which flushes the edge's
// partial window — the root's conservation counters against the client's
// acks.
func verifyRep(c *client, res *repResult, problem func(string, ...interface{})) {
	d, w := c.d, c.d.w
	if w.delta && len(res.problems) == 0 {
		req := c.in.task
		c.attempted++
		full, err := d.svc.RequestTask(d.ctx, &req)
		switch {
		case err != nil:
			problem("final full pull: %v", err)
		case full.ModelVersion != c.version || !equalBits(full.Params, c.cache):
			problem("delta cache at v%d differs from the final full pull at v%d", c.version, full.ModelVersion)
		}
	}
	if d.stream != nil {
		res.metrics["stream.dials"] = float64(d.stream.Dials())
	}
	res.metrics["stream.announces"] = float64(d.announces.Load())
	res.metrics["stream.coalesced"] = float64(d.coalesced.Load())

	took, clean := d.shutdown()
	res.metrics["node.shutdown_ms"] = float64(took) / 1e6
	if !clean {
		problem("a node did not shut down cleanly")
	}

	stats, err := d.root()
	if err != nil {
		problem("root stats: %v", err)
		return
	}
	if stats.DrainErrors != 0 {
		problem("root DrainErrors = %d", stats.DrainErrors)
	}
	if stats.LeafGradients != c.acked {
		problem("root LeafGradients = %d, client acked %d pushes", stats.LeafGradients, c.acked)
	}
	if d.edge == nil {
		if stats.GradientsIn != c.acked {
			problem("root GradientsIn = %d, client acked %d pushes", stats.GradientsIn, c.acked)
		}
		if want := c.acked / w.k; stats.ModelVersion != want {
			problem("root at v%d, want acked/K = %d", stats.ModelVersion, want)
		}
		return
	}
	// Tree: the flush forwarded the partial window, so every leaf ack is
	// at the root and every forward minted one root version (K = 1).
	res.metrics["aggtree.upstream_pushes"] = float64(d.edge.UpstreamPushes())
	res.metrics["aggtree.lost_windows"] = float64(d.edge.LostWindows())
	if lost := d.edge.LostWindows(); lost != 0 {
		problem("edge LostWindows = %d", lost)
	}
	if want := (c.acked + w.k - 1) / w.k; int(d.edge.UpstreamPushes()) != want || stats.ModelVersion != want {
		problem("edge forwarded %d windows, root at v%d, want ceil(acked/K) = %d",
			d.edge.UpstreamPushes(), stats.ModelVersion, want)
	}
}

// equalBits reports whether two vectors are bit-for-bit equal.
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
