package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// metricDef is one entry of the catalogue the benchmark ships with: the
// name and unit every run prints, which way is better, and what the number
// means. BENCHMARK.json and the README tables are generated from these
// slices (-catalogue json|md), so the three cannot drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics (named after the module they measure) carry none.
	Bound   float64
	Meaning string
	// Moves says which end-to-end metric the layer metric should move, and
	// on which workload — written down before measuring.
	Moves string
}

// runSeconds is how long one driver run measures per workload
// (BENCHMARK.json run_seconds); defaultReps fresh deployments share it, each
// discarding warmup (a quarter of its share at most) first. None of the
// three is an option: they decide what is measured — the rep length, and
// whether AdaSGD's history is full by the window — so results taken with
// other values do not compare against the bounds.
const (
	runSeconds  = 20
	defaultReps = 5
	warmup      = time.Second
)

// endToEnd is what a device owner or an operator sees. fail_ratio and
// wire_bytes_per_round are reported with the per-layer metrics instead: the
// driver's contract wants end-to-end metrics that are never zero, and
// fail_ratio is 0 by design while wire bytes are 0 in process. The timing
// bounds are the loosest the contract allows because the shared host, not
// the program, sets the run-to-run spread (results/spreads.json), and each
// bound is to stay three times the spread.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Meaning: "node.FromSpec (I-Prof pre-training sweep, model init, tenants) -> Start -> dial/handshake -> first completed cold round; per rep the median of four set-ups. Input generation is outside the clock."},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.20,
		Meaning: "completed rounds (accepted RequestTask + acked PushGradient) per measured wall second, one closed-loop client; host-speed corrected like every timing below."},
	{Name: "pull_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Meaning: "client-observed RequestTask round trip, median."},
	{Name: "pull_p90_us", Unit: "us", Better: "lower", Bound: 0.25,
		Meaning: "client-observed RequestTask round trip, 90th percentile (the cold full pull on stream-tenant-sparse)."},
	{Name: "push_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Meaning: "client-observed PushGradient round trip, median (an accumulate-only push where K > 1)."},
	{Name: "push_p90_us", Unit: "us", Better: "lower", Bound: 0.25,
		Meaning: "client-observed PushGradient round trip, 90th percentile: the window-closing push (drain, snapshot, diffs, announce, or the edge's upstream forward). p90 is the highest percentile with >= 10 samples beyond it in the slowest workload's rep."},
	{Name: "allocs_per_round", Unit: "1", Better: "lower", Bound: 0.02,
		Meaning: "runtime.MemStats.Mallocs delta / rounds over the measured window, whole process (worker side + server side)."},
	{Name: "alloc_kb_per_round", Unit: "KB", Better: "lower", Bound: 0.02,
		Meaning: "runtime.MemStats.TotalAlloc delta / rounds / 1024, whole process."},
}

// perLayer is each module measured from outside: L timings are medians of
// direct calls on the workload's own messages and sizes; counts come from
// Stats(), client counters and the Go runtime during the end-to-end reps.
var perLayer = []metricDef{
	{Name: "wire_bytes_per_round", Unit: "B", Better: "lower",
		Meaning: "up + down payload bytes per round from protocol.WireCounter; 0 on inproc-dense (which is why it is not a bounded end-to-end metric).",
		Moves:   "itself; the radio cost of a round. Follows protocol.push_bytes + protocol.task_bytes."},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower",
		Meaning: "calls that errored, were refused, or failed a check / calls attempted. Expected 0; also surfaces as failed/attempted and correct=false in the result line.",
		Moves:   "any non-zero value invalidates the run."},

	{Name: "protocol.push_encode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Encode of one pool GradientPush into a bytes.Buffer, workload's codec.",
		Moves:   "push_p50_us, alloc_kb_per_round on http-default-dense (client half of the codec cost)."},
	{Name: "protocol.push_decode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Decode of that push.",
		Moves:   "push_p50_us on http-default-dense (server half); small on the flat workloads."},
	{Name: "protocol.task_encode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Encode of the TaskResponse a median pull gets: the empty delta of an already-current cache on the delta workloads, else the full model.",
		Moves:   "pull_p50_us."},
	{Name: "protocol.task_decode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Decode of that response.",
		Moves:   "pull_p50_us."},
	{Name: "protocol.task_full_encode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Encode of a full-model TaskResponse.",
		Moves:   "pull_p90_us on stream-tenant-sparse (cold pulls); pull_p50_us on http-default-dense; setup_s."},
	{Name: "protocol.task_full_decode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Decode of a full-model TaskResponse.",
		Moves:   "pull_p90_us on stream-tenant-sparse; pull_p50_us on http-default-dense."},
	{Name: "protocol.announce_encode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Encode of the ModelAnnounce a drain publishes (with its v-1 -> v delta when sparse).",
		Moves:   "push_p90_us on the stream workloads (the announce is encoded before the ack)."},
	{Name: "protocol.announce_decode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Decode of that announce (the subscribed client's read loop pays it before it can read the ack).",
		Moves:   "push_p90_us on the stream workloads."},
	{Name: "protocol.request_encode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Encode of the workload's TaskRequest (the flat codec falls back to gob+gzip for it).",
		Moves:   "pull_p50_us on every wire workload."},
	{Name: "protocol.request_decode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Decode of that request.", Moves: "pull_p50_us on every wire workload."},
	{Name: "protocol.ack_encode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Encode of a PushAck (gob+gzip behind the flat header too).",
		Moves:   "push_p50_us on every wire workload."},
	{Name: "protocol.ack_decode_us", Unit: "us", Better: "lower",
		Meaning: "Codec.Decode of that ack.", Moves: "push_p50_us on every wire workload."},
	{Name: "protocol.payload_decode_us", Unit: "us", Better: "lower",
		Meaning: "protocol.DecodeGradientPayload: validation, q8 expansion, canonical index check.",
		Moves:   "push_p50_us everywhere, the only protocol cost inproc-dense pays."},
	{Name: "protocol.push_bytes", Unit: "B", Better: "lower",
		Meaning: "encoded size of one pool push.", Moves: "wire_bytes_per_round."},
	{Name: "protocol.task_bytes", Unit: "B", Better: "lower",
		Meaning: "encoded size of the typical TaskResponse.", Moves: "wire_bytes_per_round."},
	{Name: "protocol.task_full_bytes", Unit: "B", Better: "lower",
		Meaning: "encoded size of a full-model TaskResponse.", Moves: "wire_bytes_per_round on stream-tenant-sparse (every 4th round)."},
	{Name: "protocol.announce_bytes", Unit: "B", Better: "lower",
		Meaning: "encoded size of that announce.", Moves: "wire_bytes_per_round on the stream workloads (one per window)."},

	{Name: "server.request_task_us", Unit: "us", Better: "lower",
		Meaning: "direct Server.RequestTask with the workload's request (admission + snapshot read).",
		Moves:   "pull_p50_us on inproc-dense."},
	{Name: "server.push_accumulate_us", Unit: "us", Better: "lower",
		Meaning: "direct Server.PushGradient, acks whose NewVersion did not advance.",
		Moves:   "push_p50_us on inproc-dense and stream-tenant-sparse."},
	{Name: "server.push_drain_us", Unit: "us", Better: "lower",
		Meaning: "direct Server.PushGradient, acks whose NewVersion advanced (ApplyGradient + ParamVector + <= 4 Diffs).",
		Moves:   "push_p90_us on stream-tenant-sparse and inproc-dense; rounds_per_s wherever K-windows close."},
	{Name: "server.stats_us", Unit: "us", Better: "lower",
		Meaning: "direct Server.Stats.", Moves: "setup_s (the stream handshake probes it); nothing on a timed round."},
	{Name: "server.checkpoint_ms", Unit: "ms", Better: "lower",
		Meaning: "Server.Checkpoint() into a temp-dir persist.Checkpointer (capture + encode + fsync).",
		Moves:   "nothing today; push_p90_us if checkpoint work moves onto the push path."},
	{Name: "server.handler_task_us", Unit: "us", Better: "lower",
		Meaning: "server.NewHandler(svc).ServeHTTP for /v1/task on a pre-encoded body with an httptest recorder: negotiate + decode + service + encode, no socket.",
		Moves:   "pull_p50_us on http-default-dense."},
	{Name: "server.handler_push_us", Unit: "us", Better: "lower",
		Meaning: "the same for /v1/gradient.", Moves: "push_p50_us on http-default-dense."},

	{Name: "worker.http_floor_us", Unit: "us", Better: "lower",
		Meaning: "worker.Client.Stats -> server.NewHandler(stub) over loopback: the per-request HTTP floor.",
		Moves:   "both p50s on http-default-dense only."},

	{Name: "stream.floor_us", Unit: "us", Better: "lower",
		Meaning: "stream.Client.Stats -> stream.NewServer(stub) over loopback: the per-frame-pair floor.",
		Moves:   "both p50s on the two stream workloads."},
	{Name: "stream.dial_us", Unit: "us", Better: "lower",
		Meaning: "first call on a fresh client (dial + hello/welcome + one exchange) minus stream.floor_us.",
		Moves:   "setup_s on the stream workloads."},
	{Name: "stream.broadcast_us", Unit: "us", Better: "lower",
		Meaning: "duration of Server.Broadcast(ann) with one subscribed session (encode once + enqueue).",
		Moves:   "push_p90_us on the stream workloads: the announce precedes the ack."},
	{Name: "stream.announce_lag_us", Unit: "us", Better: "lower",
		Meaning: "Broadcast start -> the client's OnAnnounce.", Moves: "model freshness; no timed call waits for it."},
	{Name: "stream.dials", Unit: "count", Better: "lower",
		Meaning: "sessions the leaf client established in a rep (1 = one connection per workload).", Moves: "setup_s; > 1 means a session broke."},
	{Name: "stream.announces", Unit: "count", Better: "higher",
		Meaning: "announces the client's OnAnnounce observed in a rep.", Moves: "should equal the model versions minted."},
	{Name: "stream.coalesced", Unit: "count", Better: "lower",
		Meaning: "observed announces whose delta spans more than one version (queue overflow coalescing).", Moves: "0 with one closed-loop client."},

	{Name: "service.chain_us", Unit: "us", Better: "lower",
		Meaning: "Runtime.Service().RequestTask minus Runtime.Server().RequestTask on the node compiled from the workload's Spec: whatever interceptor chain node.FromSpec composes (recovery today), per call. Timed on RequestTask, the cheapest carrier; a difference of two sub-microsecond medians, good to about 0.03 us.",
		Moves:   "visible only on inproc-dense p50s; the guard for leaving metrics/trace interceptors on."},

	{Name: "tenant.enforce_us", Unit: "us", Better: "lower",
		Meaning: "Unit.Service().RequestTask with credentials minus Unit.Server().RequestTask: token check + quota + budget gate.",
		Moves:   "both p50s on stream-tenant-sparse only."},
	{Name: "tenant.verify_token_us", Unit: "us", Better: "lower",
		Meaning: "tenant.VerifyToken (HMAC-SHA256) alone.", Moves: "the larger part of tenant.enforce_us."},

	{Name: "sched.admit_us", Unit: "us", Better: "lower",
		Meaning: "the server's admission chain on the workload's TaskRequest.", Moves: "pull_p50_us on inproc-dense."},
	{Name: "iprof.batch_size_us", Unit: "us", Better: "lower",
		Meaning: "IProf.BatchSize for the request's device and features, on a stand-alone profiler configured as node.FromSpec configures one (the compiled profiler is not reachable from outside; sched.admit_us is the compiled path).", Moves: "sched.admit_us -> pull_p50_us on inproc-dense."},
	{Name: "iprof.observe_us", Unit: "us", Better: "lower",
		Meaning: "IProf.Observe of one push's measured cost on that profiler (every 100th retrains).", Moves: "push_p50_us on inproc-dense."},

	{Name: "pipeline.process_us", Unit: "us", Better: "lower",
		Meaning: "Pipeline.Process (staleness stage; AdaSGD sorts its staleness history per call).",
		Moves:   "push_p50_us on inproc-dense; grows with the history, so also rounds_per_s."},
	{Name: "pipeline.add_us", Unit: "us", Better: "lower",
		Meaning: "Pipeline.Add: dense accumulate or AddSparse scatter, as the workload dictates.",
		Moves:   "push_p50_us on inproc-dense (dense) and stream-tenant-sparse (sparse)."},
	{Name: "pipeline.drain_us", Unit: "us", Better: "lower",
		Meaning: "Pipeline.Drain of a dirty window with a no-op apply (walk + zero the accumulator).",
		Moves:   "part of server.push_drain_us -> push_p90_us."},
	{Name: "tensor.scatter_add_us", Unit: "us", Better: "lower",
		Meaning: "tensor.ScatterAddScaled of k = 1% of the parameters.", Moves: "pipeline.add_us on the sparse workloads."},
	{Name: "nn.apply_gradient_us", Unit: "us", Better: "lower",
		Meaning: "Network.ApplyGradient over the whole model.", Moves: "server.push_drain_us -> push_p90_us."},
	{Name: "nn.param_vector_us", Unit: "us", Better: "lower",
		Meaning: "Network.ParamVector: the snapshot copy a drain publishes.",
		Moves:   "server.push_drain_us -> push_p90_us, alloc_kb_per_round on stream-tenant-sparse."},
	{Name: "compress.diff_us", Unit: "us", Better: "lower",
		Meaning: "compress.Diff of two model versions one window apart (abandons at half the vector on dense workloads).",
		Moves:   "server.push_drain_us (up to 4 per drain) -> push_p90_us on stream-tenant-sparse."},
	{Name: "compress.patch_us", Unit: "us", Better: "lower",
		Meaning: "Sparse.Patch of one window's delta into a cached vector.", Moves: "rounds_per_s on the delta workloads (client side, outside the timed calls)."},
	{Name: "compress.client_compress_us", Unit: "us", Better: "lower",
		Meaning: "the worker-side topk(1%),q8 chain on one dense gradient (pools are pre-compressed, so no timed path pays it).",
		Moves:   "nothing here; the device-side cost of the sparse uplink."},

	{Name: "aggtree.request_task_us", Unit: "us", Better: "lower",
		Meaning: "direct Node.RequestTask (in-process root upstream).", Moves: "pull_p50_us on tree-stream-sparse only."},
	{Name: "aggtree.push_accumulate_us", Unit: "us", Better: "lower",
		Meaning: "direct Node.PushGradient that does not close the edge window.", Moves: "push_p50_us on tree-stream-sparse only."},
	{Name: "aggtree.push_forward_us", Unit: "us", Better: "lower",
		Meaning: "direct Node.PushGradient that closes it: takeWindow + dense upstream push + root drain + delta refresh, in process.",
		Moves:   "push_p90_us on tree-stream-sparse only."},
	{Name: "aggtree.upstream_pushes", Unit: "count", Better: "higher",
		Meaning: "windows the edge forwarded in a rep (leaf acks / 4).", Moves: "rounds_per_s on tree-stream-sparse."},
	{Name: "aggtree.lost_windows", Unit: "count", Better: "lower",
		Meaning: "windows that failed to land upstream.", Moves: "must be 0 (verify stage)."},

	{Name: "persist.save_ms", Unit: "ms", Better: "lower",
		Meaning: "Checkpointer.Save at the workload's model size.", Moves: "not on a timed path today."},
	{Name: "persist.load_ms", Unit: "ms", Better: "lower",
		Meaning: "persist.Load of that file.", Moves: "restart time; not on a timed path."},

	{Name: "node.from_spec_ms", Unit: "ms", Better: "lower",
		Meaning: "node.FromSpec, summed over the deployment's nodes.", Moves: "setup_s."},
	{Name: "node.start_ms", Unit: "ms", Better: "lower",
		Meaning: "Runtime.Start, summed (the edge's includes its upstream sync).", Moves: "setup_s."},
	{Name: "node.shutdown_ms", Unit: "ms", Better: "lower",
		Meaning: "Runtime.Shutdown, summed (drain, flush, close).", Moves: "nothing timed; the cost of a rolling restart."},

	{Name: "runtime.host_probe_ms", Unit: "ms", Better: "lower",
		Meaning: "a fixed piece of stdlib work (deflate 32 KB, sort 8 k ints, a float sweep), mean of the 72 runs a rep makes on the idle, collected process before, between and after the 8 segments of its measured window, never while a request is in flight: how fast the shared host was running, independent of the repository.",
		Moves:   "nothing in the repository moves it; every clock reading moves with it."},
	{Name: "runtime.host_factor", Unit: "1", Better: "lower",
		Meaning: "2.6 / runtime.host_probe_ms: what each rep's end-to-end timings were multiplied by (rounds_per_s divided). Clock reading = reported value / this, rep by rep.",
		Moves:   "1 on a typical run; far from 1 means the host was unusually slow or fast, not the program."},
	{Name: "runtime.gc_cycles_per_kround", Unit: "1", Better: "lower",
		Meaning: "GC cycles per 1000 rounds in the measured window.", Moves: "explains rounds_per_s when alloc_kb_per_round moves."},
	{Name: "runtime.gc_pause_us_per_round", Unit: "us", Better: "lower",
		Meaning: "stop-the-world pause time per round.", Moves: "the p90s."},
	{Name: "runtime.heap_sys_mb", Unit: "MB", Better: "lower",
		Meaning: "MemStats.HeapSys at the end of the rep.", Moves: "memory footprint."},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower",
		Meaning: "largest runtime.NumGoroutine() sampled during the rep.", Moves: "leak guard."},

	{Name: "client.pull_p99_us", Unit: "us", Better: "lower",
		Meaning: "RequestTask 99th percentile (ungated tail).", Moves: "reported, never bounded."},
	{Name: "client.push_p99_us", Unit: "us", Better: "lower",
		Meaning: "PushGradient 99th percentile (ungated tail).", Moves: "reported, never bounded."},
	{Name: "client.samples", Unit: "count", Better: "higher",
		Meaning: "rounds measured per rep (the sample count behind every percentile).", Moves: "rounds_per_s x rep seconds."},

	{Name: "trace.client_codec_us", Unit: "us", Better: "lower",
		Meaning: "traced run: client.encode + client.decode span time per round, median.", Moves: "the client half of protocol.*."},
	{Name: "trace.service_us", Unit: "us", Better: "lower",
		Meaning: "traced run: outermost service.pull + service.push span time per round, median.", Moves: "what inproc-dense measures end to end."},
	{Name: "trace.wire_residual_us", Unit: "us", Better: "lower",
		Meaning: "traced run: client spans - client codec - service spans per round, median: transport + framing + server-side codec.",
		Moves:   "http-default-dense minus inproc-dense, from inside one run."},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower",
		Meaning: "share of the traced round the isolated timings do not explain: (wire_residual - 2 transport floors - request decode - task encode - push decode - ack encode) / client round.",
		Moves:   "reported, not bounded."},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower",
		Meaning: "traced run's rounds_per_s against the untraced median.", Moves: "reported, not bounded."},
}

// benchmarkJSON renders BENCHMARK.json from the catalogue.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/perf/run.sh"},
		Paths:      []string{"bench/perf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// catalogueMarkdown renders the README's three tables.
func catalogueMarkdown() string {
	var b strings.Builder
	b.WriteString("| workload | why |\n|---|---|\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "| `%s` | %s |\n", w.name, w.why)
	}
	b.WriteString("\n| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.2f | %s |\n", m.Name, m.Unit, m.Better, m.Bound, m.Meaning)
	}
	b.WriteString("\n| per-layer metric | unit | better | meaning | should move |\n|---|---|---|---|---|\n")
	for _, m := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.Meaning, m.Moves)
	}
	return b.String()
}
