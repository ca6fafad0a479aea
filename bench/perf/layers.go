package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"fleet/internal/aggtree"
	"fleet/internal/compress"
	"fleet/internal/device"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/node"
	"fleet/internal/persist"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/stream"
	"fleet/internal/tenant"
	"fleet/internal/tensor"
	"fleet/internal/worker"
)

// Layer timings are medians of direct calls into one module's public
// functions, on the workload's own messages and sizes: layerCalls calls
// after layerWarm warm-up calls, or as many as the per-metric budget allows
// (a 324 k-parameter drain takes ~15 ms, so 2 000 of them would not fit).
const (
	layerWarm  = 200
	layerCalls = 2000
	minSamples = 3
)

// timeIt returns the median µs per call of fn. prep, when non-nil, runs
// untimed before every timed call. Calls faster than a few microseconds are
// timed in batches so the clock is a small share of each sample.
func timeIt(budget time.Duration, prep, fn func()) float64 {
	deadline := time.Now().Add(budget)
	if prep != nil {
		prep()
	}
	t0 := time.Now()
	fn()
	first := time.Since(t0)
	batch := 1
	if prep == nil && first < 20*time.Microsecond {
		batch = int(20 * time.Microsecond / (first + 1))
		if batch > 256 {
			batch = 256
		}
		if batch < 1 {
			batch = 1
		}
	}
	// Warm-up: layerWarm calls, or a tenth of the budget (which one slow
	// call may already have used up).
	warmUntil := t0.Add(budget / 10)
	for i := 0; i < layerWarm/batch && time.Now().Before(warmUntil); i++ {
		for j := 0; j < batch; j++ {
			if prep != nil {
				prep()
			}
			fn()
		}
	}
	samples := make([]float64, 0, layerCalls/batch+1)
	for len(samples)*batch < layerCalls && (len(samples) < minSamples || time.Now().Before(deadline)) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/1e3/float64(batch))
	}
	return median(samples)
}

// pushLoop drives push in a closed loop and splits the timed calls into
// the ones that closed an aggregation window and the ones that did not.
// Warm-up ends after layerWarm calls or a quarter of span; sampling ends
// after layerCalls calls, or once span has passed and minSamples windows
// have closed.
func pushLoop(span time.Duration, push func(i int) (closed bool, err error)) (open, closing []float64, err error) {
	start := time.Now()
	warm := true
	for i := 0; len(open)+len(closing) < layerCalls; i++ {
		elapsed := time.Since(start)
		if warm && (i >= layerWarm || elapsed > span/4) {
			warm = false
		}
		if !warm && elapsed > span && len(closing) >= minSamples {
			break
		}
		t0 := time.Now()
		closed, err := push(i)
		us := float64(time.Since(t0)) / 1e3
		if err != nil {
			return nil, nil, err
		}
		switch {
		case warm:
		case closed:
			closing = append(closing, us)
		default:
			open = append(open, us)
		}
	}
	return open, closing, nil
}

// stubService answers every call with a canned reply: the bare service the
// transport floors are measured against.
type stubService struct {
	task  protocol.TaskResponse
	ack   protocol.PushAck
	stats protocol.Stats
}

func (s *stubService) RequestTask(context.Context, *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return &s.task, nil
}
func (s *stubService) PushGradient(context.Context, *protocol.GradientPush) (*protocol.PushAck, error) {
	return &s.ack, nil
}
func (s *stubService) Stats(context.Context) (*protocol.Stats, error) { return &s.stats, nil }

// layerBench carries what the per-layer timings of one workload share.
type layerBench struct {
	w      *workload
	in     *inputs
	budget time.Duration
	tmp    string
	ctx    context.Context
	m      map[string]float64

	// msgs are the pushes the serving node of this workload receives: the
	// pool itself, or on the tree the dense K-sum the edge forwards.
	msgs []protocol.GradientPush
	// The workload's typical pull request and the replies captured from a
	// real server one window in.
	req      protocol.TaskRequest
	typical  *protocol.TaskResponse
	full     *protocol.TaskResponse
	announce protocol.ModelAnnounce
}

// runLayers measures every per-layer timing of w. tmp is a scratch
// directory for checkpoint files.
func runLayers(w *workload, in *inputs, budget time.Duration, tmp string) (map[string]float64, error) {
	b := &layerBench{w: w, in: in, budget: budget, tmp: tmp, ctx: context.Background(), m: map[string]float64{}}
	b.msgs = in.pool
	if w.transport == "tree" {
		b.msgs = []protocol.GradientPush{forwardedWindow(in, w.k)}
	}
	steps := []func() error{
		b.server, b.protocol, b.handler, b.checkpoints, b.transports, b.interceptors,
		b.admission, b.pipelineAndMath, b.aggtree,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return b.m, nil
}

// forwardedWindow builds the push an edge sends upstream after k leaf
// pushes: the dense sum of their (dequantized) gradients.
func forwardedWindow(in *inputs, k int) protocol.GradientPush {
	sum := make([]float64, in.params)
	for i := 0; i < k; i++ {
		p, _ := protocol.DecodeGradientPayload(&in.pool[i], in.params)
		tensor.ScatterAddScaled(sum, p.Indices, p.Values, 1)
	}
	return protocol.GradientPush{
		WorkerID: edgeID, DeviceModel: "aggtree-edge", Gradient: sum,
		BatchSize: k * batchSize, LabelCounts: in.task.LabelCounts, Contributing: k,
	}
}

// fixture compiles the workload's single-model node in process.
func (b *layerBench) fixture(mutate func(*node.Spec)) (*node.Runtime, error) {
	s := b.w.serverSpec()
	if mutate != nil {
		mutate(&s)
	}
	return node.FromSpec(s)
}

// server times direct calls into the parameter server and captures the
// replies the protocol timings encode.
func (b *layerBench) server() error {
	rt, err := b.fixture(nil)
	if err != nil {
		return err
	}
	defer func() { _ = rt.Close() }()
	srv := rt.Server()
	published := false
	srv.OnSnapshot(func(ann protocol.ModelAnnounce) { b.announce, published = ann, true })

	version := 0
	accumulate, drain, err := pushLoop(6*b.budget, func(i int) (bool, error) {
		msg := b.msgs[i%len(b.msgs)]
		msg.ModelVersion = version
		ack, err := srv.PushGradient(b.ctx, &msg)
		if err != nil {
			return false, fmt.Errorf("server fixture push: %w", err)
		}
		closed := ack.NewVersion > version
		version = ack.NewVersion
		return closed, nil
	})
	if err != nil {
		return err
	}
	b.m["server.push_accumulate_us"] = median(accumulate) // 0 where every push closes a window (K = 1)
	b.m["server.push_drain_us"] = median(drain)

	b.req = b.in.task
	if b.w.delta {
		// The pull a warm delta client makes: its cache is already current
		// (announces keep it so), so the reply is the empty delta.
		b.req.WantDelta, b.req.KnownVersion = true, version
	}
	if b.typical, err = srv.RequestTask(b.ctx, &b.req); err != nil {
		return err
	}
	fullReq := b.in.task
	if b.full, err = srv.RequestTask(b.ctx, &fullReq); err != nil {
		return err
	}
	if !published {
		return fmt.Errorf("server fixture published no snapshot")
	}
	srv.OnSnapshot(nil)

	b.m["server.request_task_us"] = timeIt(b.budget, nil, func() { _, _ = srv.RequestTask(b.ctx, &b.req) })
	b.m["server.stats_us"] = timeIt(b.budget, nil, func() { _, _ = srv.Stats(b.ctx) })
	return nil
}

// protocol times the workload's codec on its own messages.
func (b *layerBench) protocol() error {
	codec := b.w.codec()
	ack := &protocol.PushAck{Applied: true, Scale: 1, NewVersion: b.announce.ModelVersion}
	msgs := []struct {
		name string
		v    interface{}
		into func() interface{}
		// size names the encoded-size metric ("" for none).
		size string
	}{
		{"push", &b.in.pool[0], func() interface{} { return new(protocol.GradientPush) }, "protocol.push_bytes"},
		{"task", b.typical, func() interface{} { return new(protocol.TaskResponse) }, "protocol.task_bytes"},
		{"task_full", b.full, func() interface{} { return new(protocol.TaskResponse) }, "protocol.task_full_bytes"},
		{"announce", &b.announce, func() interface{} { return new(protocol.ModelAnnounce) }, "protocol.announce_bytes"},
		{"request", &b.req, func() interface{} { return new(protocol.TaskRequest) }, ""},
		{"ack", ack, func() interface{} { return new(protocol.PushAck) }, ""},
	}
	for _, msg := range msgs {
		var buf bytes.Buffer
		if err := codec.Encode(&buf, msg.v); err != nil {
			return fmt.Errorf("encode %s: %w", msg.name, err)
		}
		wire := append([]byte(nil), buf.Bytes()...)
		if err := codec.Decode(bytes.NewReader(wire), msg.into()); err != nil {
			return fmt.Errorf("decode %s: %w", msg.name, err)
		}
		if msg.size != "" {
			b.m[msg.size] = float64(len(wire))
		}
		b.m["protocol."+msg.name+"_encode_us"] = timeIt(b.budget, nil, func() {
			buf.Reset()
			_ = codec.Encode(&buf, msg.v)
		})
		b.m["protocol."+msg.name+"_decode_us"] = timeIt(b.budget, nil, func() {
			_ = codec.Decode(bytes.NewReader(wire), msg.into())
		})
	}
	push := &b.in.pool[0]
	b.m["protocol.payload_decode_us"] = timeIt(b.budget, nil, func() {
		_, _ = protocol.DecodeGradientPayload(push, b.in.params)
	})
	return nil
}

// handler times the HTTP handler without a socket: negotiate + decode +
// service + encode on pre-encoded bodies. The window never closes (K is
// out of reach), so the pre-encoded push stays valid at version 0.
func (b *layerBench) handler() error {
	rt, err := b.fixture(func(s *node.Spec) { s.K = 1 << 30 })
	if err != nil {
		return err
	}
	defer func() { _ = rt.Close() }()
	h := server.NewHandler(rt.Service())
	codec := b.w.codec()
	req := b.req
	req.KnownVersion = 0
	for _, route := range []struct {
		metric, path string
		v            interface{}
	}{
		{"server.handler_task_us", "/v1/task", &req},
		{"server.handler_push_us", "/v1/gradient", &b.msgs[0]},
	} {
		var body bytes.Buffer
		if err := codec.Encode(&body, route.v); err != nil {
			return err
		}
		var hr *http.Request
		var rec *httptest.ResponseRecorder
		prep := func() {
			hr = httptest.NewRequest(http.MethodPost, route.path, bytes.NewReader(body.Bytes()))
			hr.Header.Set("Content-Type", codec.ContentType())
			rec = httptest.NewRecorder()
		}
		prep()
		h.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", route.path, rec.Code, rec.Body.String())
		}
		b.m[route.metric] = timeIt(b.budget, prep, func() { h.ServeHTTP(rec, hr) })
	}
	return nil
}

// checkpoints times the durable-state path at the workload's model size.
func (b *layerBench) checkpoints() error {
	dir := filepath.Join(b.tmp, "ckpt-"+b.w.name)
	defer func() { _ = os.RemoveAll(dir) }()
	rt, err := b.fixture(func(s *node.Spec) {
		s.Checkpoint = node.CheckpointSpec{Dir: filepath.Join(dir, "server"), Keep: 2}
	})
	if err != nil {
		return err
	}
	defer func() { _ = rt.Close() }()
	srv := rt.Server()
	if _, err := srv.Checkpoint(); err != nil {
		return err
	}
	b.m["server.checkpoint_ms"] = timeIt(b.budget, nil, func() { _, _ = srv.Checkpoint() }) / 1e3

	ckpt, err := persist.NewCheckpointer(filepath.Join(dir, "persist"), 2)
	if err != nil {
		return err
	}
	st := &persist.State{Arch: b.w.arch, Version: 1, Params: b.full.Params}
	path, err := ckpt.Save(st)
	if err != nil {
		return err
	}
	b.m["persist.save_ms"] = timeIt(b.budget, nil, func() { path, _ = ckpt.Save(st) }) / 1e3
	b.m["persist.load_ms"] = timeIt(b.budget, nil, func() { _, _ = persist.Load(path) }) / 1e3
	return nil
}

// transports times the two wires with a stub behind them: the cost of a
// request that carries nothing.
func (b *layerBench) transports() error {
	stub := &stubService{stats: protocol.Stats{ModelVersion: 1}}

	ts := httptest.NewServer(server.NewHandler(stub))
	hc := &worker.Client{BaseURL: ts.URL, HTTPClient: ts.Client(), Codec: protocol.JSON}
	_, err := hc.Stats(b.ctx)
	if err == nil {
		b.m["worker.http_floor_us"] = timeIt(b.budget, nil, func() { _, _ = hc.Stats(b.ctx) })
	}
	ts.Close()
	if err != nil {
		return fmt.Errorf("http floor: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ss := stream.NewServer(stub, stream.Options{})
	served := make(chan struct{})
	go func() {
		_ = ss.Serve(ln)
		close(served)
	}()
	defer func() {
		sctx, cancel := context.WithTimeout(b.ctx, 5*time.Second)
		_ = ss.Shutdown(sctx)
		cancel()
		<-served
	}()
	// The floor client speaks JSON so the tiny Stats reply costs no gzip;
	// the subscriber speaks the workload's codec, the one announces are
	// encoded in.
	fc := &stream.Client{Addr: ln.Addr().String(), Codec: protocol.JSON, WorkerID: workerID}
	defer func() { _ = fc.Close() }()
	if _, err := fc.Stats(b.ctx); err != nil {
		return fmt.Errorf("stream floor: %w", err)
	}
	floor := timeIt(b.budget, nil, func() { _, _ = fc.Stats(b.ctx) })
	b.m["stream.floor_us"] = floor
	fresh := timeIt(b.budget, func() { _ = fc.Close() }, func() { _, _ = fc.Stats(b.ctx) })
	b.m["stream.dial_us"] = fresh - floor

	got := make(chan time.Time, 1)
	sub := &stream.Client{Addr: ln.Addr().String(), Codec: b.w.codec(), WorkerID: workerID + 1, Subscribe: true,
		OnAnnounce: func(protocol.ModelAnnounce) { got <- time.Now() }}
	defer func() { _ = sub.Close() }()
	if _, err := sub.Stats(b.ctx); err != nil {
		return fmt.Errorf("stream subscriber: %w", err)
	}
	var lags []float64
	var sent time.Time
	ann := b.announce
	b.m["stream.broadcast_us"] = timeIt(b.budget,
		func() {
			if !sent.IsZero() {
				lags = append(lags, float64((<-got).Sub(sent))/1e3)
				sub.TakeAnnounces()
			}
			ann.ModelVersion++ // a subscriber only chains forward
			ann.DeltaBase = ann.ModelVersion - 1
			sent = time.Now()
		},
		func() { ss.Broadcast(ann) })
	lags = append(lags, float64((<-got).Sub(sent))/1e3)
	b.m["stream.announce_lag_us"] = median(lags)
	return nil
}

// interceptors times what the service-level layers add per call, each as
// the difference between the layered service and the server beneath it: the
// operator chain of the node compiled from the workload's Spec (whatever
// node.FromSpec composes), and the tenant enforcement layer around that
// server.
func (b *layerBench) interceptors() error {
	rt, err := b.fixture(nil)
	if err != nil {
		return err
	}
	defer func() { _ = rt.Close() }()
	req := b.req
	req.KnownVersion = 0 // the fixture never leaves version 0
	if _, err := rt.Service().RequestTask(b.ctx, &req); err != nil {
		return fmt.Errorf("service fixture: %w", err)
	}
	direct := timeIt(b.budget, nil, func() { _, _ = rt.Server().RequestTask(b.ctx, &req) })
	b.m["service.chain_us"] = timeIt(b.budget, nil, func() { _, _ = rt.Service().RequestTask(b.ctx, &req) }) - direct

	unit, err := tenant.Attach(benchTenantConfig(b.w.serverSpec()), rt.Server(), tenant.Options{})
	if err != nil {
		return err
	}
	token := tenant.MintToken([]byte(benchSecret), benchTenant, workerID)
	cctx := service.WithCredentials(b.ctx, service.Credentials{Tenant: benchTenant, Token: token})
	if _, err := unit.Service().RequestTask(cctx, &req); err != nil {
		return fmt.Errorf("tenant fixture: %w", err)
	}
	b.m["tenant.enforce_us"] = timeIt(b.budget, nil, func() { _, _ = unit.Service().RequestTask(cctx, &req) }) - direct
	b.m["tenant.verify_token_us"] = timeIt(b.budget, nil, func() {
		_, _ = tenant.VerifyToken([]byte(benchSecret), benchTenant, token)
	})
	return nil
}

// admission times the task-admission chain and the profiler behind it.
func (b *layerBench) admission() error {
	rt, err := b.fixture(nil)
	if err != nil {
		return err
	}
	defer func() { _ = rt.Close() }()
	areq := &sched.TaskRequest{Wire: &b.req, BatchSize: 100, Similarity: 0.5}
	chain := rt.Server().Admission()
	if _, err := chain.Admit(b.ctx, areq); err != nil {
		return err
	}
	b.m["sched.admit_us"] = timeIt(b.budget, nil, func() { _, _ = chain.Admit(b.ctx, areq) })

	// The iprof module alone. The profiler a node compiles is not reachable
	// from outside it, so this one mirrors node.buildProfilers (trainer set,
	// epsilon, retrain period) for a 3 s time SLO; it is measured on every
	// workload, though only the two dense ones deploy it.
	const slo = 3
	obs := iprof.Collect(simrand.New(modelSeed), device.Catalogue()[:8], iprof.KindTime, slo).Observations
	prof, err := iprof.New(iprof.Config{Epsilon: 2e-4, RetrainEvery: 100}, obs)
	if err != nil {
		return err
	}
	push := &b.in.pool[0]
	b.m["iprof.batch_size_us"] = timeIt(b.budget, nil, func() {
		prof.BatchSize(b.req.DeviceModel, b.req.TimeFeatures, slo)
	})
	b.m["iprof.observe_us"] = timeIt(b.budget, nil, func() {
		prof.Observe(iprof.Observation{DeviceModel: push.DeviceModel, Features: push.TimeFeatures,
			Alpha: push.CompTimeSec / float64(push.BatchSize)})
	})
	return nil
}

// pipelineAndMath times the update pipeline and the O(params) kernels a
// drain is made of.
func (b *layerBench) pipelineAndMath() error {
	// The workload's own stage and aggregator specs, around an AdaSGD this
	// function can fill the history of (the compiled one is the server's).
	spec := b.w.serverSpec()
	algo := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: spec.NonStragglerPct, BootstrapSteps: 50})
	pipe, err := pipeline.Build(spec.Stages, spec.Aggregator, pipeline.BuildOptions{Algorithm: algo, Seed: spec.Seed})
	if err != nil {
		return err
	}
	payload, err := protocol.DecodeGradientPayload(&b.msgs[0], b.in.params)
	if err != nil {
		return err
	}
	newGradient := func() *pipeline.Gradient {
		g := &pipeline.Gradient{Meta: learning.GradientMeta{Similarity: 0.5, BatchSize: batchSize, WorkerID: workerID}, Scale: 1}
		if payload.Sparse() {
			g.Vec, g.Indices, g.DenseLen = payload.Values, payload.Indices, b.in.params
		} else {
			g.Vec = payload.Dense
		}
		return g
	}
	g := newGradient()
	// AdaSGD sorts its staleness history on every Process, so the cost is
	// the history's length. It is timed full (16 384 entries), the steady
	// state of a server past that many pushes — which inproc-dense reaches
	// within its warm-up, and the slower workloads never do within a rep.
	for i := 0; i < 16384; i++ {
		algo.Observe(g.Meta)
	}
	b.m["pipeline.process_us"] = timeIt(b.budget, func() { g.Scale = 1 }, func() { _ = pipe.Process(g) })
	b.m["pipeline.add_us"] = timeIt(b.budget, nil, func() { pipe.Add(g) })
	b.m["pipeline.drain_us"] = timeIt(b.budget, func() { pipe.Add(g) }, func() { _ = pipe.Drain(func([]float64) {}) })

	// k = 1% of the parameters, the sparse workloads' uplink.
	sparse := compress.TopK(b.in.dense[0], b.in.topK)
	accum := make([]float64, b.in.params)
	b.m["tensor.scatter_add_us"] = timeIt(b.budget, nil, func() {
		tensor.ScatterAddScaled(accum, sparse.Indices, sparse.Values, 1)
	})

	arch, err := nn.ArchByName(b.w.arch)
	if err != nil {
		return err
	}
	net := arch.Build(simrand.New(modelSeed))
	direction := payload.Densify(b.in.params)
	b.m["nn.apply_gradient_us"] = timeIt(b.budget, nil, func() { net.ApplyGradient(direction, learningRate) })
	b.m["nn.param_vector_us"] = timeIt(b.budget, nil, func() { _ = net.ParamVector() })

	// Two model versions one window apart: what the drain diffs and what
	// a delta client patches.
	base := net.ParamVector()
	for i := 0; i < b.w.k; i++ {
		p, _ := protocol.DecodeGradientPayload(&b.in.pool[i], b.in.params)
		net.ApplyGradient(p.Densify(b.in.params), learningRate)
	}
	target := net.ParamVector()
	b.m["compress.diff_us"] = timeIt(b.budget, nil, func() { _, _ = compress.Diff(base, target, b.in.params/2) })
	delta, _ := compress.Diff(base, target, 0)
	cache := append([]float64(nil), base...)
	b.m["compress.patch_us"] = timeIt(b.budget, nil, func() { _ = delta.Patch(cache) })

	chain, err := compress.Build(fmt.Sprintf("topk(%d),q8", b.in.topK),
		compress.Options{Length: b.in.params, Rng: simrand.New(modelSeed)})
	if err != nil {
		return err
	}
	i := 0
	b.m["compress.client_compress_us"] = timeIt(b.budget, nil, func() {
		_ = chain.Compress(b.in.dense[i%len(b.in.dense)])
		i++
	})
	return nil
}

// aggtree times direct calls into an edge node whose upstream is the tree
// workload's root, in process.
func (b *layerBench) aggtree() error {
	rt, err := b.fixture(func(s *node.Spec) { s.K, s.TimeSLO = 1, 0 })
	if err != nil {
		return err
	}
	defer func() { _ = rt.Close() }()
	arch, err := nn.ArchByName(b.w.arch)
	if err != nil {
		return err
	}
	const edgeK = 4
	edge, err := aggtree.New(aggtree.Config{
		Upstream:  rt.Server(),
		Arch:      arch,
		Algorithm: learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 50}),
		K:         edgeK,
		ID:        edgeID,
	})
	if err != nil {
		return err
	}
	if err := edge.Sync(b.ctx); err != nil {
		return err
	}
	accumulate, forward, err := pushLoop(4*b.budget, func(i int) (bool, error) {
		msg := b.in.pool[i%len(b.in.pool)]
		msg.ModelVersion, _ = edge.Version()
		if _, err := edge.PushGradient(b.ctx, &msg); err != nil {
			return false, fmt.Errorf("edge fixture push: %w", err)
		}
		return (i+1)%edgeK == 0, nil
	})
	if err != nil {
		return err
	}
	if lost := edge.LostWindows(); lost != 0 {
		return fmt.Errorf("edge fixture lost %d windows", lost)
	}
	b.m["aggtree.push_accumulate_us"] = median(accumulate)
	b.m["aggtree.push_forward_us"] = median(forward)
	req := b.in.task
	if b.w.delta {
		req.WantDelta = true
		req.KnownVersion, req.KnownEpoch = edge.Version()
	}
	b.m["aggtree.request_task_us"] = timeIt(b.budget, nil, func() { _, _ = edge.RequestTask(b.ctx, &req) })
	return nil
}
