package worker

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"fleet/internal/compress"
	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

func newServer(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Arch == 0 {
		cfg.Arch = nn.ArchSoftmaxMNIST
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5})
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.3
	}
	if cfg.DefaultBatchSize == 0 {
		cfg.DefaultBatchSize = 16
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newWorkers(t *testing.T, n int, ds *data.Dataset) []*Worker {
	t.Helper()
	rng := simrand.New(2)
	parts := data.PartitionNonIID(rng, ds.Train, n, 2)
	models := device.Catalogue()
	out := make([]*Worker, 0, n)
	for i := 0; i < n; i++ {
		dev := device.New(models[i%len(models)], simrand.New(int64(100+i)))
		w, err := New(Config{
			ID:     i,
			Arch:   nn.ArchSoftmaxMNIST,
			Local:  parts[i],
			Device: dev,
			Rng:    simrand.New(int64(200 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Arch: nn.ArchSoftmaxMNIST, Rng: simrand.New(1)}); err == nil {
		t.Error("empty local data must error")
	}
	ds := data.TinyMNIST(1, 2, 1)
	if _, err := New(Config{Arch: nn.ArchSoftmaxMNIST, Local: ds.Train}); err == nil {
		t.Error("nil rng must error")
	}
}

func TestInProcessTrainingRound(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(3, 24, 8)
	srv := newServer(t, server.Config{})
	workers := newWorkers(t, 8, ds)

	scratch := nn.ArchSoftmaxMNIST.Build(simrand.New(9))
	before := srv.Evaluate(scratch, ds.Test)

	for round := 0; round < 30; round++ {
		for _, w := range workers {
			if _, err := w.Step(ctx, srv); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := srv.Evaluate(scratch, ds.Test)
	if after <= before || after < 0.4 {
		t.Fatalf("federated training accuracy %v -> %v; not learning", before, after)
	}
	stats, err := srv.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 8*30 {
		t.Fatalf("gradients in = %d, want %d", stats.GradientsIn, 8*30)
	}
	if stats.ModelVersion != 8*30 {
		t.Fatalf("model version = %d, want %d (K=1)", stats.ModelVersion, 8*30)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(5, 12, 4)
	srv := newServer(t, server.Config{})
	hs := httptest.NewServer(server.NewHandler(srv))
	defer hs.Close()

	client := &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
	workers := newWorkers(t, 4, ds)

	for round := 0; round < 5; round++ {
		for _, w := range workers {
			ack, err := w.Step(ctx, client)
			if err != nil {
				t.Fatal(err)
			}
			if !ack.Applied {
				t.Fatal("gradient not applied over HTTP")
			}
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 20 || stats.ModelVersion != 20 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestHTTPEndToEndJSONAndDefault drives the same server through the JSON
// codec and a client with no codec set (protocol.Default, flat): both
// representations must train against one model.
func TestHTTPEndToEndJSONAndDefault(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(5, 12, 4)
	srv := newServer(t, server.Config{})
	hs := httptest.NewServer(server.NewHandler(srv))
	defer hs.Close()

	jsonClient := &Client{BaseURL: hs.URL, HTTPClient: hs.Client(), Codec: protocol.JSON}
	defaultClient := &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
	workers := newWorkers(t, 2, ds)

	for round := 0; round < 3; round++ {
		if _, err := workers[0].Step(ctx, jsonClient); err != nil {
			t.Fatal(err)
		}
		if _, err := workers[1].Step(ctx, defaultClient); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := defaultClient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 6 {
		t.Fatalf("gradients in = %d, want 6", stats.GradientsIn)
	}
	if got := stats.WireUplinkByCodec; got[protocol.ContentTypeFlat] == 0 || len(got) != 2 {
		t.Fatalf("uplink by codec = %v, want flat and JSON", got)
	}
}

// TestClientDecodesStructuredErrors pushes an invalid gradient over HTTP
// and checks the client surfaces the server's typed *protocol.Error.
func TestClientDecodesStructuredErrors(t *testing.T) {
	ctx := context.Background()
	srv := newServer(t, server.Config{})
	hs := httptest.NewServer(server.NewHandler(srv))
	defer hs.Close()

	for _, c := range []*Client{
		{BaseURL: hs.URL, HTTPClient: hs.Client()},
		{BaseURL: hs.URL, HTTPClient: hs.Client(), Codec: protocol.JSON},
	} {
		_, err := c.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: 99, Gradient: make([]float64, srvParamCount()), BatchSize: 1,
		})
		var apiErr *protocol.Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("want *protocol.Error over the wire, got %T: %v", err, err)
		}
		if apiErr.Code != protocol.CodeVersionConflict {
			t.Fatalf("code = %s, want %s", apiErr.Code, protocol.CodeVersionConflict)
		}
	}
}

func srvParamCount() int {
	return nn.ArchSoftmaxMNIST.Build(simrand.New(0)).ParamCount()
}

func TestWorkerCountsRejections(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(6, 12, 4)
	// MinBatchSize above the default batch size: every task is rejected.
	srv := newServer(t, server.Config{Admission: sched.NewChain(sched.MinBatch(1000)), DefaultBatchSize: 16})
	workers := newWorkers(t, 1, ds)
	w := workers[0]
	ack, err := w.Step(ctx, srv)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied {
		t.Fatal("task should have been rejected")
	}
	if w.Rejections != 1 || w.Tasks != 0 {
		t.Fatalf("rejections=%d tasks=%d", w.Rejections, w.Tasks)
	}
}

func TestWorkerReportsDeviceCost(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(7, 12, 4)
	srv := newServer(t, server.Config{})
	workers := newWorkers(t, 1, ds)
	if _, err := workers[0].Step(ctx, srv); err != nil {
		t.Fatal(err)
	}
	// Mean staleness exists; more importantly the step worked with a device
	// attached, exercising the cost-measurement path.
	if workers[0].Tasks != 1 {
		t.Fatal("task not completed")
	}
}

func TestClientStatsErrorOnBadServer(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:0"}
	_, err := c.Stats(context.Background())
	if err == nil {
		t.Fatal("want error on unreachable server")
	}
	var apiErr *protocol.Error
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeUnavailable {
		t.Fatalf("want structured unavailable error, got %v", err)
	}
}

func TestCompressedUplinkTrains(t *testing.T) {
	// Top-k compression with error feedback must still learn (the dropped
	// mass is delayed, not lost) while shrinking the uplink ~10x.
	ctx := context.Background()
	ds := data.TinyMNIST(8, 24, 8)
	srv := newServer(t, server.Config{})
	rng := simrand.New(9)
	parts := data.PartitionNonIID(rng, ds.Train, 8, 2)
	paramCount := srvParamCount()

	var workers []*Worker
	for i := 0; i < 8; i++ {
		w, err := New(Config{
			ID:       i,
			Arch:     nn.ArchSoftmaxMNIST,
			Local:    parts[i],
			Rng:      simrand.New(int64(300 + i)),
			Compress: fmt.Sprintf("topk(%d)", paramCount/10),
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	for round := 0; round < 40; round++ {
		for _, w := range workers {
			if _, err := w.Step(ctx, srv); err != nil {
				t.Fatal(err)
			}
		}
	}
	scratch := nn.ArchSoftmaxMNIST.Build(simrand.New(10))
	if acc := srv.Evaluate(scratch, ds.Test); acc < 0.4 {
		t.Fatalf("compressed training accuracy %v, want >= 0.4", acc)
	}
}

func TestSparsePushValidation(t *testing.T) {
	ctx := context.Background()
	srv := newServer(t, server.Config{})
	params, _ := srv.Model()
	push := protocolSparsePush(len(params))
	if _, err := srv.PushGradient(ctx, &push); err != nil {
		t.Fatalf("valid sparse push rejected: %v", err)
	}
	bad := protocolSparsePush(len(params))
	bad.SparseIndices = []int32{int32(len(params))} // out of range
	if _, err := srv.PushGradient(ctx, &bad); err == nil {
		t.Fatal("out-of-range sparse index accepted")
	}
	mismatch := protocolSparsePush(len(params))
	mismatch.SparseValues = append(mismatch.SparseValues, 1)
	if _, err := srv.PushGradient(ctx, &mismatch); err == nil {
		t.Fatal("index/value length mismatch accepted")
	}
	wrongLen := protocolSparsePush(len(params))
	wrongLen.GradientLen = 3
	if _, err := srv.PushGradient(ctx, &wrongLen); err == nil {
		t.Fatal("wrong dense length accepted")
	}
}

func protocolSparsePush(paramCount int) protocol.GradientPush {
	return protocol.GradientPush{
		ModelVersion:  0,
		GradientLen:   paramCount,
		SparseIndices: []int32{0},
		SparseValues:  []float64{0.5},
		BatchSize:     10,
		LabelCounts:   []int{1},
	}
}

// scriptedService replays canned task responses and records pushes,
// standing in for servers of any vintage.
type scriptedService struct {
	responses []*protocol.TaskResponse
	requests  []protocol.TaskRequest
	calls     int
}

func (s *scriptedService) RequestTask(_ context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	s.requests = append(s.requests, *req)
	r := s.responses[s.calls%len(s.responses)]
	s.calls++
	return r, nil
}

func (s *scriptedService) PushGradient(context.Context, *protocol.GradientPush) (*protocol.PushAck, error) {
	return &protocol.PushAck{Applied: true}, nil
}

func (s *scriptedService) Stats(context.Context) (*protocol.Stats, error) {
	return &protocol.Stats{}, nil
}

// TestWorkerAppliesDeltaPulls scripts a full pull then a sparse delta and
// checks the worker advertises its version, reconstructs the exact target
// params, and counts the delta pull.
func TestWorkerAppliesDeltaPulls(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(1, 4, 1)
	w, err := New(Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	n := w.net.ParamCount()
	params := make([]float64, n)
	for i := range params {
		params[i] = float64(i) * 1e-3
	}
	svc := &scriptedService{responses: []*protocol.TaskResponse{
		{Accepted: true, ModelVersion: 5, Params: params, BatchSize: 2},
		{Accepted: true, ModelVersion: 7, BatchSize: 2, DeltaBase: 5,
			ParamsDelta: &compress.Sparse{Len: n, Indices: []int32{0, 9}, Values: []float64{0.5, -0.25}}},
	}}

	if _, err := w.Step(ctx, svc); err != nil {
		t.Fatal(err)
	}
	// The first request has no cached model: no delta advertisement.
	if svc.requests[0].WantDelta {
		t.Fatal("first request must not advertise WantDelta")
	}
	if _, err := w.Step(ctx, svc); err != nil {
		t.Fatal(err)
	}
	if !svc.requests[1].WantDelta || svc.requests[1].KnownVersion != 5 {
		t.Fatalf("second request = %+v", svc.requests[1])
	}
	if w.DeltaPulls != 1 {
		t.Fatalf("DeltaPulls = %d", w.DeltaPulls)
	}
	// Overwrite semantics: the delta carries the changed coordinates' new
	// values; untouched coordinates keep the cached full-pull values.
	got := w.net.ParamVector()
	if got[0] != 0.5 || got[9] != -0.25 || got[1] != params[1] {
		t.Fatalf("reconstruction wrong: got[0]=%v got[9]=%v got[1]=%v", got[0], got[9], got[1])
	}
}

// TestWorkerFallsBackOnPreDeltaServer: a server that ignores WantDelta and
// keeps sending full params must keep working (and count no delta pulls).
func TestWorkerFallsBackOnPreDeltaServer(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(1, 4, 1)
	w, err := New(Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, w.net.ParamCount())
	svc := &scriptedService{responses: []*protocol.TaskResponse{
		{Accepted: true, ModelVersion: 1, Params: params, BatchSize: 2},
	}}
	for i := 0; i < 3; i++ {
		if _, err := w.Step(ctx, svc); err != nil {
			t.Fatal(err)
		}
	}
	if w.DeltaPulls != 0 || w.Tasks != 3 {
		t.Fatalf("DeltaPulls = %d, Tasks = %d", w.DeltaPulls, w.Tasks)
	}
	if !svc.requests[2].WantDelta || svc.requests[2].KnownVersion != 1 {
		t.Fatalf("worker stopped advertising deltas: %+v", svc.requests[2])
	}
}

// TestWorkerRejectsCorruptDelta: a delta against the wrong base version or
// with out-of-range indices must error, not corrupt the cached model.
func TestWorkerRejectsCorruptDelta(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(1, 4, 1)
	w, err := New(Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	n := w.net.ParamCount()
	svc := &scriptedService{responses: []*protocol.TaskResponse{
		{Accepted: true, ModelVersion: 5, Params: make([]float64, n), BatchSize: 2},
		{Accepted: true, ModelVersion: 7, BatchSize: 2, DeltaBase: 4, // wrong base
			ParamsDelta: &compress.Sparse{Len: n, Indices: []int32{0}, Values: []float64{1}}},
	}}
	if _, err := w.Step(ctx, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(ctx, svc); err == nil {
		t.Fatal("mismatched delta base must error")
	}
	// A delta response before any full pull must error too.
	w2, err := New(Config{ID: 2, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	svc2 := &scriptedService{responses: []*protocol.TaskResponse{
		{Accepted: true, ModelVersion: 7, BatchSize: 2,
			ParamsDelta: &compress.Sparse{Len: n, Indices: []int32{0}, Values: []float64{1}}},
	}}
	if _, err := w2.Step(ctx, svc2); err == nil {
		t.Fatal("delta without cached model must error")
	}
}

// TestWorkerDeltaPullsEndToEndHTTP runs sparse-uplink workers against a
// live server over HTTP and checks the downlink actually serves deltas.
func TestWorkerDeltaPullsEndToEndHTTP(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(3, 24, 8)
	srv := newServer(t, server.Config{Algorithm: learning.SSGD{}, DeltaHistory: 8})
	hs := httptest.NewServer(server.NewHandler(srv))
	defer hs.Close()

	rng := simrand.New(2)
	parts := data.PartitionNonIID(rng, ds.Train, 2, 2)
	var workers []*Worker
	for i := range parts {
		w, err := New(Config{
			ID: i, Arch: nn.ArchSoftmaxMNIST, Local: parts[i],
			Rng: simrand.New(int64(300 + i)), Compress: "topk(8)",
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	client := &Client{BaseURL: hs.URL}
	for round := 0; round < 5; round++ {
		for _, w := range workers {
			if _, err := w.Step(ctx, client); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := 0
	for _, w := range workers {
		total += w.DeltaPulls
	}
	// First pull per worker is full; with K=1 sparse updates every later
	// pull is a delta (2 workers alternate, τ=2 ≤ history 8).
	if total != 2*5-2 {
		t.Fatalf("delta pulls = %d, want %d", total, 2*5-2)
	}
}

// TestAbsorbAnnounceChainSemantics pins the contract callers walking an
// announce chain rely on: stale announces (already covered by the cache)
// keep the chain going without counting a refresh, an adjacent delta
// applies, and gaps, epoch changes, missing deltas and cold caches all
// break the chain quietly.
func TestAbsorbAnnounceChainSemantics(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(3, 8, 4)
	srv := newServer(t, server.Config{})
	w := newWorkers(t, 1, ds)[0]
	if _, err := w.Pull(ctx, srv); err != nil {
		t.Fatal(err)
	}
	ver, epoch, ok := w.CachedVersion()
	if !ok {
		t.Fatal("no cached model after pull")
	}
	noop := &compress.Sparse{Len: len(nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamVector())}

	// Stale (at or below the cache): chain continues, nothing applied.
	if !w.AbsorbAnnounce(protocol.ModelAnnounce{ModelVersion: ver, ServerEpoch: epoch}) {
		t.Error("stale announce broke the chain")
	}
	if w.Refreshes != 0 {
		t.Fatalf("stale announce counted as refresh: %d", w.Refreshes)
	}
	// Adjacent with a delta: applies and advances the cache clock.
	if !w.AbsorbAnnounce(protocol.ModelAnnounce{ModelVersion: ver + 1, DeltaBase: ver, ServerEpoch: epoch, Delta: noop}) {
		t.Fatal("adjacent announce did not absorb")
	}
	if v, _, _ := w.CachedVersion(); v != ver+1 || w.Refreshes != 1 {
		t.Fatalf("cache at v%d refreshes=%d after absorb, want v%d refreshes=1", v, w.Refreshes, ver+1)
	}
	// A version gap, a different incarnation, and a delta-less adjacent
	// announce all break the chain.
	if w.AbsorbAnnounce(protocol.ModelAnnounce{ModelVersion: ver + 3, DeltaBase: ver + 2, ServerEpoch: epoch, Delta: noop}) {
		t.Error("gapped announce absorbed")
	}
	if w.AbsorbAnnounce(protocol.ModelAnnounce{ModelVersion: ver + 2, DeltaBase: ver + 1, ServerEpoch: epoch + 1, Delta: noop}) {
		t.Error("cross-incarnation announce absorbed")
	}
	if w.AbsorbAnnounce(protocol.ModelAnnounce{ModelVersion: ver + 2, DeltaBase: ver + 1, ServerEpoch: epoch}) {
		t.Error("delta-less announce absorbed")
	}
	// Cold cache: nothing applies, not even stale skips.
	w.ResetModelCache()
	if w.AbsorbAnnounce(protocol.ModelAnnounce{ModelVersion: ver, ServerEpoch: epoch}) {
		t.Error("cold-cache announce absorbed")
	}
}

// TestCompressorChainTagsPush builds workers over every registered chain
// shape and checks the pushes they produce: self-describing Encoding tag,
// the right payload fields, and server acceptance end-to-end.
func TestCompressorChainTagsPush(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(4, 12, 4)
	srv := newServer(t, server.Config{})
	cases := []struct {
		spec string
		enc  string
	}{
		{"topk(16)", "topk"},
		{"topk(16),q8", "topk+q8"},
		{"topk(16),f16", "topk+f16"},
	}
	for i, tc := range cases {
		w, err := New(Config{
			ID: i, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train,
			Rng:      simrand.New(int64(400 + i)),
			Compress: tc.spec, CompressRng: simrand.New(int64(500 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := w.Pull(ctx, srv)
		if err != nil {
			t.Fatal(err)
		}
		push := w.Compute(resp).Push
		if push.Encoding != tc.enc {
			t.Fatalf("%s: push tagged %q, want %q", tc.spec, push.Encoding, tc.enc)
		}
		if push.Gradient != nil || push.GradientLen != srvParamCount() || len(push.SparseIndices) != 16 {
			t.Fatalf("%s: malformed sparse push: len=%d idx=%d", tc.spec, push.GradientLen, len(push.SparseIndices))
		}
		switch tc.enc {
		case "topk":
			if len(push.SparseValues) != 16 {
				t.Fatalf("topk: %d values", len(push.SparseValues))
			}
		case "topk+q8":
			if len(push.SparseQ8Levels) != 16 || push.SparseQ8Min >= push.SparseQ8Max {
				t.Fatalf("q8: levels=%d range=[%v,%v]", len(push.SparseQ8Levels), push.SparseQ8Min, push.SparseQ8Max)
			}
		case "topk+f16":
			if len(push.SparseF16) != 16 {
				t.Fatalf("f16: %d values", len(push.SparseF16))
			}
		}
		if _, err := w.Push(ctx, srv, push); err != nil {
			t.Fatalf("%s: server rejected chain push: %v", tc.spec, err)
		}
	}
}

// TestQuantizedUplinkTrains: a q8-quantized top-k uplink must still learn —
// stochastic rounding keeps the quantization noise zero-mean, so it washes
// out across the K-window instead of drifting the model.
func TestQuantizedUplinkTrains(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(8, 24, 8)
	srv := newServer(t, server.Config{})
	rng := simrand.New(9)
	parts := data.PartitionNonIID(rng, ds.Train, 8, 2)
	paramCount := srvParamCount()

	var workers []*Worker
	for i := 0; i < 8; i++ {
		w, err := New(Config{
			ID: i, Arch: nn.ArchSoftmaxMNIST, Local: parts[i],
			Rng:      simrand.New(int64(300 + i)),
			Compress: fmt.Sprintf("topk(%d),q8", paramCount/10), CompressRng: simrand.New(int64(600 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	for round := 0; round < 40; round++ {
		for _, w := range workers {
			if _, err := w.Step(ctx, srv); err != nil {
				t.Fatal(err)
			}
		}
	}
	scratch := nn.ArchSoftmaxMNIST.Build(simrand.New(10))
	if acc := srv.Evaluate(scratch, ds.Test); acc < 0.4 {
		t.Fatalf("quantized training accuracy %v, want >= 0.4", acc)
	}
}
