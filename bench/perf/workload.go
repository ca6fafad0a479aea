package main

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"fleet/internal/aggtree"
	"fleet/internal/compress"
	"fleet/internal/device"
	"fleet/internal/nn"
	"fleet/internal/node"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/stream"
	"fleet/internal/tenant"
	"fleet/internal/worker"
)

// Deployment constants. The program under test is seeded with a constant:
// the benchmark's -seed shapes only the messages it is sent.
const (
	modelSeed    = 1
	learningRate = 0.01
	workerID     = 1
	edgeID       = 1000000
	benchTenant  = "bench"
	benchSecret  = "perf-bench-secret"
	poolSize     = 16
	batchSize    = 32
	// coldPhase places the cold full pull two rounds after a window closes
	// (windows close on rounds 3, 7, ... with K = 4), so it never replaces
	// the pull that follows a drain.
	coldPhase = 2
)

// workload is one deployment plus the message mix driven against it.
type workload struct {
	name string
	why  string
	// transport is the client's path to the serving node: "http", "stream",
	// "none" (in process) or "tree" (stream leaf -> edge -> stream root).
	transport string
	arch      string
	// k is the aggregation window of the node the client talks to.
	k int
	// sparse pre-compresses the pool with topk(1%),q8; delta keeps a
	// client-side model cache fed by delta pulls and announces; coldEvery
	// makes every n-th round a cold full pull (0: never); flat selects the
	// flat codec instead of leaving Codec unset.
	sparse    bool
	delta     bool
	coldEvery int
	flat      bool
	tenant    bool
	timeSLO   float64
}

var workloads = []*workload{
	{name: "http-default-dense", transport: "http", arch: "mnist", k: 4, timeSLO: 3,
		why: "What a user gets with no flags: loopback HTTP, Codec unset (gob+gzip), dense 94 KB push and a full pull every round; codec and HTTP do nearly all the work."},
	{name: "stream-tenant-sparse", transport: "stream", arch: "cifar100", k: 4, sparse: true, delta: true, coldEvery: 4, flat: true, tenant: true,
		why: "The tuned posture: tenant auth/quota, stream session, flat codec, topk(1%),q8 uplink, announce/delta-fed cache, every 4th pull cold (2.6 MB); drain and snapshot reads dominate."},
	{name: "inproc-dense", transport: "none", arch: "mnist", k: 4, timeSLO: 3,
		why: "The http-default-dense messages with no wire at all: interceptors, admission, I-Prof, pipeline, accumulate, drain. http-default-dense minus this is the wire cost."},
	{name: "tree-stream-sparse", transport: "tree", arch: "mnist", k: 4, sparse: true, delta: true, flat: true,
		why: "The ingest layer used the other way: a leaf pushes topk(1%),q8 to an edge that accumulates K=4 and forwards one dense K-sum to a K=1 root over a gob stream."},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs are the pre-generated messages of one workload: the only thing
// the program under test ever sees of the benchmark's seed.
type inputs struct {
	params  int
	classes int
	topK    int
	task    protocol.TaskRequest
	pool    []protocol.GradientPush
	// dense holds the uncompressed gradients the pool was built from (the
	// layer timings compress one again).
	dense [][]float64
}

// genInputs builds the message pool from seed: poolSize synthetic
// gradients, N(0, 1e-3) per coordinate, pre-compressed with topk(k),q8
// (k = 1% of the parameters) on the sparse workloads; fixed label counts,
// and the device name, features and measured cost of the catalogue's first
// device.
func genInputs(w *workload, seed int64) (*inputs, error) {
	arch, err := nn.ArchByName(w.arch)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(seed)
	in := &inputs{
		params:  arch.Build(simrand.New(0)).ParamCount(),
		classes: arch.Classes(),
	}
	in.topK = in.params / 100
	dev := device.New(device.Catalogue()[0], simrand.New(rng.Int63()))
	labels := make([]int, in.classes)
	for i := range labels {
		labels[i] = 1 + i%3
	}
	in.task = protocol.TaskRequest{
		WorkerID:       workerID,
		DeviceModel:    dev.Model.Name,
		TimeFeatures:   dev.Features(),
		EnergyFeatures: dev.EnergyFeatures(),
		LabelCounts:    labels,
	}
	exec := dev.Execute(batchSize)
	var chain compress.Compressor
	if w.sparse {
		chain, err = compress.Build(fmt.Sprintf("topk(%d),q8", in.topK),
			compress.Options{Length: in.params, Rng: simrand.New(rng.Int63())})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < poolSize; i++ {
		grad := make([]float64, in.params)
		for j := range grad {
			grad[j] = rng.NormFloat64() * 1e-3
		}
		in.dense = append(in.dense, grad)
		push := protocol.GradientPush{
			WorkerID:       workerID,
			DeviceModel:    dev.Model.Name,
			BatchSize:      batchSize,
			LabelCounts:    labels,
			CompTimeSec:    exec.LatencySec,
			EnergyPct:      exec.EnergyPct,
			TimeFeatures:   in.task.TimeFeatures,
			EnergyFeatures: in.task.EnergyFeatures,
		}
		if chain == nil {
			push.Gradient = grad
		} else {
			q := chain.Compress(grad).Q8
			push.Encoding = compress.EncodingTopKQ8
			push.GradientLen = q.Len
			push.SparseIndices = q.Indices
			push.SparseQ8Levels = q.Levels
			push.SparseQ8Min = q.Min
			push.SparseQ8Max = q.Max
		}
		in.pool = append(in.pool, push)
	}
	return in, nil
}

// codec is the client codec of the workload: flat where the workload says
// so, otherwise whatever an unset Codec negotiates to (gob+gzip today).
func (w *workload) codec() protocol.Codec {
	if w.flat {
		return protocol.Flat
	}
	c, _ := protocol.CodecForContentType("")
	return c
}

func quiet(string, ...interface{}) {}

// spec is the declarative node.Spec of the node the workload's model lives
// on, bound to transport ("http", "stream" or "none").
func (w *workload) spec(transport string) node.Spec {
	s := w.serverSpec()
	s.Bind = node.BindSpec{
		Transport:  transport,
		Addr:       "127.0.0.1:0",
		StreamAddr: "127.0.0.1:0",
		Drain:      10 * time.Second,
	}
	if w.tenant {
		s.Tenants = []tenant.Config{benchTenantConfig(s), {Name: "idle"}}
		s.DefaultTenant = "idle"
	}
	return s
}

// benchTenantConfig is the tenant the client belongs to, serving s's model.
func benchTenantConfig(s node.Spec) tenant.Config {
	return tenant.Config{Name: benchTenant, Arch: s.Arch, K: s.K, LearningRate: s.LearningRate,
		Seed: s.Seed, Secret: benchSecret, MaxWorkers: 8}
}

// serverSpec is the single-model, listener-less form of spec: what the
// tenant unit is built from on the tenant workload, and the fixture the
// layer timings call into directly on every workload.
func (w *workload) serverSpec() node.Spec {
	k := w.k
	if w.transport == "tree" {
		k = 1 // the root applies every forwarded K-sum at once
	}
	return node.Spec{
		Arch:            w.arch,
		K:               k,
		LearningRate:    learningRate,
		Stages:          "staleness",
		Aggregator:      "mean",
		TimeSLO:         w.timeSLO,
		NonStragglerPct: 99.7,
		Seed:            modelSeed,
		Logf:            quiet,
		Bind:            node.BindSpec{Transport: "none"},
	}
}

// deployment is one booted instance of a workload: the runtimes, the
// client's service, and the handles the verify stage reads.
type deployment struct {
	w   *workload
	svc service.Service
	ctx context.Context
	// wire tallies the client's payload bytes (nil in process).
	wire *protocol.WireCounter
	// nodes are shut down in order: the edge (which flushes) before the root.
	nodes  []*node.Runtime
	root   func() (*protocol.Stats, error)
	edge   *aggtree.Node
	stream *stream.Client
	httpTr *http.Transport

	announces atomic.Int64
	coalesced atomic.Int64

	fromSpec time.Duration
	start    time.Duration
}

// boot compiles and starts one node, timing both steps. instrument, when
// non-nil, doctors the assembly before Start (the traced run installs its
// interceptor there).
func (d *deployment) boot(s node.Spec, instrument func(*node.Assembly)) (*node.Runtime, error) {
	t0 := time.Now()
	rt, err := node.FromSpec(s)
	d.fromSpec += time.Since(t0)
	if err != nil {
		return nil, err
	}
	if instrument != nil {
		instrument(rt.Assembly())
	}
	t0 = time.Now()
	err = rt.Start(context.Background())
	d.start += time.Since(t0)
	if err != nil {
		return nil, err
	}
	// The edge is booted after the root but must shut down before it.
	d.nodes = append([]*node.Runtime{rt}, d.nodes...)
	return rt, nil
}

// deploy boots the workload over transport — its own, or "none" for the
// in-process twin the path-equivalence check replays against. tr is nil on
// untraced runs.
func (w *workload) deploy(transport string, tr *tracer) (d *deployment, err error) {
	d = &deployment{w: w, ctx: context.Background()}
	defer func() {
		if err != nil {
			d.shutdown()
		}
	}()
	codec := w.codec()
	if tr != nil {
		codec = tr.wrapCodec(codec)
	}

	bind := transport
	if transport == "tree" {
		bind = "stream"
	}
	rootRT, err := d.boot(w.spec(bind), tr.instrument("root"))
	if err != nil {
		return d, err
	}
	creds := service.Credentials{Tenant: benchTenant, Token: tenant.MintToken([]byte(benchSecret), benchTenant, workerID)}
	rootSvc := rootRT.Service()
	if w.tenant {
		// The unit's enforced service: what both the in-process twin and
		// the verify stage's Stats probe call, credentials attached.
		rootSvc, _, err = rootRT.Assembly().Resolver(benchTenant)
		if err != nil {
			return d, err
		}
		d.ctx = service.WithCredentials(d.ctx, creds)
	}
	statsCtx := d.ctx
	d.root = func() (*protocol.Stats, error) { return rootSvc.Stats(statsCtx) }

	addr := ""
	if a := rootRT.Addr(); a != nil {
		addr = a.String()
	}
	if transport == "tree" {
		edgeRT, err := d.boot(node.Spec{
			Role: node.RoleEdge, Arch: w.arch, K: w.k, Stages: "staleness", Aggregator: "mean",
			NonStragglerPct: 99.7, ID: edgeID, Logf: quiet,
			Upstream: node.UpstreamSpec{Target: addr, Transport: "stream"},
			Bind:     node.BindSpec{Transport: "stream", StreamAddr: "127.0.0.1:0", Drain: 10 * time.Second},
		}, tr.instrument("edge"))
		if err != nil {
			return d, err
		}
		d.edge = edgeRT.Assembly().EdgeNode
		addr = edgeRT.Addr().String()
	}

	switch transport {
	case "none":
		d.svc = rootSvc
	case "http":
		d.wire = &protocol.WireCounter{}
		d.httpTr = http.DefaultTransport.(*http.Transport).Clone()
		c := &worker.Client{BaseURL: "http://" + addr, HTTPClient: &http.Client{Transport: d.httpTr}, Wire: d.wire}
		if tr != nil || w.flat {
			c.Codec = codec // otherwise unset, as a user with no flags leaves it
		}
		d.svc = c
	case "stream", "tree":
		d.wire = &protocol.WireCounter{}
		d.stream = &stream.Client{
			Addr: addr, Codec: codec, WorkerID: workerID, Subscribe: true, Wire: d.wire,
			OnAnnounce: func(ann protocol.ModelAnnounce) {
				d.announces.Add(1)
				if ann.Delta != nil && ann.ModelVersion-ann.DeltaBase > 1 {
					d.coalesced.Add(1)
				}
			},
		}
		if w.tenant {
			d.stream.Tenant, d.stream.Token = creds.Tenant, creds.Token
		}
		d.svc = d.stream
	default:
		return d, fmt.Errorf("unknown transport %q", transport)
	}
	if tr != nil {
		d.svc = tr.wrapClient(d.svc)
	}
	return d, nil
}

// shutdown closes the client's connection and runs every node's canonical
// Shutdown, edge first. It returns the time the nodes took and whether
// every one exited cleanly.
func (d *deployment) shutdown() (time.Duration, bool) {
	if d.stream != nil {
		_ = d.stream.Close()
	}
	if d.httpTr != nil {
		d.httpTr.CloseIdleConnections()
	}
	clean := true
	t0 := time.Now()
	for _, rt := range d.nodes {
		if rt.Shutdown(context.Background()) != 0 {
			clean = false
		}
	}
	d.nodes = nil
	return time.Since(t0), clean
}
