package loadgen

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fleet/internal/aggtree"
	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/iprof"
	"fleet/internal/metrics"
	"fleet/internal/nn"
	"fleet/internal/node"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/spec"
	"fleet/internal/stream"
	"fleet/internal/worker"
)

// Transport selects how workers reach the server.
type Transport string

// Transports.
const (
	// TransportInProc calls the *server.Server directly (fast, default).
	TransportInProc Transport = "inproc"
	// TransportHTTP drives the real v1 wire protocol (protocol.Default,
	// flat, unless Scenario.Codec names a codec) through a loopback HTTP
	// server, exercising codecs, routing and error mapping. Polling
	// semantics: every request dials a fresh connection (mobile
	// fleets hold no pooled sockets across think time), so the harness
	// counts one connection per call and, when the scenario prices
	// connection setup, charges it on every pull and push.
	TransportHTTP Transport = "http"
	// TransportStream drives the persistent-session stream transport
	// (internal/stream) over a loopback TCP listener: one multiplexed
	// session per worker, server-pushed model announces absorbed into the
	// worker cache before each pull, and connection setup paid once per
	// session instead of per call. Announce delivery is fenced into the
	// deterministic event order, so stream runs replay bit-for-bit like
	// every other transport.
	TransportStream Transport = "stream"
)

// Runner executes one scenario on the deterministic discrete-event engine:
// one event at a time on a virtual clock, bit-for-bit replayable per seed.
// A zero-value Transport defaults to in-process.
type Runner struct {
	Scenario  Scenario
	Seed      int64
	Transport Transport

	// enforced, when set, routes every in-process service call through an
	// externally built enforcement layer wrapped around the run's own
	// server — the multi-tenant path (tenants.go): it receives the freshly
	// built server once and returns a per-worker service factory (workerID
	// −1 is the final stats caller). Enforcement rejections with
	// resource-exhausted or budget-exhausted codes are then counted as
	// Counts.TenantRejects, not protocol errors.
	enforced func(*server.Server) (func(workerID int) service.Service, error)
}

// simWorker is one simulated fleet member: the real client library plus the
// per-worker random streams that drive its environment.
type simWorker struct {
	id  int
	w   *worker.Worker
	dev *device.Device
	// svc is the worker's own view of the service: the shared client for
	// per-request transports, or this worker's persistent stream client.
	svc service.Service
	// strm is the persistent session client (stream transport only, nil
	// otherwise); needsConn marks that the next pull pays connection setup
	// (session not yet established, or closed by a churn departure).
	strm      *stream.Client
	needsConn bool
	// Independent deterministic streams: network delay, think time, churn
	// decisions, Byzantine noise. Separate streams keep one knob's draws
	// from perturbing another's replay.
	netRng   *rand.Rand
	thinkRng *rand.Rand
	churnRng *rand.Rand
	byzRng   *rand.Rand

	tier       string
	byzantine  bool
	roundsLeft int
	// rejoining marks a churned-out worker between its departure and the
	// cold-cache pull that brings it back.
	rejoining bool
	// resyncBudget bounds how many version-conflict recoveries (server
	// restarts observed mid-round) this worker absorbs before the conflict
	// counts as a protocol error — the harness-side mirror of
	// worker.MaxResyncs for the event-driven engine.
	resyncBudget int

	// In-flight state between the pull and push events.
	pending    *worker.Prepared
	roundStart float64
	pushNet    float64
}

func (sw *simWorker) rtt(net NetworkSpec) float64 {
	return simrand.Exponential(sw.netRng, net.MinRTTSec, net.MeanRTTSec)
}

func (sw *simWorker) think(mean float64) float64 {
	return simrand.Exponential(sw.thinkRng, 0.1*mean, mean)
}

// vclock is the harness's virtual clock, exposed to time-windowed
// admission policies (sched.BuildOptions.Now) so quota windows are decided
// by deterministic virtual time instead of the wall clock — PR 4's
// bit-for-bit replay guarantee extended to quota scenarios.
//
// The harness goroutine sets it; over a live transport the policy reads it
// on a handler goroutine, hence the atomic (virtual seconds as float bits).
type vclock struct{ sec atomic.Uint64 }

func (c *vclock) set(sec float64) { c.sec.Store(math.Float64bits(sec)) }

// Now maps virtual seconds onto a fixed epoch.
func (c *vclock) Now() time.Time {
	sec := math.Float64frombits(c.sec.Load())
	return time.Unix(0, 0).Add(time.Duration(sec * float64(time.Second)))
}

// swapService routes Service calls to a swappable backend — how the
// harness replaces a hard-killed server with its restored successor while
// the fleet keeps calling through the same front (in-process, or the HTTP
// handler wrapping this).
type swapService struct {
	mu    sync.RWMutex
	inner service.Service
}

func (s *swapService) set(svc service.Service) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner = svc
}

func (s *swapService) get() service.Service {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner
}

func (s *swapService) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return s.get().RequestTask(ctx, req)
}

func (s *swapService) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	return s.get().PushGradient(ctx, push)
}

func (s *swapService) Stats(ctx context.Context) (*protocol.Stats, error) {
	return s.get().Stats(ctx)
}

// srvFactory builds the scenario's server — and rebuilds it for the
// restored instance after a RestartSpec kill — through the shared
// node.Spec compiler, the same assembly path a fleet-server deployment
// boots through. Stateful components (the pipeline's aggregator windows,
// admission quota buckets, AdaSGD, the profilers) must be fresh per
// instance, so every call compiles anew; the I-Prof pretraining
// observations are collected exactly once (the sweep consumes the
// master-derived iprof RNG) and passed into the Spec, so a rebuild is a
// pure function of the scenario and seed — determinism survives the
// restart.
type srvFactory struct {
	sc        Scenario
	seed      int64
	timeObs   []iprof.Observation
	energyObs []iprof.Observation
	now       func() time.Time
	// ckptDir, when set, wires a checkpointer into every built instance
	// (cadence Restart.CheckpointEvery) and is where restore loads the
	// latest valid checkpoint from.
	ckptDir string
}

func newSrvFactory(sc Scenario, seed int64, iprofRng *rand.Rand, fleetModels []device.Model, now func() time.Time) *srvFactory {
	f := &srvFactory{sc: sc, seed: seed, now: now}
	// The offline sweep runs over the fleet's own (tier-scaled) device
	// models; MaxBatch bounds it so an extreme fast tier cannot drag the
	// pretraining into huge mini-batches.
	sweep := iprof.CollectConfig{MaxBatch: 4096}
	if slo, ok := admissionSLO(sc.Server.Admission, "iprof-time"); ok {
		f.timeObs = iprof.CollectWith(iprofRng, fleetModels, iprof.KindTime, slo, sweep).Observations
	}
	if slo, ok := admissionSLO(sc.Server.Admission, "iprof-energy"); ok {
		f.energyObs = iprof.CollectWith(iprofRng, fleetModels, iprof.KindEnergy, slo, sweep).Observations
	}
	return f
}

// spec declares one instance: an embedded root with no listeners. The
// recovery policy is the only field that differs between the initial
// boot ("" — always a fresh model, no boot nonce, so replayed runs keep
// epoch 0) and the post-kill successor ("latest").
func (f *srvFactory) spec(recover string) node.Spec {
	sc := f.sc
	sp := node.Spec{
		Role:               node.RoleRoot,
		Name:               "loadgen",
		Arch:               sc.Server.Arch,
		LearningRate:       sc.Server.LearningRate,
		K:                  sc.Server.K,
		NonStragglerPct:    sc.Server.NonStragglerPct,
		Seed:               f.seed,
		DeltaHistory:       sc.Server.DeltaHistory,
		DefaultBatchSize:   sc.Server.DefaultBatchSize,
		Stages:             sc.Server.Stages,
		Aggregator:         sc.Server.Aggregator,
		Admission:          sc.Server.Admission,
		TimeObservations:   f.timeObs,
		EnergyObservations: f.energyObs,
		Now:                f.now,
		Bind:               node.BindSpec{Transport: "none"},
	}
	if f.ckptDir != "" {
		sp.Checkpoint = node.CheckpointSpec{
			Dir:     f.ckptDir,
			Every:   sc.Restart.CheckpointEvery,
			Recover: recover,
		}
	}
	return sp
}

// fresh compiles the scenario's initial instance.
func (f *srvFactory) fresh() (*node.Runtime, error) {
	return node.FromSpec(f.spec(""))
}

// restore compiles the post-kill successor from the latest valid
// checkpoint.
func (f *srvFactory) restore() (*node.Runtime, error) {
	return node.FromSpec(f.spec("latest"))
}

// run is the mutable state of one execution.
type run struct {
	sc        Scenario
	transport Transport
	srv       *server.Server
	scratch   *nn.Network
	test      []nn.Sample
	sims      []*simWorker

	// Restart machinery: the factory rebuilds the server
	// through node.FromSpec, swap reroutes the fleet to it, clock feeds
	// virtual time to admission. rt is the current instance's runtime —
	// doRestart kills it and compiles a successor from the same Spec.
	rt        *node.Runtime
	factory   *srvFactory
	swap      *swapService
	clock     *vclock
	restarted bool
	// streamSrv is the stream transport's session registry; doRestart
	// re-attaches the restored server's snapshot hook to it so announces
	// keep flowing after a crash-recovery swap.
	streamSrv *stream.Server
	// edges is the hierarchical aggregation tier (TreeSpec; nil for flat
	// runs); treeAnnounce is the root's snapshot fan-out to every edge,
	// re-registered by doRestart on the restored instance.
	edges        []*aggtree.Node
	treeAnnounce func(protocol.ModelAnnounce)
	// tenantScoped marks a run flowing through a tenant enforcement layer
	// (Runner.enforced): quota/budget rejections count as TenantRejects.
	tenantScoped bool

	counts     Counts
	pullVirt   []float64
	pushVirt   []float64
	roundVirt  []float64
	scaleSum   float64
	stale      *metrics.IntHist
	pullStale  *metrics.IntHist
	accuracy   []AccuracyPoint
	virtualEnd float64

	// wall samples the real duration of every service call (per-request
	// timing) through the Metrics interceptor, so the wallclock block
	// reports the same percentiles any interceptor-instrumented deployment
	// would.
	wall *service.CallMetrics

	// Event queue.
	events eventHeap
	seq    int64
}

const (
	evtPull = iota
	evtPush
)

// treeEdgeIDBase offsets edge-aggregator worker IDs far above any leaf's,
// so per-worker server state (quotas, rate limits) never collides.
const treeEdgeIDBase = 1_000_000

type event struct {
	at   float64
	seq  int64
	kind int
	sw   *simWorker
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

func (r *run) schedule(at float64, kind int, sw *simWorker) {
	r.seq++
	heap.Push(&r.events, event{at: at, seq: r.seq, kind: kind, sw: sw})
}

func (r *run) recordError(err error) {
	// Tenant enforcement throttles (worker quota, DP budget) are the
	// behavior under test in a multi-tenant run, attributed in per-tenant
	// stats — expected, like resyncs, not permanent protocol failures.
	if r.tenantScoped &&
		(protocol.IsCode(err, protocol.CodeResourceExhausted) || protocol.IsCode(err, protocol.CodeBudgetExhausted)) {
		r.counts.TenantRejects++
		return
	}
	r.counts.ProtocolErrors++
	if len(r.counts.ErrorSamples) < 5 {
		r.counts.ErrorSamples = append(r.counts.ErrorSamples, err.Error())
	}
}

// maybeEval appends an accuracy point every EvalEvery accepted pushes.
func (r *run) maybeEval() {
	if r.sc.EvalEvery <= 0 || r.counts.Pushes%r.sc.EvalEvery != 0 {
		return
	}
	r.accuracy = append(r.accuracy, AccuracyPoint{
		AfterPushes: r.counts.Pushes,
		Accuracy:    r.srv.Evaluate(r.scratch, r.test),
	})
}

// Run executes the scenario and returns its measured result.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	sc := r.Scenario.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if len(sc.Tenants) > 0 {
		if r.enforced != nil {
			return nil, fmt.Errorf("loadgen: a tenant sub-run cannot itself declare tenants")
		}
		return r.runTenants(ctx, sc)
	}
	transport := r.Transport
	if transport == "" {
		transport = TransportInProc
	}
	switch transport {
	case TransportInProc, TransportHTTP, TransportStream:
	default:
		return nil, fmt.Errorf("loadgen: unknown transport %q", transport)
	}

	arch, err := nn.ArchByName(sc.Server.Arch)
	if err != nil {
		return nil, err
	}
	wireCodec, _ := protocol.CodecByName(sc.Codec) // validate accepted the name

	// Deterministic seed plumbing: every random stream is derived from the
	// master in a fixed, documented order, so adding a worker or a knob
	// never silently reshuffles another stream.
	master := simrand.New(r.Seed)
	dataSeed := master.Int63()
	compRng := simrand.New(master.Int63()) // fleet composition draws
	iprofRng := simrand.New(master.Int63())
	workerSeeds := make([]int64, sc.Workers)
	for i := range workerSeeds {
		workerSeeds[i] = master.Int63()
	}

	// Dataset and per-worker partitions.
	ds := data.TinyMNIST(dataSeed, sc.TrainPerClass, sc.TestPerClass)
	var parts [][]nn.Sample
	if sc.ShardsPerUser > 0 {
		parts = data.PartitionNonIID(compRng, ds.Train, sc.Workers, sc.ShardsPerUser)
	} else {
		parts = data.PartitionIID(compRng, ds.Train, sc.Workers)
	}

	// Fleet composition: tier draw and base device per worker, then the
	// Byzantine and full-pull memberships.
	catalogue := device.Catalogue()
	weights := make([]float64, len(sc.Tiers))
	for i, t := range sc.Tiers {
		weights[i] = t.Weight
	}
	tierOf := make([]int, sc.Workers)
	modelOf := make([]device.Model, sc.Workers)
	for i := 0; i < sc.Workers; i++ {
		ti := simrand.Categorical(compRng, weights)
		tierOf[i] = ti
		modelOf[i] = catalogue[compRng.Intn(len(catalogue))].Scaled(sc.Tiers[ti].SpeedFactor)
	}
	byzantine := membership(compRng, sc.Workers, sc.Byzantine.Fraction)
	fullPull := membership(compRng, sc.Workers, sc.FullPullFrac)

	// The distinct device models of this fleet (first-seen order —
	// deterministic) feed I-Prof's offline pretraining, so the scenario's
	// speed distribution shapes the cold-start model.
	var fleetModels []device.Model
	seen := map[string]bool{}
	for _, m := range modelOf {
		if !seen[m.Name] {
			seen[m.Name] = true
			fleetModels = append(fleetModels, m)
		}
	}

	// The virtual clock backs time-windowed admission policies.
	clock := &vclock{}
	factory := newSrvFactory(sc, r.Seed, iprofRng, fleetModels, clock.Now)
	if sc.Restart.AtSec > 0 {
		ckptDir, err := os.MkdirTemp("", "fleet-loadgen-ckpt-*")
		if err != nil {
			return nil, fmt.Errorf("loadgen: checkpoint dir: %w", err)
		}
		defer func() { _ = os.RemoveAll(ckptDir) }()
		factory.ckptDir = ckptDir
	}
	rt, err := factory.fresh()
	if err != nil {
		return nil, err
	}
	srv := rt.Server()

	// The tenant enforcement layer wraps the freshly built server before
	// any traffic routes: auth, quota and budget see every call exactly as
	// a fleet-server deployment's unit would.
	var perWorker func(int) service.Service
	if r.enforced != nil {
		if transport != TransportInProc {
			return nil, fmt.Errorf("loadgen: tenant enforcement requires the in-process transport (got %q)", transport)
		}
		if perWorker, err = r.enforced(srv); err != nil {
			return nil, err
		}
	}

	// All fleet traffic routes through the swapper, so a restart replaces
	// the backend under every transport without the workers noticing a
	// different endpoint.
	swap := &swapService{inner: srv}
	// Per-request wall timing rides the standard Metrics interceptor, so
	// the harness measures exactly what an instrumented deployment would
	// (in-process cost, or the full wire round-trip).
	wall := service.NewSampledCallMetrics(0)
	var (
		// svc is the shared client of per-request transports and the final
		// stats route; stream workers each hold their own session client.
		svc        service.Service
		wire       *protocol.WireCounter
		httpDials  atomic.Int64
		announces  atomic.Int64
		streamSrv  *stream.Server
		streamAddr string
	)
	switch transport {
	case TransportInProc:
		if perWorker != nil {
			// The final stats route carries the −1 caller's credentials;
			// Stats is identity-free, so any valid tenant token passes.
			svc = service.Chain(perWorker(-1), service.Metrics(wall))
		} else {
			svc = service.Chain(swap, service.Metrics(wall))
		}
	case TransportHTTP:
		wire = &protocol.WireCounter{}
		ts := httptest.NewServer(server.NewHandler(swap))
		defer ts.Close()
		// Polling fleets dial per request — a phone holds no pooled socket
		// across think time — so keep-alives are off and every dial is
		// counted: the connection-cost side of the poll-vs-push comparison.
		tr := &http.Transport{
			DisableKeepAlives: true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				httpDials.Add(1)
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		}
		defer tr.CloseIdleConnections()
		svc = service.Chain(&worker.Client{
			BaseURL:    ts.URL,
			HTTPClient: &http.Client{Transport: tr},
			Codec:      wireCodec,
			Wire:       wire,
		}, service.Metrics(wall))
	case TransportStream:
		wire = &protocol.WireCounter{}
		ln, lnErr := net.Listen("tcp", "127.0.0.1:0")
		if lnErr != nil {
			return nil, fmt.Errorf("loadgen: stream listener: %w", lnErr)
		}
		// Client heartbeats are off so wire bytes stay a pure function of the
		// event order; the idle reaper must stand down with them — a large
		// fleet's sessions legitimately sit idle in wall time while other
		// workers' events execute.
		streamSrv = stream.NewServer(swap, stream.Options{IdleTimeout: -1})
		go func() { _ = streamSrv.Serve(ln) }()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = streamSrv.Shutdown(sctx)
			cancel()
		}()
		// Every drain's published snapshot fans out to subscribed sessions.
		srv.OnSnapshot(streamSrv.Broadcast)
		streamAddr = ln.Addr().String()
	}

	// Hierarchical aggregation tier: edge nodes front the root through the
	// swapper (so a restart reroutes them too), and the root's snapshot
	// hook fans every drain out to the edges as a delta announce — edges
	// stay current without pull round trips, exactly like stream
	// subscribers would. In-process only: the edge services are direct
	// call targets for their worker slices.
	var edges []*aggtree.Node
	var treeAnnounce func(protocol.ModelAnnounce)
	if sc.Tree.Edges > 0 {
		if transport != TransportInProc {
			return nil, fmt.Errorf("loadgen: aggregation tree requires the in-process transport (got %q)", transport)
		}
		edges = make([]*aggtree.Node, sc.Tree.Edges)
		for e := range edges {
			// Compiled like a fleet-agg (tier-local AdaSGD, staleness into a
			// mean window) but never started: the edge is a direct call
			// target and pulls its first model lazily.
			edgeRT, err := node.FromSpec(node.Spec{
				Role:             node.RoleEdge,
				Arch:             sc.Server.Arch,
				K:                sc.Tree.FanIn,
				NonStragglerPct:  sc.Server.NonStragglerPct,
				Stages:           "staleness",
				Aggregator:       "mean",
				DeltaHistory:     sc.Server.DeltaHistory,
				DefaultBatchSize: sc.Server.DefaultBatchSize,
				ID:               treeEdgeIDBase + e,
				Upstream:         node.UpstreamSpec{Service: swap},
				Bind:             node.BindSpec{Transport: "none"},
			})
			if err != nil {
				return nil, fmt.Errorf("loadgen: edge %d: %w", e, err)
			}
			edges[e] = edgeRT.Assembly().EdgeNode
		}
		treeAnnounce = func(ann protocol.ModelAnnounce) {
			for _, ed := range edges {
				ed.AbsorbUpstreamAnnounce(ann)
			}
		}
		srv.OnSnapshot(treeAnnounce)
	}

	// Build the fleet.
	classes := arch.Classes()
	sims := make([]*simWorker, sc.Workers)
	for i := 0; i < sc.Workers; i++ {
		base := workerSeeds[i]
		local := parts[i]
		sw := &simWorker{
			id:           i,
			netRng:       simrand.New(base + 1),
			thinkRng:     simrand.New(base + 2),
			churnRng:     simrand.New(base + 3),
			byzRng:       simrand.New(base + 4),
			tier:         sc.Tiers[tierOf[i]].Name,
			byzantine:    byzantine[i],
			roundsLeft:   sc.Rounds,
			resyncBudget: worker.MaxResyncs,
		}
		var transform func([]float64)
		if sw.byzantine {
			switch sc.Byzantine.Attack {
			case AttackLabelFlip:
				local = flipLabels(local, classes)
			case AttackSignFlip:
				s := sc.Byzantine.Scale
				transform = func(g []float64) {
					for j := range g {
						g[j] = -s * g[j]
					}
				}
			case AttackScaledNoise:
				s := sc.Byzantine.Scale
				rng := sw.byzRng
				transform = func(g []float64) {
					for j := range g {
						g[j] = rng.NormFloat64() * s
					}
				}
			}
		}
		sw.dev = device.New(modelOf[i], simrand.New(base+5))
		w, err := worker.New(worker.Config{
			ID:     i,
			Arch:   arch,
			Local:  local,
			Device: sw.dev,
			Rng:    simrand.New(base + 6),
			// The compression chain draws from its own stream (base+7), so
			// adding a stochastic quantizer never perturbs the training or
			// environment draws of an existing scenario.
			Compress:          sc.CompressSpec,
			CompressRng:       simrand.New(base + 7),
			GradientTransform: transform,
			FullPullOnly:      fullPull[i],
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: worker %d: %w", i, err)
		}
		sw.w = w
		if transport == TransportStream {
			cl := &stream.Client{
				Addr:      streamAddr,
				WorkerID:  i,
				Subscribe: true,
				Codec:     wireCodec,
				Wire:      wire,
				OnAnnounce: func(protocol.ModelAnnounce) {
					announces.Add(1)
				},
				// Heartbeats are wall-clock traffic; a run's wire bytes
				// must be a pure function of the event order.
				PingInterval: -1,
			}
			sw.strm = cl
			sw.needsConn = true
			sw.svc = service.Chain(cl, service.Metrics(wall))
		} else if edges != nil {
			// Worker i reports to edge i mod Edges — a fixed, seed-free
			// assignment, so adding the tier never reshuffles any stream.
			sw.svc = service.Chain(edges[i%len(edges)], service.Metrics(wall))
		} else if perWorker != nil {
			// Each worker presents its own minted credentials through the
			// tenant enforcement chain.
			sw.svc = service.Chain(perWorker(i), service.Metrics(wall))
		} else {
			sw.svc = svc
		}
		sims[i] = sw
	}
	if transport == TransportStream {
		defer func() {
			for _, sw := range sims {
				_ = sw.strm.Close()
			}
		}()
		// Final stats ride worker 0's session.
		svc = sims[0].svc
	}

	rn := &run{
		sc:           sc,
		transport:    transport,
		srv:          srv,
		scratch:      arch.Build(simrand.New(r.Seed)),
		test:         ds.Test,
		sims:         sims,
		stale:        metrics.NewIntHist(),
		pullStale:    metrics.NewIntHist(),
		wall:         wall,
		rt:           rt,
		factory:      factory,
		swap:         swap,
		clock:        clock,
		streamSrv:    streamSrv,
		edges:        edges,
		treeAnnounce: treeAnnounce,
		tenantScoped: r.enforced != nil,
	}

	// The current server's background checkpoint writer is stopped at run
	// end (rn.srv may point at a restored successor by then); the kill path
	// closes the abandoned instance itself in doRestart.
	defer func() { _ = rn.srv.Close() }()

	wallStart := time.Now()
	if err := r.runVirtual(ctx, rn, sims); err != nil {
		return nil, err
	}
	// Flush partial edge windows so no acked leaf gradient is stranded in
	// the tier — the same courtesy a draining fleet-agg extends. Ordered,
	// so the replayed event stream stays identical.
	for _, ed := range rn.edges {
		_ = ed.Flush(ctx)
	}
	elapsed := time.Since(wallStart).Seconds()

	// Final accuracy point, always — against rn.srv, which a restart may
	// have pointed at the restored instance.
	final := rn.srv.Evaluate(rn.scratch, ds.Test)
	if sc.EvalEvery > 0 && (len(rn.accuracy) == 0 || rn.accuracy[len(rn.accuracy)-1].AfterPushes != rn.counts.Pushes) {
		rn.accuracy = append(rn.accuracy, AccuracyPoint{AfterPushes: rn.counts.Pushes, Accuracy: final})
	}

	// Flush the background checkpoint writer before reading final stats, so
	// the checkpoint counter reflects every core captured during the run —
	// the same value the synchronous writer reported, deterministically.
	rn.srv.Flush()
	stats, err := svc.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: final stats: %w", err)
	}

	res := &Result{
		Scenario:    sc.Name,
		Description: sc.Description,
		Seed:        r.Seed,
		Transport:   string(transport),
		Workers:     sc.Workers,
		Rounds:      sc.Rounds,
		Config:      sc,
		Counts:      rn.counts,
		Latency: LatencyBlock{
			PullSec:  metrics.Summarize(rn.pullVirt),
			PushSec:  metrics.Summarize(rn.pushVirt),
			RoundSec: metrics.Summarize(rn.roundVirt),
		},
		Staleness: StalenessBlock{
			Mean: rn.stale.Mean(),
			P50:  rn.stale.Quantile(0.50),
			P95:  rn.stale.Quantile(0.95),
			P99:  rn.stale.Quantile(0.99),
			Hist: rn.stale.Buckets(),
		},
		Accuracy:      rn.accuracy,
		FinalAccuracy: final,
		Server: ServerBlock{
			ModelVersion:      stats.ModelVersion,
			GradientsIn:       stats.GradientsIn,
			MeanStaleness:     stats.MeanStaleness,
			PipelineStages:    stats.PipelineStages,
			Aggregator:        stats.Aggregator,
			AdmissionPolicies: stats.AdmissionPolicies,
			RejectsByPolicy:   stats.RejectsByPolicy,
			DrainErrors:       stats.DrainErrors,
			Checkpoints:       stats.Checkpoints,
			RestoredVersion:   stats.RestoredVersion,
			ServerEpoch:       stats.ServerEpoch,
		},
		Wallclock: &WallclockBlock{
			ElapsedSec: elapsed,
			PullSec:    wallSummary(rn.wall, "RequestTask"),
			PushSec:    wallSummary(rn.wall, "PushGradient"),
		},
	}
	if transport != TransportInProc {
		tb := &TransportBlock{
			WireUplinkBytes:   wire.Uplink(),
			WireDownlinkBytes: wire.Downlink(),
			PullStaleness: StalenessBlock{
				Mean: rn.pullStale.Mean(),
				P50:  rn.pullStale.Quantile(0.50),
				P95:  rn.pullStale.Quantile(0.95),
				P99:  rn.pullStale.Quantile(0.99),
				Hist: rn.pullStale.Buckets(),
			},
		}
		switch transport {
		case TransportHTTP:
			tb.Connections = httpDials.Load()
		case TransportStream:
			for _, sw := range sims {
				tb.Connections += sw.strm.Dials()
				tb.Refreshes += sw.w.Refreshes
			}
			tb.Announces = announces.Load()
		}
		if sc.Workers > 0 {
			tb.ConnsPerWorker = float64(tb.Connections) / float64(sc.Workers)
		}
		res.TransportStats = tb
	}
	if rn.edges != nil {
		tb := &TreeBlock{
			Edges:         len(rn.edges),
			FanIn:         sc.Tree.FanIn,
			LeafGradients: stats.LeafGradients,
		}
		for _, ed := range rn.edges {
			tb.RootPushes += ed.UpstreamPushes()
			tb.UpstreamConflicts += ed.UpstreamConflicts()
			tb.EdgeResyncs += ed.Resyncs()
			tb.LostWindows += ed.LostWindows()
		}
		res.Tree = tb
	}
	if rn.counts.Pushes > 0 {
		res.MeanScale = rn.scaleSum / float64(rn.counts.Pushes)
	}
	res.VirtualDurationSec = rn.virtualEnd
	if rn.virtualEnd > 0 {
		res.ThroughputPerSec = float64(rn.counts.Pushes) / rn.virtualEnd
	}
	return res, nil
}

// runVirtual is the deterministic discrete-event engine: pop the earliest
// event (ties broken by schedule order), execute its real protocol calls,
// schedule the consequences. Staleness, churn and loss emerge from the
// interleaving of virtual times.
func (r *Runner) runVirtual(ctx context.Context, rn *run, sims []*simWorker) error {
	heap.Init(&rn.events)
	for _, sw := range sims {
		rn.schedule(sw.think(rn.sc.ThinkTimeSec), evtPull, sw)
	}
	for rn.events.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		ev := heap.Pop(&rn.events).(event)
		if rn.sc.Restart.AtSec > 0 && !rn.restarted && ev.at >= rn.sc.Restart.AtSec {
			// The hard kill lands between events, mid-aggregation-window:
			// the old instance is abandoned with its pending window and
			// every update since the last checkpoint, and the restored
			// successor takes over at the same endpoint. No worker state
			// is touched — recovery must come from the protocol.
			if err := rn.doRestart(); err != nil {
				return err
			}
		}
		if ev.at > rn.virtualEnd {
			rn.virtualEnd = ev.at
		}
		rn.clock.set(ev.at)
		switch ev.kind {
		case evtPull:
			r.doPull(ctx, rn, ev.sw, ev.at)
		case evtPush:
			if err := r.doPush(ctx, rn, ev.sw, ev.at); err != nil {
				return err
			}
		}
	}
	return nil
}

// doRestart replaces the killed server with one restored from the latest
// valid checkpoint. A missing checkpoint fails the run: the scenario's
// cadence put the first checkpoint after the kill, a profile bug.
func (rn *run) doRestart() error {
	// Kill the doomed instance first: its background checkpoint writer
	// drains, so exactly the cores that fell due before the kill are
	// durable — the same durability point the synchronous writer had,
	// which is what keeps this scenario's replay bit-for-bit. (A real
	// SIGKILL could lose the queued tail; the harness models the
	// conservative cut deterministically.)
	_ = rn.rt.Kill()
	rt, err := rn.factory.restore()
	if err != nil {
		return fmt.Errorf("loadgen: server restart at t=%gs: %w", rn.sc.Restart.AtSec, err)
	}
	srv := rt.Server()
	rn.rt = rt
	rn.srv = srv
	rn.swap.set(srv)
	if rn.streamSrv != nil {
		// The restored instance must announce its drains to the existing
		// sessions too; clients that cached the dead epoch simply fail the
		// quiet absorb and recover through the pull path.
		srv.OnSnapshot(rn.streamSrv.Broadcast)
	}
	if rn.treeAnnounce != nil {
		// Same for the aggregation tier: edges flag the epoch change on the
		// first announce and repair through their upstream exchange, and the
		// conflict cascades to the leaves from there.
		srv.OnSnapshot(rn.treeAnnounce)
	}
	rn.restarted = true
	rn.counts.Restarts++
	return nil
}

// absorbAnnounces folds the server-pushed announces a worker's session has
// collected into its cached model before the next pull, so the pull
// advertises the freshest version the worker can prove it holds. The chain
// is consecutive by construction; the first inapplicable announce (gap,
// epoch change, cold cache) means the rest cannot apply either, and the
// pull's delta/full path recovers.
func (rn *run) absorbAnnounces(sw *simWorker) {
	if sw.strm == nil {
		return
	}
	for _, ann := range sw.strm.TakeAnnounces() {
		if !sw.w.AbsorbAnnounce(ann) {
			break
		}
	}
}

// connSetup prices connection establishment for one network leg:
// per-request transports (inproc models the same polling cadence) pay it
// on every call; the stream transport pays once per session — on the first
// pull, and again after a churn departure tears the session down.
func (rn *run) connSetup(sw *simWorker) float64 {
	cs := rn.sc.Net.ConnSetupSec
	if cs <= 0 {
		return 0
	}
	if rn.transport == TransportStream {
		if !sw.needsConn {
			return 0
		}
		sw.needsConn = false
	}
	return cs
}

// fenceAnnounces blocks until every live subscribed session has observed
// the model clock (epoch, version) the just-acked push produced. Announce
// frames travel on per-session goroutines; without this fence their
// arrival would race the next virtual event and break bit-for-bit replay.
// The broadcast itself is synchronous with the drain (it runs before the
// draining push's ack returns), so the frames are already in flight.
func (rn *run) fenceAnnounces(ctx context.Context, epoch int64, version int) error {
	for _, other := range rn.sims {
		if other.strm == nil || !other.strm.Connected() {
			continue
		}
		fctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := other.strm.WaitAnnounced(fctx, epoch, version)
		cancel()
		if err != nil {
			return fmt.Errorf("loadgen: announce fence for worker %d at epoch %d version %d: %w",
				other.id, epoch, version, err)
		}
	}
	return nil
}

// doPull executes steps (1)–(4) at virtual time t and schedules the push.
func (r *Runner) doPull(ctx context.Context, rn *run, sw *simWorker, t float64) {
	rn.counts.PullAttempts++
	if sw.rejoining {
		sw.rejoining = false
		rn.counts.Rejoins++
	}
	rn.absorbAnnounces(sw)
	prevVer, prevEpoch, prevCached := sw.w.CachedVersion()
	resp, err := sw.w.Pull(ctx, sw.svc)
	if err != nil {
		rn.recordError(err)
		sw.roundsLeft--
		if sw.roundsLeft > 0 {
			rn.schedule(t+sw.think(rn.sc.ThinkTimeSec), evtPull, sw)
		}
		return
	}
	if !resp.Accepted {
		rn.counts.Rejected++
		sw.roundsLeft--
		if sw.roundsLeft > 0 {
			rn.schedule(t+sw.think(rn.sc.ThinkTimeSec), evtPull, sw)
		}
		return
	}
	rn.counts.Accepted++
	if resp.ParamsDelta != nil {
		rn.counts.DeltaPulls++
	} else {
		rn.counts.FullPulls++
	}
	// Pull staleness: how far the fleet's cached model had fallen behind
	// the version this pull handed back — the push transport's headline
	// freshness win, since absorbed announces close the gap before asking.
	if prevCached && resp.ServerEpoch == prevEpoch && resp.ModelVersion >= prevVer {
		rn.pullStale.Add(resp.ModelVersion - prevVer)
	}
	pullNet := sw.rtt(rn.sc.Net) + rn.connSetup(sw)
	rn.pullVirt = append(rn.pullVirt, pullNet)
	sw.pending = sw.w.Compute(resp)
	sw.roundStart = t
	sw.pushNet = sw.rtt(rn.sc.Net) + rn.connSetup(sw)
	// The gradient lands on the server after the downlink delay, the
	// device's computation and the uplink delay.
	rn.schedule(t+pullNet+sw.pending.Exec.LatencySec+sw.pushNet, evtPush, sw)
}

// doPush executes step (5) at virtual time t, then think/churn-schedules
// the next round. Its only error is a broken announce fence (stream
// transport) — a determinism violation, fatal to the run.
func (r *Runner) doPush(ctx context.Context, rn *run, sw *simWorker, t float64) error {
	sw.roundsLeft--
	if rn.sc.Net.LossRate > 0 && sw.netRng.Float64() < rn.sc.Net.LossRate {
		rn.counts.LostPushes++
	} else {
		pushEpoch := sw.pending.Push.ModelEpoch
		var preBcast int64
		if rn.streamSrv != nil {
			preBcast = rn.streamSrv.Broadcasts()
		}
		ack, err := sw.w.Push(ctx, sw.svc, sw.pending.Push)
		if err != nil {
			if protocol.IsCode(err, protocol.CodeVersionConflict) && sw.resyncBudget > 0 {
				// The server restarted onto an older model version than
				// this gradient claims. worker.Push already dropped the
				// cache and counted Worker.Resyncs; the round is retried,
				// not lost: the re-pull is a full download against the
				// restored server. Bounded per worker, so a genuinely
				// broken server still surfaces as a protocol error.
				sw.resyncBudget--
				rn.counts.Resyncs++
				sw.roundsLeft++
				sw.pending = nil
				gap := sw.think(rn.sc.ThinkTimeSec)
				sw.dev.Idle(gap)
				rn.schedule(t+gap, evtPull, sw)
				return nil
			}
			rn.recordError(err)
		} else {
			rn.counts.Pushes++
			rn.stale.Add(ack.Staleness)
			rn.scaleSum += ack.Scale
			rn.pushVirt = append(rn.pushVirt, sw.pushNet)
			rn.roundVirt = append(rn.roundVirt, t-sw.roundStart)
			rn.maybeEval()
			// Determinism fence: when this push drained a window, the drain
			// broadcast the new model clock to every session before acking
			// (Broadcasts() moved), so wait here until every live session
			// has observed it — announce delivery becomes part of the event
			// order instead of racing the next event.
			if rn.streamSrv != nil && rn.streamSrv.Broadcasts() > preBcast {
				if err := rn.fenceAnnounces(ctx, pushEpoch, ack.NewVersion); err != nil {
					return err
				}
			}
		}
	}
	sw.pending = nil
	if sw.roundsLeft <= 0 {
		return nil
	}
	if rn.sc.Churn.LeaveProb > 0 && sw.churnRng.Float64() < rn.sc.Churn.LeaveProb {
		// Depart and rejoin later with a cold cache: the next pull is a
		// full download regardless of the server's delta history. The
		// rejoin is counted when that pull actually executes.
		sw.w.ResetModelCache()
		if sw.strm != nil {
			// The departing app tears its session down too; the rejoin
			// dials afresh and pays connection setup again.
			_ = sw.strm.Close()
			sw.needsConn = true
		}
		sw.rejoining = true
		rn.counts.Departures++
		offline := simrand.Exponential(sw.churnRng, rn.sc.Churn.OfflineMeanSec*0.2, rn.sc.Churn.OfflineMeanSec)
		sw.dev.Idle(offline)
		rn.schedule(t+offline, evtPull, sw)
		return nil
	}
	gap := sw.think(rn.sc.ThinkTimeSec)
	sw.dev.Idle(gap)
	rn.schedule(t+gap, evtPull, sw)
	return nil
}

// wallSummary digests one method's sampled wall latencies (zero Summary
// when the method never ran).
func wallSummary(cm *service.CallMetrics, method string) metrics.Summary {
	s, _ := cm.LatencySummary(method)
	return s
}

// membership draws ⌈frac·n⌋ members uniformly from [0, n) — a deterministic
// random subset for Byzantine and full-pull roles.
func membership(rng *rand.Rand, n int, frac float64) []bool {
	out := make([]bool, n)
	count := int(frac*float64(n) + 0.5)
	if count <= 0 {
		return out
	}
	for _, idx := range simrand.Perm(rng, n)[:count] {
		out[idx] = true
	}
	return out
}

// flipLabels returns a copy of samples with every label shifted by one
// class — the classic label-flip poisoning attack.
func flipLabels(samples []nn.Sample, classes int) []nn.Sample {
	out := make([]nn.Sample, len(samples))
	for i, s := range samples {
		s.Label = (s.Label + 1) % classes
		out[i] = s
	}
	return out
}

// admissionSLO extracts the SLO argument of the named policy from an
// admission chain spec, e.g. ("iprof-time(3),min-batch(5)", "iprof-time")
// → (3, true). The harness uses it to pretrain exactly the profilers the
// chain will consult.
func admissionSLO(chainSpec, policy string) (float64, bool) {
	for _, part := range spec.Split(chainSpec) {
		name, args, err := spec.Parse(part)
		if err == nil && name == policy && len(args) > 0 {
			return args[0], true
		}
	}
	return 0, false
}
