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
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/stream"
	"fleet/internal/tenant"
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
// A zero-value Transport defaults to in-process. Run is a sequence of named
// steps: compose the fleet (composeFleet), boot the root (run.bootRoot),
// open the transport front (run.openFront), build the edges
// (run.buildEdges), build each simulated worker (run.buildWorkers), run
// (run.runVirtual) and assemble the result (run.result).
type Runner struct {
	Scenario  Scenario
	Seed      int64
	Transport Transport

	// tenant, when set, makes the root a one-tenant deployment serving it —
	// the multi-tenant path (tenants.go): every in-process call goes through
	// the unit node.FromSpec compiles, and its quota and budget rejections
	// count as Counts.TenantRejects, not protocol errors.
	tenant *tenant.Config
}

// simWorker is one simulated fleet member: the real client library plus the
// per-worker random streams that drive its environment.
type simWorker struct {
	id  int
	w   *worker.Worker
	dev *device.Device
	// svc is what the worker calls through (run.connect).
	svc service.Service
	// strm is the persistent session client (stream transport only, nil
	// otherwise); needsConn marks that the next pull pays connection setup
	// (session not yet established, or closed by a churn departure).
	strm      *stream.Client
	needsConn bool
	// Independent deterministic streams: network delay, think time, churn
	// decisions. Separate streams keep one knob's draws from perturbing
	// another's replay.
	netRng   *rand.Rand
	thinkRng *rand.Rand
	churnRng *rand.Rand

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
type swapService struct{ atomic.Pointer[server.Server] }

func (s *swapService) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return s.Load().RequestTask(ctx, req)
}

func (s *swapService) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	return s.Load().PushGradient(ctx, push)
}

func (s *swapService) Stats(ctx context.Context) (*protocol.Stats, error) {
	return s.Load().Stats(ctx)
}

// fleet is the run's composition: everything drawn from the master seed
// before any node boots.
type fleet struct {
	arch        nn.Arch
	test        []nn.Sample
	parts       [][]nn.Sample // per worker: its local training set
	workerSeeds []int64
	devices     []device.Model
	byzantine   []bool
	fullPull    []bool
	// I-Prof's offline pretraining observations, swept once over the
	// fleet's own device models, so every boot of the root — the restored
	// one included — is a pure function of the scenario and seed.
	timeObs   []iprof.Observation
	energyObs []iprof.Observation
}

// composeFleet derives every random stream from the master seed in a fixed,
// documented order, so adding a worker or a knob never silently reshuffles
// another stream: master → data seed, composition, I-Prof, worker seeds;
// then composition → partition, per-worker tier and device, Byzantine
// membership, full-pull membership.
func composeFleet(sc Scenario, seed int64) (*fleet, error) {
	arch, err := nn.ArchByName(sc.Server.Arch)
	if err != nil {
		return nil, err
	}
	master := simrand.New(seed)
	dataSeed := master.Int63()
	compRng := simrand.New(master.Int63()) // fleet composition draws
	iprofRng := simrand.New(master.Int63())
	fl := &fleet{arch: arch}
	for i := 0; i < sc.Workers; i++ {
		fl.workerSeeds = append(fl.workerSeeds, master.Int63())
	}

	ds := data.TinyMNIST(dataSeed, sc.TrainPerClass, sc.TestPerClass)
	fl.test = ds.Test
	if sc.ShardsPerUser > 0 {
		fl.parts = data.PartitionNonIID(compRng, ds.Train, sc.Workers, sc.ShardsPerUser)
	} else {
		fl.parts = data.PartitionIID(compRng, ds.Train, sc.Workers)
	}
	catalogue := device.Catalogue()
	weights := make([]float64, len(sc.Tiers))
	for i, t := range sc.Tiers {
		weights[i] = t.Weight
	}
	for i := 0; i < sc.Workers; i++ {
		tier := sc.Tiers[simrand.Categorical(compRng, weights)]
		fl.devices = append(fl.devices, catalogue[compRng.Intn(len(catalogue))].Scaled(tier.SpeedFactor))
	}
	fl.byzantine = membership(compRng, sc.Workers, sc.Byzantine.Fraction)
	fl.fullPull = membership(compRng, sc.Workers, sc.FullPullFrac)

	// The distinct device models of this fleet (first-seen order —
	// deterministic) feed I-Prof's offline pretraining, so the scenario's
	// speed distribution shapes the cold-start model. MaxBatch bounds the
	// sweep so an extreme fast tier cannot drag it into huge mini-batches.
	var models []device.Model
	seen := map[string]bool{}
	for _, m := range fl.devices {
		if !seen[m.Name] {
			seen[m.Name] = true
			models = append(models, m)
		}
	}
	sweep := iprof.CollectConfig{MaxBatch: 4096}
	timeSLO, energySLO := sched.ProfilerSLOs(sc.Server.Admission)
	if timeSLO > 0 {
		fl.timeObs = iprof.CollectWith(iprofRng, models, iprof.KindTime, timeSLO, sweep).Observations
	}
	if energySLO > 0 {
		fl.energyObs = iprof.CollectWith(iprofRng, models, iprof.KindEnergy, energySLO, sweep).Observations
	}
	return fl, nil
}

// run is the mutable state of one execution: Run's steps after
// composeFleet (bootRoot, openFront, buildEdges, buildWorkers, runVirtual,
// result) fill it in, and close tears down what they opened.
type run struct {
	sc      Scenario
	scratch *nn.Network
	test    []nn.Sample
	sims    []*simWorker

	// The root. root declares every instance, compiled anew per boot
	// through the same node.Spec path a fleet-server boots through, since
	// stateful components (aggregator windows, quota buckets, AdaSGD, the
	// profilers) must be fresh per instance. rt and srv are the live
	// instance, swap routes the fleet to it and clock feeds it virtual
	// time; doRestart kills the instance and boots its successor.
	root      node.Spec
	rt        *node.Runtime
	srv       *server.Server
	swap      swapService
	clock     vclock
	restarted bool
	// announce is the run's one snapshot hook (nil when nothing listens):
	// every booted instance's drains fan out through it (fanOut).
	announce func(protocol.ModelAnnounce)
	// closers undo what the steps opened, run newest first by close.
	closers []func()

	// The transport front: front is the final stats route and the
	// per-request transports' shared client; stream workers each hold their
	// own session to streamSrv at streamAddr. wire counts wire bytes (nil
	// in process), dials the HTTP connections and announced the announces
	// the sessions received.
	front      service.Service
	codec      protocol.Codec
	wire       *protocol.WireCounter
	dials      atomic.Int64
	announced  atomic.Int64
	streamSrv  *stream.Server
	streamAddr string
	// edges is the hierarchical aggregation tier (TreeSpec; nil for flat
	// runs).
	edges []*aggtree.Node
	// tenant, when set, is the tenant unit's per-worker service factory
	// (Runner.tenant; workerID −1 is the final stats caller). Its quota and
	// budget rejections count as TenantRejects.
	tenant func(workerID int) service.Service

	counts     Counts
	pullVirt   []float64
	pushVirt   []float64
	roundVirt  []float64
	scaleSum   float64
	stale      *metrics.IntHist
	pullStale  *metrics.IntHist
	accuracy   []AccuracyPoint
	virtualEnd float64

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

func (rn *run) schedule(at float64, kind int, sw *simWorker) {
	rn.seq++
	heap.Push(&rn.events, event{at: at, seq: rn.seq, kind: kind, sw: sw})
}

func (rn *run) recordError(err error) {
	// Tenant enforcement throttles (worker quota, DP budget) are the
	// behavior under test in a multi-tenant run, attributed in per-tenant
	// stats — expected, like resyncs, not permanent protocol failures.
	if rn.tenant != nil &&
		(protocol.IsCode(err, protocol.CodeResourceExhausted) || protocol.IsCode(err, protocol.CodeBudgetExhausted)) {
		rn.counts.TenantRejects++
		return
	}
	rn.counts.ProtocolErrors++
	if len(rn.counts.ErrorSamples) < 5 {
		rn.counts.ErrorSamples = append(rn.counts.ErrorSamples, err.Error())
	}
}

// maybeEval appends an accuracy point every EvalEvery accepted pushes.
func (rn *run) maybeEval() {
	if rn.sc.EvalEvery <= 0 || rn.counts.Pushes%rn.sc.EvalEvery != 0 {
		return
	}
	rn.accuracy = append(rn.accuracy, AccuracyPoint{
		AfterPushes: rn.counts.Pushes,
		Accuracy:    rn.srv.Evaluate(rn.scratch, rn.test),
	})
}

// Run executes the scenario and returns its measured result.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	sc := r.Scenario.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if len(sc.Tenants) > 0 {
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
	if sc.Tree.Edges > 0 && transport != TransportInProc {
		// The edges are direct call targets for their worker slices.
		return nil, fmt.Errorf("loadgen: aggregation tree requires the in-process transport (got %q)", transport)
	}

	fl, err := composeFleet(sc, r.Seed)
	if err != nil {
		return nil, err
	}
	rn := &run{
		sc:        sc,
		scratch:   fl.arch.Build(simrand.New(r.Seed)),
		test:      fl.test,
		stale:     metrics.NewIntHist(),
		pullStale: metrics.NewIntHist(),
	}
	if transport == TransportStream || sc.Tree.Edges > 0 {
		rn.announce = rn.fanOut
	}
	defer rn.close()

	if err := rn.bootRoot(r.Seed, fl, r.tenant); err != nil {
		return nil, err
	}
	if err := rn.openFront(transport); err != nil {
		return nil, err
	}
	if err := rn.buildEdges(); err != nil {
		return nil, err
	}
	if err := rn.buildWorkers(fl); err != nil {
		return nil, err
	}

	if err := rn.runVirtual(ctx); err != nil {
		return nil, err
	}
	// Flush partial edge windows so no acked leaf gradient is stranded in
	// the tier — the same courtesy a draining fleet-agg extends. Ordered,
	// so the replayed event stream stays identical.
	for _, ed := range rn.edges {
		_ = ed.Flush(ctx)
	}
	return rn.result(ctx, r.Seed, transport)
}

// bootRoot declares the run's root — an embedded instance with no
// listeners, serving the one tenant unit tc when set, checkpointing into a
// scratch directory (cadence Restart.CheckpointEvery) when the scenario
// restarts it — and boots its first instance. From here on close owns the
// live instance, so every return path stops its background checkpoint
// writer.
func (rn *run) bootRoot(seed int64, fl *fleet, tc *tenant.Config) error {
	sc := rn.sc
	rn.root = node.Spec{
		Role:               node.RoleRoot,
		Name:               "loadgen",
		Arch:               sc.Server.Arch,
		LearningRate:       sc.Server.LearningRate,
		K:                  sc.Server.K,
		Seed:               seed,
		DeltaHistory:       sc.Server.DeltaHistory,
		Stages:             sc.Server.Stages,
		Aggregator:         sc.Server.Aggregator,
		Admission:          sc.Server.Admission,
		TimeObservations:   fl.timeObs,
		EnergyObservations: fl.energyObs,
		Now:                rn.clock.Now,
		Bind:               node.BindSpec{Transport: "none"},
	}
	if tc != nil {
		rn.root.Tenants = []tenant.Config{*tc}
	}
	if sc.Restart.AtSec > 0 {
		dir, err := os.MkdirTemp("", "fleet-loadgen-ckpt-*")
		if err != nil {
			return fmt.Errorf("loadgen: checkpoint dir: %w", err)
		}
		rn.closers = append(rn.closers, func() { _ = os.RemoveAll(dir) })
		rn.root.Checkpoint = node.CheckpointSpec{Dir: dir, Every: sc.Restart.CheckpointEvery}
	}
	return rn.boot()
}

// boot compiles a root instance from rn.root and attaches it: the fleet's
// swapper routes to its server (a one-tenant root's is its unit's), and the
// run's announce hook hears its drains. The initial boot recovers "" (that
// is "fresh": an empty directory's first boot nonce is epoch 0); the
// post-kill successor recovers "latest".
func (rn *run) boot() error {
	rt, err := node.FromSpec(rn.root)
	if err != nil {
		return err
	}
	rn.rt, rn.srv = rt, rt.Server()
	if rn.srv == nil {
		rn.srv = rt.Assembly().Children[0].Server
	}
	rn.swap.Store(rn.srv)
	if rn.announce != nil {
		// Clients that cached a dead epoch simply fail the quiet absorb and
		// recover through the pull path; edges flag the epoch change and
		// repair through their upstream exchange.
		rn.srv.OnSnapshot(rn.announce)
	}
	return nil
}

// fanOut delivers one drain's model announce to whatever listens: the
// stream transport's subscribed sessions, or every edge of the aggregation
// tier, which stays current without pull round trips exactly like a stream
// subscriber would.
func (rn *run) fanOut(ann protocol.ModelAnnounce) {
	if rn.streamSrv != nil {
		rn.streamSrv.Broadcast(ann)
	}
	for _, ed := range rn.edges {
		ed.AbsorbUpstreamAnnounce(ann)
	}
}

// close tears the run down in a fixed order: the live root instance first
// (rn.srv may be a restored successor by then; doRestart closed the one it
// killed), then what the steps opened, newest first — stream clients, HTTP
// idle connections, the listener, the checkpoint directory.
func (rn *run) close() {
	if rn.srv != nil {
		_ = rn.srv.Close()
	}
	for i := len(rn.closers) - 1; i >= 0; i-- {
		rn.closers[i]()
	}
}

// openFront opens the transport the fleet calls through. All traffic routes
// through the swapper, so a restart replaces the backend under every
// transport without the workers noticing a different endpoint.
func (rn *run) openFront(transport Transport) error {
	rn.codec, _ = protocol.CodecByName(rn.sc.Codec) // validate accepted the name
	switch transport {
	case TransportInProc:
		rn.front = &rn.swap
		if units := rn.root.Tenants; len(units) > 0 {
			// Auth, quota and budget see every call exactly as a
			// fleet-server deployment's unit would; the final stats route
			// carries the −1 caller's credentials.
			rn.tenant = tenantClients(rn.rt.Service(), units[0])
			rn.front = rn.tenant(-1)
		}
	case TransportHTTP:
		rn.wire = &protocol.WireCounter{}
		ts := httptest.NewServer(server.NewHandler(&rn.swap))
		rn.closers = append(rn.closers, ts.Close)
		// Polling fleets dial per request — a phone holds no pooled socket
		// across think time — so keep-alives are off and every dial is
		// counted: the connection-cost side of the poll-vs-push comparison.
		tr := &http.Transport{
			DisableKeepAlives: true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				rn.dials.Add(1)
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		}
		rn.closers = append(rn.closers, tr.CloseIdleConnections)
		rn.front = &worker.Client{
			BaseURL:    ts.URL,
			HTTPClient: &http.Client{Transport: tr},
			Codec:      rn.codec,
			Wire:       rn.wire,
		}
	case TransportStream:
		rn.wire = &protocol.WireCounter{}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("loadgen: stream listener: %w", err)
		}
		// Client heartbeats are off so wire bytes stay a pure function of
		// the event order; the idle reaper must stand down with them — a
		// large fleet's sessions legitimately sit idle in wall time while
		// other workers' events execute.
		srv := stream.NewServer(&rn.swap, stream.Options{IdleTimeout: -1})
		go func() { _ = srv.Serve(ln) }()
		rn.closers = append(rn.closers, func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Shutdown(sctx)
			cancel()
		})
		rn.streamSrv, rn.streamAddr = srv, ln.Addr().String()
	}
	return nil
}

// buildEdges compiles the hierarchical aggregation tier (TreeSpec): each
// edge like a fleet-agg (tier-local AdaSGD, staleness into a mean window),
// fronting the root through the swapper so a restart reroutes it too, but
// never started: it is a direct call target for its worker slice and pulls
// its first model lazily.
func (rn *run) buildEdges() error {
	sc := rn.sc
	for e := 0; e < sc.Tree.Edges; e++ {
		rt, err := node.FromSpec(node.Spec{
			Role:         node.RoleEdge,
			Arch:         sc.Server.Arch,
			K:            sc.Tree.FanIn,
			Stages:       "staleness",
			Aggregator:   "mean",
			DeltaHistory: sc.Server.DeltaHistory,
			ID:           treeEdgeIDBase + e,
			Upstream:     node.UpstreamSpec{Service: &rn.swap},
			Bind:         node.BindSpec{Transport: "none"},
		})
		if err != nil {
			return fmt.Errorf("loadgen: edge %d: %w", e, err)
		}
		rn.edges = append(rn.edges, rt.Assembly().EdgeNode)
	}
	return nil
}

// buildWorkers builds each simulated worker: the real client library over
// the worker's partition and device, with its own random streams derived
// from its seed, calling through the service connect gives it.
func (rn *run) buildWorkers(fl *fleet) error {
	sc := rn.sc
	rn.sims = make([]*simWorker, sc.Workers)
	for i := range rn.sims {
		base := fl.workerSeeds[i]
		sw := &simWorker{
			id:           i,
			netRng:       simrand.New(base + 1),
			thinkRng:     simrand.New(base + 2),
			churnRng:     simrand.New(base + 3),
			roundsLeft:   sc.Rounds,
			resyncBudget: worker.MaxResyncs,
		}
		local := fl.parts[i]
		var transform func([]float64)
		if fl.byzantine[i] {
			// Byzantine noise draws from its own stream (base+4).
			local, transform = attack(sc.Byzantine, local, fl.arch.Classes(), simrand.New(base+4))
		}
		sw.dev = device.New(fl.devices[i], simrand.New(base+5))
		w, err := worker.New(worker.Config{
			ID:     i,
			Arch:   fl.arch,
			Local:  local,
			Device: sw.dev,
			Rng:    simrand.New(base + 6),
			// The compression chain draws from its own stream (base+7), so
			// adding a stochastic quantizer never perturbs the training or
			// environment draws of an existing scenario.
			Compress:          sc.CompressSpec,
			CompressRng:       simrand.New(base + 7),
			GradientTransform: transform,
			FullPullOnly:      fl.fullPull[i],
		})
		if err != nil {
			return fmt.Errorf("loadgen: worker %d: %w", i, err)
		}
		sw.w = w
		sw.svc = rn.connect(sw)
		rn.sims[i] = sw
	}
	if rn.streamSrv != nil {
		rn.closers = append(rn.closers, func() {
			for _, sw := range rn.sims {
				_ = sw.strm.Close()
			}
		})
		// Final stats ride worker 0's session.
		rn.front = rn.sims[0].strm
	}
	return nil
}

// connect returns the service sw calls through: its own stream session,
// its edge, its tenant credentials, or the front's shared client.
func (rn *run) connect(sw *simWorker) service.Service {
	switch {
	case rn.streamSrv != nil:
		sw.strm = &stream.Client{
			Addr:      rn.streamAddr,
			WorkerID:  sw.id,
			Subscribe: true,
			Codec:     rn.codec,
			Wire:      rn.wire,
			OnAnnounce: func(protocol.ModelAnnounce) {
				rn.announced.Add(1)
			},
			// Heartbeats are wall-clock traffic; a run's wire bytes must be
			// a pure function of the event order.
			PingInterval: -1,
		}
		sw.needsConn = true
		return sw.strm
	case rn.edges != nil:
		// Worker i reports to edge i mod Edges — a fixed, seed-free
		// assignment, so adding the tier never reshuffles any stream.
		return rn.edges[sw.id%len(rn.edges)]
	case rn.tenant != nil:
		// Each worker presents its own minted credentials through the
		// tenant enforcement chain.
		return rn.tenant(sw.id)
	}
	return rn.front
}

// attack turns a Byzantine worker's local data and gradient transform into
// the scenario's attack.
func attack(byz ByzantineSpec, local []nn.Sample, classes int, rng *rand.Rand) ([]nn.Sample, func([]float64)) {
	s := byz.Scale
	switch byz.Attack {
	case AttackLabelFlip:
		return flipLabels(local, classes), nil
	case AttackSignFlip:
		return local, func(g []float64) {
			for j := range g {
				g[j] = -s * g[j]
			}
		}
	case AttackScaledNoise:
		return local, func(g []float64) {
			for j := range g {
				g[j] = rng.NormFloat64() * s
			}
		}
	}
	return local, nil
}

// result assembles the measured result once the engine has stopped: the
// final accuracy point, the final stats through the front, and the
// transport and tree blocks of the runs that have them.
func (rn *run) result(ctx context.Context, seed int64, transport Transport) (*Result, error) {
	sc := rn.sc
	// Final accuracy point, always — against rn.srv, which a restart may
	// have pointed at the restored instance.
	final := rn.srv.Evaluate(rn.scratch, rn.test)
	if sc.EvalEvery > 0 && (len(rn.accuracy) == 0 || rn.accuracy[len(rn.accuracy)-1].AfterPushes != rn.counts.Pushes) {
		rn.accuracy = append(rn.accuracy, AccuracyPoint{AfterPushes: rn.counts.Pushes, Accuracy: final})
	}
	// Flush the background checkpoint writer before reading final stats, so
	// the checkpoint counter reflects every core captured during the run —
	// the same value the synchronous writer reported, deterministically.
	rn.srv.Flush()
	stats, err := rn.front.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: final stats: %w", err)
	}

	res := &Result{
		Scenario:    sc.Name,
		Description: sc.Description,
		Seed:        seed,
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
		Staleness:     stalenessBlock(rn.stale),
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
		tenantStats: stats.Tenant,
	}
	if rn.wire != nil {
		tb := &TransportBlock{
			WireUplinkBytes:   rn.wire.Uplink(),
			WireDownlinkBytes: rn.wire.Downlink(),
			PullStaleness:     stalenessBlock(rn.pullStale),
			Connections:       rn.dials.Load(),
			Announces:         rn.announced.Load(),
		}
		for _, sw := range rn.sims {
			if sw.strm != nil {
				tb.Connections += sw.strm.Dials()
				tb.Refreshes += sw.w.Refreshes
			}
		}
		tb.ConnsPerWorker = float64(tb.Connections) / float64(sc.Workers)
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
	res.VirtualDurationSec = rn.virtualEnd
	res.setRates(rn.scaleSum)
	return res, nil
}

// setRates derives the mean push scale (from the sum of acked scales) and
// the virtual throughput from the result's pushes and virtual duration.
func (r *Result) setRates(scaleSum float64) {
	if r.Counts.Pushes > 0 {
		r.MeanScale = scaleSum / float64(r.Counts.Pushes)
	}
	if r.VirtualDurationSec > 0 {
		r.ThroughputPerSec = float64(r.Counts.Pushes) / r.VirtualDurationSec
	}
}

// stalenessBlock digests a staleness histogram.
func stalenessBlock(h *metrics.IntHist) StalenessBlock {
	return StalenessBlock{
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		Hist: h.Buckets(),
	}
}

// runVirtual is the deterministic discrete-event engine: pop the earliest
// event (ties broken by schedule order), execute its real protocol calls,
// schedule the consequences. Staleness, churn and loss emerge from the
// interleaving of virtual times.
func (rn *run) runVirtual(ctx context.Context) error {
	heap.Init(&rn.events)
	for _, sw := range rn.sims {
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
			rn.doPull(ctx, ev.sw, ev.at)
		case evtPush:
			if err := rn.doPush(ctx, ev.sw, ev.at); err != nil {
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
	rn.root.Checkpoint.Recover = "latest"
	if err := rn.boot(); err != nil {
		return fmt.Errorf("loadgen: server restart at t=%gs: %w", rn.sc.Restart.AtSec, err)
	}
	rn.restarted = true
	rn.counts.Restarts++
	return nil
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
	if sw.strm != nil {
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

// endRound spends one of sw's rounds at virtual time t. A worker with none
// left retires; any other pulls again after a think-time gap — or, when
// mayLeave and the worker churns out, after an offline spell. idle charges
// the device with the gap: the push paths do, the pull paths never have.
func (rn *run) endRound(sw *simWorker, t float64, idle, mayLeave bool) {
	sw.pending = nil
	sw.roundsLeft--
	if sw.roundsLeft <= 0 {
		return
	}
	var gap float64
	if mayLeave && rn.sc.Churn.LeaveProb > 0 && sw.churnRng.Float64() < rn.sc.Churn.LeaveProb {
		gap = rn.depart(sw)
	} else {
		gap = sw.think(rn.sc.ThinkTimeSec)
	}
	if idle {
		sw.dev.Idle(gap)
	}
	rn.schedule(t+gap, evtPull, sw)
}

// depart takes sw offline and returns how long it stays away. It rejoins
// with a cold cache: the next pull is a full download regardless of the
// server's delta history, and the rejoin is counted when that pull
// actually executes.
func (rn *run) depart(sw *simWorker) float64 {
	sw.w.ResetModelCache()
	if sw.strm != nil {
		// The departing app tears its session down too; the rejoin dials
		// afresh and pays connection setup again.
		_ = sw.strm.Close()
		sw.needsConn = true
	}
	sw.rejoining = true
	rn.counts.Departures++
	return simrand.Exponential(sw.churnRng, rn.sc.Churn.OfflineMeanSec*0.2, rn.sc.Churn.OfflineMeanSec)
}

// doPull executes steps (1)–(4) at virtual time t and schedules the push.
func (rn *run) doPull(ctx context.Context, sw *simWorker, t float64) {
	rn.counts.PullAttempts++
	if sw.rejoining {
		sw.rejoining = false
		rn.counts.Rejoins++
	}
	if sw.strm != nil {
		sw.w.AbsorbAnnounces(sw.strm.TakeAnnounces())
	}
	prevVer, prevEpoch, prevCached := sw.w.CachedVersion()
	resp, err := sw.w.Pull(ctx, sw.svc)
	if err != nil || !resp.Accepted {
		if err != nil {
			rn.recordError(err)
		} else {
			rn.counts.Rejected++
		}
		rn.endRound(sw, t, false, false)
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
func (rn *run) doPush(ctx context.Context, sw *simWorker, t float64) error {
	if rn.sc.Net.LossRate > 0 && sw.netRng.Float64() < rn.sc.Net.LossRate {
		rn.counts.LostPushes++
		rn.endRound(sw, t, true, true)
		return nil
	}
	pushEpoch := sw.pending.Push.ModelEpoch
	var preBcast int64
	if rn.streamSrv != nil {
		preBcast = rn.streamSrv.Broadcasts()
	}
	ack, err := sw.w.Push(ctx, sw.svc, sw.pending.Push)
	if err != nil {
		if protocol.IsCode(err, protocol.CodeVersionConflict) && sw.resyncBudget > 0 {
			// The server restarted onto an older model version than this
			// gradient claims. worker.Push already dropped the cache and
			// counted Worker.Resyncs; the round is retried, not spent: the
			// re-pull is a full download against the restored server.
			// Bounded per worker, so a genuinely broken server still
			// surfaces as a protocol error.
			sw.resyncBudget--
			rn.counts.Resyncs++
			sw.roundsLeft++
			rn.endRound(sw, t, true, false)
			return nil
		}
		rn.recordError(err)
		rn.endRound(sw, t, true, true)
		return nil
	}
	rn.counts.Pushes++
	rn.stale.Add(ack.Staleness)
	rn.scaleSum += ack.Scale
	rn.pushVirt = append(rn.pushVirt, sw.pushNet)
	rn.roundVirt = append(rn.roundVirt, t-sw.roundStart)
	rn.maybeEval()
	// Determinism fence: when this push drained a window, the drain
	// broadcast the new model clock to every session before acking
	// (Broadcasts() moved), so wait here until every live session has
	// observed it — announce delivery becomes part of the event order
	// instead of racing the next event.
	if rn.streamSrv != nil && rn.streamSrv.Broadcasts() > preBcast {
		if err := rn.fenceAnnounces(ctx, pushEpoch, ack.NewVersion); err != nil {
			return err
		}
	}
	rn.endRound(sw, t, true, true)
	return nil
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
