// HTTP federated learning: the full middleware over a real network stack.
//
// Starts a FLeet server (with I-Prof bounding each device's workload to a
// computation-time SLO) behind an interceptor chain — panic recovery, a
// custom per-method call counter, per-worker rate limiting — on a
// loopback listener,
// and drives eight workers on heterogeneous simulated phones through the
// Figure-2 protocol via the versioned /v1 routes. One worker speaks JSON
// instead of the default flat codec to show codec negotiation on the same
// server.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"fleet"
	"fleet/internal/simrand"
)

func main() {
	ctx := context.Background()

	// Pre-train I-Prof offline on a training fleet (§3.3).
	rng := simrand.New(1)
	catalogue := fleet.DeviceCatalogue()
	pretrain := fleet.CollectProfilerData(rng, catalogue[:8], fleet.KindTime, 3.0)
	prof, err := fleet.NewProfiler(fleet.ProfilerConfig{Epsilon: 2e-4, RetrainEvery: 100},
		pretrain.Observations)
	if err != nil {
		log.Fatal(err)
	}

	// The update pipeline composes per-gradient stages in front of the
	// window aggregator: AdaSGD staleness scaling, then an L2 norm filter
	// rejecting absurd pushes, feeding the mean window (Equation 3's K-sum).
	// Swap the aggregator spec for "krum(1)" (with K > 1) to make the same
	// server Byzantine-resilient.
	algo := fleet.NewAdaSGD(fleet.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 20})
	pipe, err := fleet.BuildPipeline("staleness,norm-filter(1000)", "mean",
		fleet.PipelineOptions{Algorithm: algo, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Task admission composes the same way on the downlink: I-Prof batch
	// sizing, the minimum-size screen, and a per-worker quota, chained in
	// evaluation order (fleet.BuildAdmission accepts the equivalent
	// "iprof-time(3),min-batch(5),per-worker-quota(1000,60)" spec).
	admit := fleet.NewAdmissionChain(
		fleet.IProfTimePolicy(prof, 3.0),
		fleet.MinBatchPolicy(5),
		fleet.PerWorkerQuotaPolicy(1000, time.Minute),
	)

	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:         fleet.ArchTinyMNIST,
		Algorithm:    algo,
		LearningRate: 0.03,
		Pipeline:     pipe,
		Admission:    admit,
		TimeProfiler: prof, // still fed by gradient-push cost observations
		// Keep deltas for the last 8 versions: with 8 workers pulling in
		// round-robin, each worker is exactly 8 versions stale, so every
		// pull after the first downloads a sparse delta instead of the
		// full model (the top-k uplink below keeps updates sparse).
		DeltaHistory: 8,
		Seed:         2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Cross-cutting concerns compose around the server as interceptors;
	// the HTTP handler serves the chained service on the /v1 routes.
	counter, report := countCalls()
	svc := fleet.Chain(srv,
		fleet.Recovery(),
		counter,
		fleet.RateLimit(500, 50),
	)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: fleet.NewHandler(svc), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if serveErr := httpSrv.Serve(ln); serveErr != http.ErrServerClosed {
			log.Print(serveErr)
		}
	}()
	defer func() { _ = httpSrv.Close() }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("FLeet server on %s\n", baseURL)

	ds := fleet.TinyMNIST(3, 40, 10)
	parts := fleet.PartitionNonIID(simrand.New(4), ds.Train, 8, 2)

	var workers []*fleet.Worker
	var clients []*fleet.Client
	for i, local := range parts {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:     i,
			Arch:   fleet.ArchTinyMNIST,
			Local:  local,
			Device: fleet.NewDevice(catalogue[8+i%8], simrand.New(int64(50+i))),
			Rng:    simrand.New(int64(90 + i)),
			// Top-k sparsified uplink (with error feedback); it also
			// keeps the server's per-version deltas sparse, so the
			// downlink serves delta pulls instead of full models.
			Compress: "topk(64)",
		})
		if err != nil {
			log.Fatal(err)
		}
		workers = append(workers, w)
		c := &fleet.Client{BaseURL: baseURL}
		if i == 0 {
			c.Codec = fleet.CodecJSON() // same server, negotiated per request
		}
		clients = append(clients, c)
	}
	statsClient := clients[1]

	eval := fleet.ArchTinyMNIST.Build(simrand.New(5))
	for round := 0; round < 40; round++ {
		for i, w := range workers {
			if _, err := w.Step(ctx, clients[i]); err != nil {
				log.Fatal(err)
			}
		}
		if (round+1)%10 == 0 {
			stats, err := statsClient.Stats(ctx)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("round %2d: accuracy %.3f, model v%d, mean staleness %.2f\n",
				round+1, srv.Evaluate(eval, ds.Test), stats.ModelVersion, stats.MeanStaleness)
		}
	}
	stats, err := statsClient.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	deltaPulls := 0
	for _, w := range workers {
		deltaPulls += w.DeltaPulls
	}
	fmt.Printf("done over HTTP: %d gradients in, %d tasks dropped, %d delta pulls\n",
		stats.GradientsIn, stats.TasksDropped, deltaPulls)
	// The composed pipeline and admission chain travel the wire in the
	// stats snapshot.
	fmt.Printf("update pipeline: %v -> %s\n", stats.PipelineStages, stats.Aggregator)
	fmt.Printf("admission chain: %v, rejects by policy: %v\n",
		stats.AdmissionPolicies, stats.RejectsByPolicy)
	report()
}

// countCalls builds a custom concern as an interceptor: a hook around every
// call, here counting calls and errors per method. report prints the counts.
func countCalls() (counter fleet.Interceptor, report func()) {
	var mu sync.Mutex
	calls, failed := map[string]int{}, map[string]int{}
	counter = fleet.AroundService(func(ctx context.Context, info fleet.ServiceCallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		v, err := next(ctx)
		mu.Lock()
		calls[info.Method]++
		if err != nil {
			failed[info.Method]++
		}
		mu.Unlock()
		return v, err
	})
	report = func() {
		mu.Lock()
		defer mu.Unlock()
		for method, n := range calls {
			fmt.Printf("  %-12s %4d calls, %d errors\n", method, n, failed[method])
		}
	}
	return counter, report
}
