// Node runtime: declare a whole deployment as data and drive it through
// the canonical lifecycle. One NodeSpec names the model, pipeline,
// admission chain, checkpoint policy and listeners; NewNode compiles it
// through the same spec tables the fleet-server flags use; the runtime
// owns Start → Serve → Drain → Checkpoint → Flush → Close. A worker
// trains against the bound listener over HTTP, then the node drains.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"fleet"
	"fleet/internal/simrand"
)

func main() {
	dir, err := os.MkdirTemp("", "fleet-node-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. The deployment, declared: a root parameter server with a
	//    staleness-scaled mean pipeline, a min-batch admission gate,
	//    periodic checkpoints, and an HTTP listener on an OS-chosen port.
	rt, err := fleet.NewNode(fleet.NodeSpec{
		Role:             fleet.NodeRoot,
		Arch:             "tiny-mnist",
		LearningRate:     0.03,
		NonStragglerPct:  99.7,
		K:                2,
		DefaultBatchSize: 20,
		Stages:           "staleness",
		Aggregator:       "mean",
		Admission:        "min-batch(5)",
		Seed:             1,
		Checkpoint:       fleet.NodeCheckpointSpec{Dir: dir, Every: 4, Recover: "fresh"},
		Bind:             fleet.NodeBindSpec{Transport: "http", Addr: "127.0.0.1:0", Drain: 5 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Serve. Start binds the listener and reports the address.
	ctx := context.Background()
	if err := rt.Start(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node serving on %s (state %s)\n", rt.Addr(), rt.State())

	// 3. A worker trains against the runtime's listener over the wire —
	//    the same rounds it would run against a hand-assembled server.
	ds := fleet.TinyMNIST(2, 40, 10)
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID: 1, Arch: fleet.ArchTinyMNIST, Local: ds.Train, Rng: simrand.New(3),
	})
	if err != nil {
		log.Fatal(err)
	}
	svc := &fleet.Client{BaseURL: "http://" + rt.Addr().String()}
	for round := 0; round < 20; round++ {
		if _, err := w.Step(ctx, svc); err != nil {
			log.Fatal(err)
		}
	}
	stats, err := svc.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 20 rounds: model version %d, %d gradients in\n",
		stats.ModelVersion, stats.GradientsIn)

	// 4. The canonical teardown: pre-drain checkpoint, drain, final
	//    checkpoint, close — the same sequence SIGTERM triggers in
	//    cmd/fleet-server, defined once in the runtime.
	if code := rt.Shutdown(ctx); code != 0 {
		log.Fatalf("shutdown exit code %d", code)
	}
	fmt.Printf("node drained (state %s)\n", rt.State())
}
