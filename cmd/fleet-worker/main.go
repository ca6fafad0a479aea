// fleet-worker runs one simulated FLeet worker against a remote server: it
// instantiates a phone from the device catalogue, generates a local
// (non-IID) dataset, and repeatedly executes the Figure-2 protocol.
//
// Usage:
//
//	fleet-worker -server http://localhost:8080 -device "Galaxy S7" -rounds 50
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/stream"
	"fleet/internal/worker"
)

func main() {
	setup, err := buildWorker(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0) // -h: usage already printed, a successful exit
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(runWorker(setup))
}

// workerSetup is the parsed-and-composed command line: the client, the
// worker and the loop parameters.
type workerSetup struct {
	w      *worker.Worker
	client service.Service
	// strm is the persistent-session client when -transport stream: the
	// same client as above, kept typed so the round loop can absorb
	// server-pushed model announces and close the session at exit.
	strm     *stream.Client
	rounds   int
	interval time.Duration
	timeout  time.Duration
}

// buildWorker parses args and builds the worker + HTTP client.
func buildWorker(args []string, stderr io.Writer) (*workerSetup, error) {
	fs := flag.NewFlagSet("fleet-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serverURL  = fs.String("server", "http://localhost:8080", "FLeet server base URL (http transport) or host:port (stream transport)")
		transport  = fs.String("transport", "http", `transport: "http" (per-request polling) or "stream" (one persistent session with server-pushed model announces)`)
		deviceName = fs.String("device", "Galaxy S7", "device model from the catalogue")
		archName   = fs.String("arch", "tiny-mnist", "model architecture; must match the server's (or the tenant's, on a multi-tenant server)")
		workerID   = fs.Int("id", 0, "worker id")
		rounds     = fs.Int("rounds", 50, "learning-task rounds to run")
		interval   = fs.Duration("interval", 200*time.Millisecond, "pause between rounds")
		seed       = fs.Int64("seed", 7, "local data + sampling seed")
		codecName  = fs.String("codec", "", "wire codec: flat, json (empty: the default, flat)")
		compress   = fs.String("compress", "", `uplink compression chain, e.g. "topk(16)", "topk(16),q8", "topk(16),f16" (empty sends dense gradients)`)
		fullPull   = fs.Bool("full-pull", false, "always download the full model (disable delta pulls)")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-round deadline")
		tenantName = fs.String("tenant", "", "tenant to serve on a multi-tenant server (empty: the server's default tenant)")
		token      = fs.String("token", "", "bearer token minted for (tenant, worker id); required when the tenant enforces authentication")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	for name, v := range map[string]int{"-id": *workerID, "-rounds": *rounds} {
		if v < 0 {
			return nil, fmt.Errorf("%s %d must not be negative", name, v)
		}
	}

	codec, err := protocol.CodecByName(*codecName)
	if err != nil {
		return nil, err
	}
	switch *transport {
	case "http", "stream":
	default:
		return nil, fmt.Errorf("unknown -transport %q (want http or stream)", *transport)
	}

	model, err := device.ModelByName(*deviceName)
	if err != nil {
		return nil, err
	}
	arch, err := nn.ArchByName(*archName)
	if err != nil {
		return nil, err
	}

	// Local data: two non-IID shards of a synthetic dataset shaped for the
	// architecture, as in §3.2.
	c, h, wd := arch.InputShape()
	ds := data.Generate(data.SyntheticConfig{
		Name: arch.String(), Classes: arch.Classes(),
		TrainPerClass: 40, TestPerClass: 1,
		C: c, H: h, W: wd,
		NoiseStd: 0.3, Seed: *seed,
	})
	parts := data.PartitionNonIID(simrand.New(*seed), ds.Train, 10, 2)
	local := parts[*workerID%len(parts)]

	w, err := worker.New(worker.Config{
		ID:           *workerID,
		Arch:         arch,
		Local:        local,
		Device:       device.New(model, simrand.New(*seed+1)),
		Rng:          simrand.New(*seed + 2),
		Compress:     *compress,
		CompressRng:  simrand.New(*seed + 3),
		FullPullOnly: *fullPull,
	})
	if err != nil {
		return nil, err
	}

	st := &workerSetup{
		w:        w,
		rounds:   *rounds,
		interval: *interval,
		timeout:  *timeout,
	}
	if *transport == "stream" {
		st.strm = &stream.Client{
			Addr:      strings.TrimPrefix(strings.TrimPrefix(*serverURL, "http://"), "tcp://"),
			Codec:     codec,
			WorkerID:  *workerID,
			Subscribe: true,
			Tenant:    *tenantName,
			Token:     *token,
		}
		st.client = st.strm
	} else {
		st.client = &worker.Client{BaseURL: *serverURL, Codec: codec, Tenant: *tenantName, Token: *token}
	}
	return st, nil
}

func runWorker(st *workerSetup) int {
	if st.strm != nil {
		defer func() { _ = st.strm.Close() }()
	}
	for i := 0; i < st.rounds; i++ {
		if st.strm != nil {
			// Fold server-pushed announces into the cached model first, so
			// the coming pull advertises the freshest version we hold — on
			// an up-to-date cache the server answers with a tiny delta (or
			// nothing new at all) instead of a full download.
			st.w.AbsorbAnnounces(st.strm.TakeAnnounces())
		}
		ctx, cancel := context.WithTimeout(context.Background(), st.timeout)
		ack, err := st.w.Step(ctx, st.client)
		cancel()
		if err != nil {
			log.Printf("round %d: %v", i, err)
			time.Sleep(st.interval)
			continue
		}
		if ack.Applied {
			log.Printf("round %d: staleness=%d scale=%.3f model=v%d", i, ack.Staleness, ack.Scale, ack.NewVersion)
		} else {
			log.Printf("round %d: task rejected by controller", i)
		}
		time.Sleep(st.interval)
	}
	statsCtx, cancel := context.WithTimeout(context.Background(), st.timeout)
	stats, err := st.client.Stats(statsCtx)
	cancel()
	if err == nil {
		log.Printf("server stats: %+v", stats)
	}
	log.Printf("worker done: %d tasks, %d rejections (%d delta pulls, %d announce refreshes)",
		st.w.Tasks, st.w.Rejections, st.w.DeltaPulls, st.w.Refreshes)
	return 0
}
