package main

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/simrand"
	"fleet/internal/stream"
	"fleet/internal/worker"
)

func TestBuildAggFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{}, // -upstream is required
		{"-upstream", "http://r", "-arch", "no-such-arch"},
		{"-upstream", "http://r", "-stages", "no-such-stage"},
		{"-upstream", "http://r", "-aggregator", "krum(0.5)"},
		{"-upstream", "http://r", "-admission", "no-such-policy(1)"},
		{"-upstream", "http://r", "-transport", "carrier-pigeon"},
		{"-upstream", "http://r", "-upstream-transport", "telegraph"},
		{"-upstream", "http://r", "-bogus"},
		{"-upstream", "http://r", "stray-positional"},
	} {
		if _, err := buildAgg(args, io.Discard); err == nil {
			t.Errorf("args %v built without error", args)
		}
	}
}

// newRoot starts a real root parameter server on a loopback HTTP listener
// and returns it with its base URL.
func newRoot(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	cfg.Arch = nn.ArchSoftmaxMNIST
	cfg.Algorithm = learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5})
	cfg.LearningRate = 0.1
	root, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewHandler(root))
	t.Cleanup(ts.Close)
	return root, ts.URL
}

// TestAggServesLeavesAndForwardsUpstream is the command-level end-to-end:
// a leaf worker trains against a serving fleet-agg exactly as it would
// against a root, the edge fans K leaf gradients into one upstream push,
// and the SIGTERM drain flushes the partial window so no acked gradient is
// stranded.
func TestAggServesLeavesAndForwardsUpstream(t *testing.T) {
	root, rootURL := newRoot(t, server.Config{K: 1})

	rt, err := buildAgg([]string{
		"-upstream", rootURL, "-addr", "127.0.0.1:0",
		"-arch", "softmax-mnist", "-k", "2", "-drain", "5s",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rt.Assembly().Logf = t.Logf

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	exit := make(chan int, 1)
	go func() { exit <- rt.Run(ctx, ready) }()
	addr := (<-ready).String()
	client := &worker.Client{BaseURL: "http://" + addr}

	ds := data.TinyMNIST(1, 6, 2)
	w, err := worker.New(worker.Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	// Two full rounds complete one K=2 edge window → exactly one root push
	// carrying both gradients' weight.
	for i := 0; i < 2; i++ {
		if _, err := w.Step(context.Background(), client); err != nil {
			t.Fatalf("leaf round %d through the edge: %v", i, err)
		}
	}
	rootStats, err := root.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rootStats.GradientsIn != 1 {
		t.Fatalf("root saw %d pushes after one edge window, want 1", rootStats.GradientsIn)
	}
	if rootStats.LeafGradients != 2 {
		t.Fatalf("root counted %d leaf gradients, want 2", rootStats.LeafGradients)
	}
	// The edge's own Stats surface mirrors a server's — leaves can monitor it.
	edgeStats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if edgeStats.GradientsIn != 2 {
		t.Fatalf("edge gradients_in = %d, want 2", edgeStats.GradientsIn)
	}

	// A third round leaves a 1-of-2 partial window; the drain must flush it.
	if _, err := w.Step(context.Background(), client); err != nil {
		t.Fatalf("third leaf round: %v", err)
	}
	cancel() // deliver the "signal"
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("serve exited %d after a clean drain", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not exit after drain")
	}
	rootStats, err = root.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rootStats.LeafGradients != 3 {
		t.Fatalf("root counted %d leaf gradients after the flush, want 3 (partial window stranded)", rootStats.LeafGradients)
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestAggStreamRelay: with -transport both, leaf stream sessions subscribed
// to the edge receive a relayed model announce when the edge's window
// completes an upstream update — the push half of the tree, wired at the
// command level.
func TestAggStreamRelay(t *testing.T) {
	_, rootURL := newRoot(t, server.Config{K: 1})

	rt, err := buildAgg([]string{
		"-upstream", rootURL, "-addr", "127.0.0.1:0",
		"-stream-addr", "127.0.0.1:0", "-transport", "both",
		"-arch", "softmax-mnist", "-k", "1", "-drain", "5s",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	streamReady := make(chan net.Addr, 1)
	rt.Assembly().Logf, rt.Assembly().StreamReady = t.Logf, streamReady

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	exit := make(chan int, 1)
	go func() { exit <- rt.Run(ctx, ready) }()
	defer func() {
		cancel()
		select {
		case <-exit:
		case <-time.After(5 * time.Second):
			t.Error("serve did not exit after drain")
		}
	}()
	<-ready
	streamAddr := (<-streamReady).String()

	// A subscribed observer session and a pushing session.
	obs := &stream.Client{Addr: streamAddr, WorkerID: 2, Subscribe: true}
	defer func() { _ = obs.Close() }()
	if _, err := obs.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	pusher := &stream.Client{Addr: streamAddr, WorkerID: 1}
	defer func() { _ = pusher.Close() }()

	params := nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamCount()
	grad := make([]float64, params)
	grad[0] = 1e-3
	ack, err := pusher.PushGradient(context.Background(), &protocol.GradientPush{
		WorkerID: 1, Gradient: grad, BatchSize: 1,
		LabelCounts: make([]int, nn.ArchSoftmaxMNIST.Classes()),
	})
	if err != nil {
		t.Fatalf("push over edge stream: %v", err)
	}
	if !ack.Applied || ack.NewVersion != 1 {
		t.Fatalf("ack = %+v, want applied at version 1 (K=1 window → root update)", ack)
	}

	// The edge refreshed from the root's ack and relayed the new version to
	// its subscribers.
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := obs.WaitAnnounced(wctx, 0, 1); err != nil {
		t.Fatalf("relayed announce never reached the subscribed leaf: %v", err)
	}
	anns := obs.TakeAnnounces()
	if len(anns) == 0 || anns[len(anns)-1].ModelVersion != 1 {
		t.Fatalf("relayed announces = %+v, want version 1", anns)
	}
}

// TestServeExitsWhenUpstreamUnreachable: an edge that cannot sync its model
// from the upstream must exit non-zero instead of serving leaves a model it
// does not have.
func TestServeExitsWhenUpstreamUnreachable(t *testing.T) {
	// A dead upstream: reserve a port and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	rt, err := buildAgg([]string{
		"-upstream", "http://" + dead, "-addr", "127.0.0.1:0", "-arch", "softmax-mnist",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	rt.Assembly().Logf = func(format string, args ...interface{}) {
		logged.WriteString(strings.TrimSpace(format) + "\n")
	}
	if code := rt.Run(context.Background(), nil); code != 1 {
		t.Fatalf("serve with unreachable upstream exited %d, want 1", code)
	}
	if !strings.Contains(logged.String(), "sync") {
		t.Fatalf("failure not attributed to the upstream sync: %q", logged.String())
	}
}
