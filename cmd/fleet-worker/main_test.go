package main

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/stream"
	"fleet/internal/worker"
)

func TestBuildWorkerFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-codec", "xml"},            // unknown codec
		{"-device", "No Such Phone"}, // not in the catalogue
		{"-transport", "telegraph"},  // unknown transport
		{"-bogus"},                   // unknown flag
		{"stray"},                    // positional junk
		{"-id", "-1"},                // a negative worker id (indexes the data shards)
		{"-rounds", "-1"},            // a negative round count
	} {
		if _, err := buildWorker(args, io.Discard); err == nil {
			t.Errorf("args %v built without error", args)
		}
	}
}

func TestBuildWorkerRoundTrip(t *testing.T) {
	st, err := buildWorker([]string{
		"-server", "http://example.test:9", "-device", "Pixel", "-id", "3",
		"-rounds", "7", "-interval", "1ms", "-timeout", "2s",
		"-codec", "json", "-compress", "topk(5)", "-full-pull",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := st.client.(*worker.Client)
	if !ok {
		t.Fatalf("http transport built client %T, want *worker.Client", st.client)
	}
	if cl.BaseURL != "http://example.test:9" {
		t.Fatalf("client = %+v", cl)
	}
	if cl.Codec.ContentType() != protocol.JSON.ContentType() {
		t.Fatalf("codec = %v", cl.Codec.ContentType())
	}
	if st.rounds != 7 || st.interval != time.Millisecond || st.timeout != 2*time.Second {
		t.Fatalf("loop params = %+v", st)
	}
}

// TestWorkerRunsAgainstLiveServer drives the built worker through real
// rounds over HTTP, proving the flag-built config actually trains.
func TestWorkerRunsAgainstLiveServer(t *testing.T) {
	srv, err := server.New(server.Config{
		Arch:         nn.ArchTinyMNIST,
		Algorithm:    learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5}),
		LearningRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewHandler(srv))
	defer ts.Close()

	st, err := buildWorker([]string{"-server", ts.URL, "-rounds", "3", "-interval", "0s", "-device", "Pixel"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code := runWorker(st); code != 0 {
		t.Fatalf("runWorker exited %d", code)
	}
	if st.w.Tasks != 3 {
		t.Fatalf("worker pushed %d tasks, want 3", st.w.Tasks)
	}
	stats, err := srv.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 3 {
		t.Fatalf("server saw %d gradients", stats.GradientsIn)
	}
}

// TestWorkerStreamTransport: -transport stream builds a persistent-session
// client (scheme prefixes stripped from -server), and the built worker
// trains over a live stream listener, absorbing server-pushed announces.
func TestWorkerStreamTransport(t *testing.T) {
	st, err := buildWorker([]string{
		"-server", "http://example.test:9", "-transport", "stream", "-codec", "json",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if st.strm == nil || st.strm.Addr != "example.test:9" {
		t.Fatalf("stream client = %+v", st.strm)
	}
	if st.strm.Codec.ContentType() != protocol.JSON.ContentType() || !st.strm.Subscribe {
		t.Fatalf("stream client misconfigured: %+v", st.strm)
	}

	srv, err := server.New(server.Config{
		Arch:         nn.ArchTinyMNIST,
		Algorithm:    learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5}),
		LearningRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	streamSrv := stream.NewServer(srv, stream.Options{})
	srv.OnSnapshot(streamSrv.Broadcast)
	go func() { _ = streamSrv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = streamSrv.Shutdown(ctx)
	}()

	st, err = buildWorker([]string{
		"-server", ln.Addr().String(), "-transport", "stream",
		"-rounds", "3", "-interval", "0s", "-device", "Pixel",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code := runWorker(st); code != 0 {
		t.Fatalf("runWorker exited %d", code)
	}
	if st.w.Tasks != 3 {
		t.Fatalf("worker pushed %d tasks, want 3", st.w.Tasks)
	}
	if st.strm.Dials() != 1 {
		t.Fatalf("stream client dialed %d times over 3 rounds, want 1 persistent session", st.strm.Dials())
	}
	stats, err := srv.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 3 {
		t.Fatalf("server saw %d gradients", stats.GradientsIn)
	}
}
