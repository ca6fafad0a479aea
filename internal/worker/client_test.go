package worker

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/server"
)

// TestEarlyReplyReturnsAfterBodyClosed: a push whose gradient goes out by
// reference is read by the transport from the caller's memory, and a server
// may answer before it has read the body. PushGradient must not return
// before the transport has closed the body, because its caller writes the
// gradient again right after — under -race a read still in flight shows up
// here. Bodies below and above net/http's 256 KB post-handler discard, so
// the server both drains the rest and hangs up.
func TestEarlyReplyReturnsAfterBodyClosed(t *testing.T) {
	ctx := context.Background()
	for _, code := range []protocol.ErrorCode{
		protocol.CodeUnsupportedMedia, protocol.CodePayloadTooLarge, protocol.CodeUnauthenticated,
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			protocol.WriteError(w, protocol.Errorf(code, "refused before reading the body"))
		}))
		c := &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
		for _, params := range []int{20_000, 50_000} {
			grad := make([]float64, params)
			for round := 0; round < 10; round++ {
				_, err := c.PushGradient(ctx, &protocol.GradientPush{Gradient: grad, BatchSize: 1})
				if !protocol.IsCode(err, code) {
					t.Fatalf("%s, %d params: %v", code, params, err)
				}
				for i := range grad {
					grad[i] = float64(round)
				}
			}
		}
		hs.Close()
	}
}

// bodyKinds records, per request, whether its body was lent (read in place
// from the caller's arrays) and what length and rewind it declared.
type bodyKinds struct {
	http.RoundTripper
	lent    []bool
	lengths []int64
	rewind  []bool
}

func (b *bodyKinds) RoundTrip(req *http.Request) (*http.Response, error) {
	_, lent := req.Body.(*bodyReader)
	b.lent = append(b.lent, lent)
	b.lengths = append(b.lengths, req.ContentLength)
	b.rewind = append(b.rewind, req.GetBody != nil)
	return b.RoundTripper.RoundTrip(req)
}

// TestOnlyLargeArraysAreLent: a dense flat push goes out by reference, while
// a task request and a JSON push — no array the encoder hands over — keep
// net/http's in-memory body. Every body declares its length and can be
// re-read for a retry, and the wire tally counts each message once.
func TestOnlyLargeArraysAreLent(t *testing.T) {
	ctx := context.Background()
	srv := newServer(t, server.Config{Arch: nn.ArchMNIST})
	hs := httptest.NewServer(server.NewHandler(srv))
	defer hs.Close()
	kinds := &bodyKinds{RoundTripper: hs.Client().Transport}
	wire := &protocol.WireCounter{}
	flat := &Client{BaseURL: hs.URL, HTTPClient: &http.Client{Transport: kinds}, Wire: wire}
	json := &Client{BaseURL: hs.URL, HTTPClient: &http.Client{Transport: kinds}, Codec: protocol.JSON, Wire: wire}

	resp, err := flat.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1}})
	if err != nil || !resp.Accepted {
		t.Fatalf("task: %v %+v", err, resp)
	}
	push := &protocol.GradientPush{WorkerID: 1, Gradient: make([]float64, len(resp.Params)), BatchSize: 4, LabelCounts: []int{1}}
	if _, err := flat.PushGradient(ctx, push); err != nil {
		t.Fatalf("flat push: %v", err)
	}
	if _, err := json.PushGradient(ctx, push); err != nil {
		t.Fatalf("json push: %v", err)
	}
	want := []bool{false, true, false}
	for i, name := range []string{"task request", "flat dense push", "json dense push"} {
		if kinds.lent[i] != want[i] {
			t.Errorf("%s: lent %v, want %v", name, kinds.lent[i], want[i])
		}
		if kinds.lengths[i] <= 0 || !kinds.rewind[i] {
			t.Errorf("%s: content length %d, rewindable %v", name, kinds.lengths[i], kinds.rewind[i])
		}
	}
	var sent int64
	for _, n := range kinds.lengths {
		sent += n
	}
	if wire.Uplink() != sent {
		t.Errorf("uplink tally %d, bodies sent %d", wire.Uplink(), sent)
	}
}

// BenchmarkHTTPPushDense is one dense mnist push over loopback HTTP through
// the real endpoint: the client's encode and send, the server's decode into
// lent storage, accumulate, and the ack back.
func BenchmarkHTTPPushDense(b *testing.B) {
	ctx := context.Background()
	srv := newServer(b, server.Config{Arch: nn.ArchMNIST, K: 4})
	hs := httptest.NewServer(server.NewHandler(srv))
	defer hs.Close()
	tr := hs.Client().Transport.(*http.Transport)
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: hs.URL, HTTPClient: &http.Client{Transport: tr}}
	params, _ := srv.Model()
	push := &protocol.GradientPush{WorkerID: 1, Gradient: make([]float64, len(params)), BatchSize: 4, LabelCounts: []int{1}}
	for i := range push.Gradient {
		push.Gradient[i] = 1e-6 * float64(i%7)
	}
	b.SetBytes(int64(8 * len(params)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ack, err := c.PushGradient(ctx, push)
		if err != nil {
			b.Fatal(err)
		}
		push.ModelVersion = ack.NewVersion
	}
}

var _ io.ReadCloser = (*bodyReader)(nil)
