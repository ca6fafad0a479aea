package tenant

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/stream"
	"fleet/internal/worker"
)

// brokenCodec announces a real codec's content type but puts bytes on the
// wire that codec cannot decode.
type brokenCodec struct{ protocol.Codec }

func (brokenCodec) Encode(w io.Writer, _ interface{}) error {
	_, err := w.Write([]byte("\x00not a message\xff"))
	return err
}

// csvCodec announces a content type no endpoint negotiates.
type csvCodec struct{ protocol.Codec }

func (csvCodec) ContentType() string { return "text/csv" }

// TestEndpointParityAcrossTransports sends the same bad requests over the
// three wire surfaces — /v1/*, /v1/t/<tenant>/* and a stream session — and
// requires the client to see the same structured error code on each: they
// are envelopes around one endpoint (service.Call), not three
// re-implementations.
func TestEndpointParityAcrossTransports(t *testing.T) {
	// The one message-size cap of both transports, set before anything
	// serves and restored by the cleanup registered first, which runs last:
	// after the deferred server shutdowns and after every stream client's
	// Close, which returns only once its read loop (a reader of the cap) is
	// gone. The stream cap binds the sender too, so the oversized row also
	// covers the client refusing to send.
	old := protocol.MaxMessageBytes
	protocol.MaxMessageBytes = 16 << 10
	t.Cleanup(func() { protocol.MaxMessageBytes = old })

	reg, err := newRegistry(t, "", Config{Name: "open", Arch: "tiny-mnist"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(reg.Handler())
	defer hs.Close()
	ss := stream.NewServer(reg.Default().Service(), stream.Options{
		Resolver: func(name string) (service.Service, string, error) {
			u, err := reg.Resolve(name)
			if err != nil {
				return nil, "", err
			}
			return u.Service(), u.Name(), nil
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ss.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ss.Shutdown(ctx)
	}()

	transports := map[string]func(protocol.Codec) service.Service{
		"/v1": func(c protocol.Codec) service.Service {
			return &worker.Client{BaseURL: hs.URL, HTTPClient: hs.Client(), Codec: c}
		},
		"/v1/t/open": func(c protocol.Codec) service.Service {
			return &worker.Client{BaseURL: hs.URL, HTTPClient: hs.Client(), Codec: c, Tenant: "open"}
		},
		"stream": func(c protocol.Codec) service.Service {
			sc := &stream.Client{Addr: ln.Addr().String(), Codec: c, Tenant: "open", PingInterval: -1}
			t.Cleanup(func() { _ = sc.Close() })
			return sc
		},
	}

	model, _ := reg.Default().Server().Model()
	params := len(model)
	big := make([]float64, params)
	for i := range big {
		big[i] = 1.0 / float64(i+3) // ~20 JSON bytes each: past the cap
	}
	for _, tc := range []struct {
		name  string
		codec protocol.Codec
		push  protocol.GradientPush
		want  protocol.ErrorCode
	}{
		{"undecodable body", brokenCodec{protocol.JSON}, protocol.GradientPush{}, protocol.CodeInvalidArgument},
		{"undecodable flat body", brokenCodec{protocol.Flat}, protocol.GradientPush{}, protocol.CodeInvalidArgument},
		{"unknown content type", csvCodec{protocol.JSON}, protocol.GradientPush{}, protocol.CodeUnsupportedMedia},
		{"oversized payload", protocol.JSON, protocol.GradientPush{Gradient: big, BatchSize: 1}, protocol.CodePayloadTooLarge},
		{"version conflict", protocol.JSON,
			protocol.GradientPush{Gradient: make([]float64, params), BatchSize: 1, ModelVersion: 999}, protocol.CodeVersionConflict},
	} {
		for name, dial := range transports {
			push := tc.push
			_, err := dial(tc.codec).PushGradient(context.Background(), &push)
			if !protocol.IsCode(err, tc.want) {
				t.Errorf("%s over %s: %v, want code %s", tc.name, name, err, tc.want)
			}
		}
	}

	// A route that does not exist is a structured error too, not the mux's
	// plain-text 404.
	for _, path := range []string{"/v1/bogus", "/v1/t/open/bogus", "/task", "/"} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		ct := resp.Header.Get("Content-Type")
		if pe := protocol.ErrorFromHTTP(resp.StatusCode, ct, body); ct != protocol.ContentTypeJSON ||
			resp.StatusCode != http.StatusBadRequest || pe.Code != protocol.CodeInvalidArgument {
			t.Errorf("GET %s: %d %s %q, want a JSON invalid_argument", path, resp.StatusCode, ct, body)
		}
	}
}
