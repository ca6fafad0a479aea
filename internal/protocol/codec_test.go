package protocol

import (
	"bytes"
	"errors"
	"net/http"
	"reflect"
	"testing"
)

func samplePush() GradientPush {
	return GradientPush{
		WorkerID:     3,
		DeviceModel:  "Galaxy S7",
		ModelVersion: 12,
		Gradient:     []float64{0.5, -1.25, 0},
		BatchSize:    64,
		LabelCounts:  []int{1, 0, 2},
		CompTimeSec:  1.5,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, codec := range []Codec{Flat, JSON} {
		in := samplePush()
		var buf bytes.Buffer
		if err := codec.Encode(&buf, in); err != nil {
			t.Fatalf("%s: %v", codec.ContentType(), err)
		}
		var out GradientPush
		if err := codec.Decode(&buf, &out); err != nil {
			t.Fatalf("%s: %v", codec.ContentType(), err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: round trip mismatch:\n in=%+v\nout=%+v", codec.ContentType(), in, out)
		}
	}
}

func TestCodecNegotiation(t *testing.T) {
	cases := []struct {
		contentType string
		want        Codec
	}{
		{"", Flat},
		{"*/*", Flat},
		{"application/*", Flat},
		{ContentTypeFlat, Flat},
		{ContentTypeJSON, JSON},
		{"application/json; charset=utf-8", JSON},
		{"application/json, text/plain", JSON},
	}
	for _, c := range cases {
		got, err := CodecForContentType(c.contentType)
		if err != nil {
			t.Fatalf("%q: %v", c.contentType, err)
		}
		if got != c.want {
			t.Fatalf("%q negotiated %s, want %s", c.contentType, got.ContentType(), c.want.ContentType())
		}
	}
	if got, err := CodecByName(""); err != nil || got != Flat {
		t.Fatalf(`CodecByName(""): %v, %v; want flat`, got, err)
	}
	// The retired gob+gzip type and its pre-v1 alias are unknown types
	// like any other.
	for _, ct := range []string{"text/csv", "application/octet-stream", "application/x-fleet-gob+gzip"} {
		_, err := CodecForContentType(ct)
		var apiErr *Error
		if !errors.As(err, &apiErr) || apiErr.Code != CodeUnsupportedMedia {
			t.Fatalf("%q: want unsupported_media error, got %v", ct, err)
		}
	}
	if _, err := CodecByName("gob"); err == nil {
		t.Fatal(`CodecByName("gob") must fail`)
	}
}

// TestDecodeBoundedByMaxMessageBytes: an honest message whose arrays add
// up past MaxMessageBytes is refused as payload_too_large, not allocated.
func TestDecodeBoundedByMaxMessageBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := Flat.Encode(&buf, &GradientPush{Gradient: make([]float64, 65536)}); err != nil {
		t.Fatal(err)
	}
	old := MaxMessageBytes
	MaxMessageBytes = 1024
	defer func() { MaxMessageBytes = old }()
	var out GradientPush
	err := Flat.Decode(&buf, &out)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != CodePayloadTooLarge {
		t.Fatalf("want payload_too_large, got %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var out TaskRequest
	if err := Flat.Decode(bytes.NewReader([]byte("definitely not flat")), &out); err == nil {
		t.Fatal("flat must reject garbage")
	}
	if err := JSON.Decode(bytes.NewReader([]byte("{nope")), &out); err == nil {
		t.Fatal("json must reject garbage")
	}
}

func TestErrorHTTPStatusMapping(t *testing.T) {
	cases := map[ErrorCode]int{
		CodeInvalidArgument:   http.StatusBadRequest,
		CodeVersionConflict:   http.StatusConflict,
		CodeResourceExhausted: http.StatusTooManyRequests,
		CodeDeadlineExceeded:  http.StatusGatewayTimeout,
		CodeMethodNotAllowed:  http.StatusMethodNotAllowed,
		CodeUnsupportedMedia:  http.StatusUnsupportedMediaType,
		CodeUnavailable:       http.StatusServiceUnavailable,
		CodeInternal:          http.StatusInternalServerError,
	}
	for code, want := range cases {
		if got := Errorf(code, "x").HTTPStatus(); got != want {
			t.Errorf("%s -> %d, want %d", code, got, want)
		}
	}
}

func TestErrorFromHTTPRoundTrip(t *testing.T) {
	orig := Errorf(CodeVersionConflict, "gradient from future version 9")
	rec := newRecorder()
	WriteError(rec, orig)
	got := ErrorFromHTTP(rec.status, rec.header.Get("Content-Type"), rec.body.Bytes())
	if got.Code != orig.Code || got.Message != orig.Message {
		t.Fatalf("round trip: %+v -> %+v", orig, got)
	}
	if rec.status != http.StatusConflict {
		t.Fatalf("status %d, want 409", rec.status)
	}

	// Plain-text errors from legacy servers classify by status.
	legacy := ErrorFromHTTP(http.StatusBadRequest, "text/plain", []byte("bad gradient"))
	if legacy.Code != CodeInvalidArgument || legacy.Message == "" {
		t.Fatalf("legacy error = %+v", legacy)
	}
}

func TestAsErrorPassesStructuredThrough(t *testing.T) {
	e := Errorf(CodeInvalidArgument, "x")
	if AsError(e) != e {
		t.Fatal("AsError must not rewrap structured errors")
	}
	if got := AsError(errors.New("plain")); got.Code != CodeInternal {
		t.Fatalf("plain error classified %s", got.Code)
	}
	if AsError(nil) != nil {
		t.Fatal("nil must stay nil")
	}
}

// newRecorder is a minimal ResponseWriter capturing status and body.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: make(http.Header), status: 200} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
