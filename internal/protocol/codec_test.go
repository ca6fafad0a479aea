package protocol

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"math/rand"
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
	for _, codec := range []Codec{GobGzip, JSON} {
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
		{"", GobGzip},
		{ContentTypeGobGzip, GobGzip},
		{"*/*", GobGzip},
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
	// application/octet-stream was the pre-v1 alias of gob+gzip; it is an
	// unknown type like any other now.
	for _, ct := range []string{"text/csv", "application/octet-stream"} {
		_, err := CodecForContentType(ct)
		var apiErr *Error
		if !errors.As(err, &apiErr) || apiErr.Code != CodeUnsupportedMedia {
			t.Fatalf("%q: want unsupported_media error, got %v", ct, err)
		}
	}
}

func TestGobGzipDecodeBoundsDecompression(t *testing.T) {
	// A small wire payload must not be allowed to inflate without limit
	// (gzip-bomb defense): the cap applies to decompressed bytes.
	old := MaxDecodedBytes
	MaxDecodedBytes = 1024
	defer func() { MaxDecodedBytes = old }()

	var buf bytes.Buffer
	// 64k zero floats gzip to a few hundred bytes but inflate past the cap.
	if err := GobGzip.Encode(&buf, GradientPush{Gradient: make([]float64, 65536)}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= 1024 {
		t.Fatalf("test payload not compact enough on the wire: %d bytes", buf.Len())
	}
	var out GradientPush
	err := GobGzip.Decode(&buf, &out)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != CodePayloadTooLarge {
		t.Fatalf("want payload_too_large, got %v", err)
	}
}

// TestGobGzipPooledOutputIsByteIdentical: recycling the gzip.Writer must
// not change a single wire byte. Every message type, interleaved small and
// large so the pooled deflate state carries history from one message into
// the next, is compared against a fresh gzip.NewWriter + gob.NewEncoder.
func TestGobGzipPooledOutputIsByteIdentical(t *testing.T) {
	reference := func(v interface{}) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if err := gob.NewEncoder(zw).Encode(v); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 4; round++ {
		msgs := []interface{}{&GradientPush{Gradient: randFloats(rng, 8000), BatchSize: 1}}
		for _, m := range flatMessages {
			msgs = append(msgs, m.gen(rng))
		}
		for _, in := range msgs {
			if s, ok := in.(*Stats); ok {
				// Gob walks maps in Go's random order: more than one key
				// per map has no single reference encoding.
				s.RejectsByPolicy = map[string]int{"min-batch": 3}
				s.WireUplinkByCodec = map[string]int64{ContentTypeFlat: 9}
				s.WireDownlinkByCodec = nil
			}
			var buf bytes.Buffer
			if err := GobGzip.Encode(&buf, in); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), reference(in)) {
				t.Fatalf("round %d: pooled %T encoding differs from the un-pooled reference", round, in)
			}
		}
	}
}

// TestGobGzipDecodeErrorsDoNotPoisonThePool: whatever a recycled
// gzip.Reader last choked on — a bad header, a corrupt or truncated deflate
// stream, a bomb cut off at MaxDecodedBytes — the next message decodes.
func TestGobGzipDecodeErrorsDoNotPoisonThePool(t *testing.T) {
	old := MaxDecodedBytes
	MaxDecodedBytes = 64 << 10
	defer func() { MaxDecodedBytes = old }()

	var good, bomb bytes.Buffer
	want := samplePush()
	if err := GobGzip.Encode(&good, &want); err != nil {
		t.Fatal(err)
	}
	if err := GobGzip.Encode(&bomb, &GradientPush{Gradient: make([]float64, 1<<20)}); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good.Bytes()...)
	for i := 12; i < len(corrupt)-8; i++ {
		corrupt[i] ^= 0x5A
	}
	bad := map[string][]byte{
		"garbage":   []byte("definitely not gzip"),
		"empty":     nil,
		"truncated": good.Bytes()[:good.Len()/2],
		"corrupt":   corrupt,
		"bomb":      bomb.Bytes(),
	}
	for i := 0; i < 20; i++ {
		for name, raw := range bad {
			var out GradientPush
			err := GobGzip.Decode(bytes.NewReader(raw), &out)
			if err == nil {
				t.Fatalf("%s decoded without error", name)
			}
			var pe *Error
			if name == "bomb" && (!errors.As(err, &pe) || pe.Code != CodePayloadTooLarge) {
				t.Fatalf("bomb: want payload_too_large, got %v", err)
			}
			if err := GobGzip.Decode(bytes.NewReader(good.Bytes()), &out); err != nil {
				t.Fatalf("decode after %s failed: %v", name, err)
			}
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("decode after %s: got %+v", name, out)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var out TaskRequest
	if err := GobGzip.Decode(bytes.NewReader([]byte("definitely not gzip")), &out); err == nil {
		t.Fatal("gob+gzip must reject garbage")
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
