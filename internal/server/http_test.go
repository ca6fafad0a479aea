package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fleet/internal/learning"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/service"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	hs := httptest.NewServer(NewHandler(s))
	t.Cleanup(hs.Close)
	return s, hs
}

// postRaw posts body under contentType and returns status, response
// content type and body.
func postRaw(t *testing.T, url, contentType string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

func encodeWith(t *testing.T, codec protocol.Codec, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV1TaskRoundTripBothCodecs(t *testing.T) {
	_, hs := newHTTPServer(t, Config{})
	for _, codec := range []protocol.Codec{protocol.Flat, protocol.JSON} {
		body := encodeWith(t, codec, &protocol.TaskRequest{WorkerID: 3, LabelCounts: []int{1, 1}})
		status, ct, out := postRaw(t, hs.URL+"/v1/task", codec.ContentType(), body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", codec.ContentType(), status, out)
		}
		if ct != codec.ContentType() {
			t.Fatalf("response content type %q, want %q", ct, codec.ContentType())
		}
		var resp protocol.TaskResponse
		if err := codec.Decode(bytes.NewReader(out), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Accepted || len(resp.Params) == 0 || resp.BatchSize != 100 {
			t.Fatalf("%s: resp = accepted=%v params=%d batch=%d",
				codec.ContentType(), resp.Accepted, len(resp.Params), resp.BatchSize)
		}
	}
}

func TestV1GradientRoundTripBothCodecs(t *testing.T) {
	s, hs := newHTTPServer(t, Config{Algorithm: learning.SSGD{}})
	params, _ := s.Model()
	for i, codec := range []protocol.Codec{protocol.Flat, protocol.JSON} {
		push := &protocol.GradientPush{
			ModelVersion: i, Gradient: make([]float64, len(params)),
			BatchSize: 10, LabelCounts: []int{1, 2},
		}
		body := encodeWith(t, codec, push)
		status, _, out := postRaw(t, hs.URL+"/v1/gradient", codec.ContentType(), body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", codec.ContentType(), status, out)
		}
		var ack protocol.PushAck
		if err := codec.Decode(bytes.NewReader(out), &ack); err != nil {
			t.Fatal(err)
		}
		if !ack.Applied || ack.NewVersion != i+1 {
			t.Fatalf("%s: ack = %+v", codec.ContentType(), ack)
		}
	}
}

func TestV1StatsAcceptNegotiation(t *testing.T) {
	_, hs := newHTTPServer(t, Config{})
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/stats", nil)
	req.Header.Set("Accept", protocol.ContentTypeJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != protocol.ContentTypeJSON {
		t.Fatalf("content type %q, want JSON", ct)
	}
	var stats protocol.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
}

func TestV1MalformedPayload(t *testing.T) {
	_, hs := newHTTPServer(t, Config{})
	for _, route := range []string{"/v1/task", "/v1/gradient"} {
		status, ct, body := postRaw(t, hs.URL+route, protocol.ContentTypeFlat, []byte("not flat at all"))
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", route, status)
		}
		if !strings.HasPrefix(ct, protocol.ContentTypeJSON) {
			t.Fatalf("%s: error content type %q, want JSON", route, ct)
		}
		var apiErr protocol.Error
		if err := json.Unmarshal(body, &apiErr); err != nil {
			t.Fatalf("%s: error body not JSON: %v (%s)", route, err, body)
		}
		if apiErr.Code != protocol.CodeInvalidArgument {
			t.Fatalf("%s: code %s, want invalid_argument", route, apiErr.Code)
		}
	}
}

func TestV1WrongMethod(t *testing.T) {
	_, hs := newHTTPServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/task")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/task status %d, want 405", resp.StatusCode)
	}
	status, _, _ := postRaw(t, hs.URL+"/v1/stats", protocol.ContentTypeJSON, nil)
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats status %d, want 405", status)
	}
}

// TestV1UnsupportedContentType: unknown types, the retired gob+gzip one
// included, get 415 with a structured unsupported_media body.
func TestV1UnsupportedContentType(t *testing.T) {
	_, hs := newHTTPServer(t, Config{})
	for _, ct := range []string{"text/csv", "application/x-fleet-gob+gzip"} {
		status, _, body := postRaw(t, hs.URL+"/v1/task", ct, []byte("a,b"))
		if status != http.StatusUnsupportedMediaType {
			t.Fatalf("%s: status %d, want 415: %s", ct, status, body)
		}
		var apiErr protocol.Error
		if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code != protocol.CodeUnsupportedMedia {
			t.Fatalf("%s: body %s, want unsupported_media", ct, body)
		}
	}
}

// TestV1DefaultCodecNegotiation: a request with no Content-Type, or a
// wildcard Accept, is served in flat.
func TestV1DefaultCodecNegotiation(t *testing.T) {
	_, hs := newHTTPServer(t, Config{})
	for _, accept := range []string{"", "*/*", "application/*"} {
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/task",
			bytes.NewReader(encodeWith(t, protocol.Flat, &protocol.TaskRequest{WorkerID: 3, LabelCounts: []int{1, 1}})))
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != protocol.ContentTypeFlat {
			t.Fatalf("accept %q: status %d, content type %q: %s", accept, resp.StatusCode, resp.Header.Get("Content-Type"), out)
		}
		var task protocol.TaskResponse
		if err := protocol.Flat.Decode(bytes.NewReader(out), &task); err != nil || !task.Accepted {
			t.Fatalf("accept %q: %+v, %v", accept, task, err)
		}
	}
}

func TestRequestBodyCap(t *testing.T) {
	old := protocol.MaxMessageBytes
	protocol.MaxMessageBytes = 1024
	defer func() { protocol.MaxMessageBytes = old }()
	_, hs := newHTTPServer(t, Config{})

	// A well-formed but oversized JSON push must be cut off with a
	// truthful 413, not slurped.
	big := encodeWith(t, protocol.JSON, &protocol.GradientPush{
		Gradient: make([]float64, 4096), BatchSize: 1,
	})
	status, _, out := postRaw(t, hs.URL+"/v1/gradient", protocol.ContentTypeJSON, big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized v1 body status %d, want 413: %s", status, out)
	}
	var apiErr protocol.Error
	if err := json.Unmarshal(out, &apiErr); err != nil || apiErr.Code != protocol.CodePayloadTooLarge {
		t.Fatalf("error body = %s (err %v)", out, err)
	}
}

func TestV1VersionConflictStatus(t *testing.T) {
	s, hs := newHTTPServer(t, Config{})
	params, _ := s.Model()
	push := &protocol.GradientPush{ModelVersion: 42, Gradient: make([]float64, len(params)), BatchSize: 1}
	body := encodeWith(t, protocol.JSON, push)
	status, _, out := postRaw(t, hs.URL+"/v1/gradient", protocol.ContentTypeJSON, body)
	if status != http.StatusConflict {
		t.Fatalf("status %d, want 409: %s", status, out)
	}
	var apiErr protocol.Error
	if err := json.Unmarshal(out, &apiErr); err != nil || apiErr.Code != protocol.CodeVersionConflict {
		t.Fatalf("error body = %s (err %v)", out, err)
	}
}

// TestHandlerServesInterceptedService proves interceptors compose at the
// HTTP boundary: a rate-limited service surfaces 429s on the v1 routes.
func TestHandlerServesInterceptedService(t *testing.T) {
	s := newTestServer(t, Config{})
	svc := service.Chain(s, service.RateLimit(0.0001, 1))
	hs := httptest.NewServer(NewHandler(svc))
	defer hs.Close()

	body := encodeWith(t, protocol.JSON, &protocol.TaskRequest{WorkerID: 7, LabelCounts: []int{1}})
	status, _, _ := postRaw(t, hs.URL+"/v1/task", protocol.ContentTypeJSON, body)
	if status != http.StatusOK {
		t.Fatalf("first call status %d, want 200 (burst)", status)
	}
	status, _, out := postRaw(t, hs.URL+"/v1/task", protocol.ContentTypeJSON, body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second call status %d, want 429: %s", status, out)
	}
	var apiErr protocol.Error
	if err := json.Unmarshal(out, &apiErr); err != nil || apiErr.Code != protocol.CodeResourceExhausted {
		t.Fatalf("error body = %s (err %v)", out, err)
	}
}

// TestV1KrumPipelineRejectsByzantinePushes drives a full Byzantine window
// over the wire: four honest workers and one attacker (sign-flipped, 5×
// amplified) push through POST /v1/gradient against a Krum-aggregated
// server. The drained update must follow the honest direction, and
// GET /v1/stats must expose the composed pipeline.
func TestV1KrumPipelineRejectsByzantinePushes(t *testing.T) {
	algo := learning.SSGD{}
	pipe, err := pipeline.Build("staleness", "krum(1)", pipeline.BuildOptions{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	s, hs := newHTTPServer(t, Config{K: 5, Algorithm: algo, Pipeline: pipe})
	before, _ := s.Model()

	honest := make([]float64, len(before))
	honest[0] = 1
	byz := make([]float64, len(before))
	byz[0] = -5 // sign-flip ×5 of the honest direction

	for worker := 0; worker < 5; worker++ {
		grad := honest
		if worker == 4 {
			grad = byz
		}
		body := encodeWith(t, protocol.JSON, &protocol.GradientPush{
			WorkerID: worker, ModelVersion: 0, Gradient: grad,
			BatchSize: 1, LabelCounts: []int{1},
		})
		status, _, out := postRaw(t, hs.URL+"/v1/gradient", protocol.ContentTypeJSON, body)
		if status != http.StatusOK {
			t.Fatalf("worker %d: status %d: %s", worker, status, out)
		}
		var ack protocol.PushAck
		if err := json.Unmarshal(out, &ack); err != nil {
			t.Fatal(err)
		}
		if worker < 4 && ack.NewVersion != 0 {
			t.Fatalf("version advanced before the window filled: %+v", ack)
		}
		if worker == 4 && ack.NewVersion != 1 {
			t.Fatalf("window of 5 must drain: %+v", ack)
		}
	}

	after, _ := s.Model()
	// The honest +1 gradient decreases param 0 under gradient descent; the
	// Byzantine gradient would increase it by 5× as much. Krum must have
	// selected a member of the honest cluster.
	if after[0] >= before[0] {
		t.Fatalf("model followed the Byzantine direction: %v -> %v", before[0], after[0])
	}

	// /v1/stats exposes the composed pipeline.
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/stats", nil)
	req.Header.Set("Accept", protocol.ContentTypeJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var stats protocol.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Aggregator != "Krum(f=1)" {
		t.Fatalf("stats aggregator = %q, want Krum(f=1)", stats.Aggregator)
	}
	if len(stats.PipelineStages) != 1 || stats.PipelineStages[0] != "staleness(SSGD)" {
		t.Fatalf("stats pipeline stages = %v", stats.PipelineStages)
	}
	if stats.GradientsIn != 5 || stats.ModelVersion != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestV1TaskDeltaRoundTripBothCodecs drives a version-aware pull over the
// wire in both codecs: full pull at version 0, a sparse update, then a
// WantDelta pull whose reconstruction must equal the server's params
// exactly — proving *compress.Sparse survives flat and JSON intact.
func TestV1TaskDeltaRoundTripBothCodecs(t *testing.T) {
	s, hs := newHTTPServer(t, Config{Algorithm: learning.SSGD{}})
	for _, codec := range []protocol.Codec{protocol.Flat, protocol.JSON} {
		ct := codec.ContentType()

		// Full pull.
		body := encodeWith(t, codec, &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1}})
		status, _, out := postRaw(t, hs.URL+"/v1/task", ct, body)
		if status != http.StatusOK {
			t.Fatalf("%s: full pull status %d: %s", ct, status, out)
		}
		var full protocol.TaskResponse
		if err := codec.Decode(bytes.NewReader(out), &full); err != nil {
			t.Fatal(err)
		}
		if full.ParamsDelta != nil || len(full.Params) == 0 {
			t.Fatalf("%s: full pull = delta=%v params=%d", ct, full.ParamsDelta, len(full.Params))
		}
		cached := append([]float64(nil), full.Params...)
		base := full.ModelVersion

		// One sparse update in-process.
		if _, err := s.PushGradient(context.Background(), &protocol.GradientPush{
			ModelVersion: base, GradientLen: len(cached),
			SparseIndices: []int32{2}, SparseValues: []float64{0.5},
			BatchSize: 1, LabelCounts: []int{1},
		}); err != nil {
			t.Fatal(err)
		}

		// Delta pull over the wire.
		body = encodeWith(t, codec, &protocol.TaskRequest{
			WorkerID: 1, LabelCounts: []int{1}, WantDelta: true, KnownVersion: base,
		})
		status, _, out = postRaw(t, hs.URL+"/v1/task", ct, body)
		if status != http.StatusOK {
			t.Fatalf("%s: delta pull status %d: %s", ct, status, out)
		}
		var resp protocol.TaskResponse
		if err := codec.Decode(bytes.NewReader(out), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ParamsDelta == nil || resp.DeltaBase != base || len(resp.Params) != 0 {
			t.Fatalf("%s: delta pull = %+v", ct, resp)
		}
		if err := resp.ParamsDelta.Patch(cached); err != nil {
			t.Fatal(err)
		}
		want, wantV := s.Model()
		if resp.ModelVersion != wantV {
			t.Fatalf("%s: delta at version %d, server at %d", ct, resp.ModelVersion, wantV)
		}
		for i := range want {
			if cached[i] != want[i] {
				t.Fatalf("%s: coord %d reconstructed %v, server %v", ct, i, cached[i], want[i])
			}
		}
	}
}

// TestV1TaskLabelValidationHTTP: a malformed label histogram surfaces as a
// structured 400 over the wire.
func TestV1TaskLabelValidationHTTP(t *testing.T) {
	_, hs := newHTTPServer(t, Config{})
	body := encodeWith(t, protocol.JSON, &protocol.TaskRequest{LabelCounts: []int{1, -2}})
	status, _, out := postRaw(t, hs.URL+"/v1/task", protocol.ContentTypeJSON, body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, out)
	}
	var apiErr protocol.Error
	if err := json.Unmarshal(out, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != protocol.CodeInvalidArgument {
		t.Fatalf("error = %+v", apiErr)
	}
}

// TestV1StatsExposesAdmission: the composed admission chain and reject
// counters travel the stats wire.
func TestV1StatsExposesAdmission(t *testing.T) {
	_, hs := newHTTPServer(t, Config{Admission: sched.NewChain(sched.MinBatch(500))}) // default batch 100 -> every task rejected
	body := encodeWith(t, protocol.JSON, &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1}})
	if status, _, out := postRaw(t, hs.URL+"/v1/task", protocol.ContentTypeJSON, body); status != http.StatusOK {
		t.Fatalf("task status %d: %s", status, out)
	}
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/stats", nil)
	req.Header.Set("Accept", protocol.ContentTypeJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var stats protocol.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.TasksDropped != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.AdmissionPolicies) != 1 || stats.AdmissionPolicies[0] != "min-batch(500)" {
		t.Fatalf("admission policies = %v", stats.AdmissionPolicies)
	}
	if stats.RejectsByPolicy["min-batch(500)"] != 1 {
		t.Fatalf("rejects = %v", stats.RejectsByPolicy)
	}
}

// shortWriter is a ResponseWriter whose connection drops after limit body
// bytes: the status is already sent when the reply fails.
type shortWriter struct {
	*httptest.ResponseRecorder
	limit int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) <= w.limit {
		w.limit -= len(p)
		return w.ResponseRecorder.Write(p)
	}
	n, _ := w.ResponseRecorder.Write(p[:w.limit])
	w.limit = 0
	return n, io.ErrClosedPipe
}

// TestReplyWriteErrorsCounted: a reply that fails after its first byte
// reaches the client is counted in the endpoint's stats as
// reply_write_errors, which is absent while it is zero.
func TestReplyWriteErrorsCounted(t *testing.T) {
	e := NewEndpoint(newTestServer(t, Config{}))
	stats := func() (protocol.Stats, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		req.Header.Set("Accept", protocol.ContentTypeJSON)
		e.ServeHTTP(rec, req)
		var st protocol.Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("stats: %v (%s)", err, rec.Body.Bytes())
		}
		return st, rec.Body.String()
	}
	if st, raw := stats(); st.ReplyWriteErrors != 0 || strings.Contains(raw, "reply_write_errors") {
		t.Fatalf("before any failure: %s", raw)
	}

	body := encodeWith(t, protocol.Flat, &protocol.TaskRequest{WorkerID: 3, LabelCounts: []int{1, 1}})
	for i := 1; i <= 2; i++ {
		w := &shortWriter{ResponseRecorder: httptest.NewRecorder(), limit: 10}
		req := httptest.NewRequest(http.MethodPost, "/v1/task", bytes.NewReader(body))
		req.Header.Set("Content-Type", protocol.ContentTypeFlat)
		e.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Body.Len() != 10 {
			t.Fatalf("truncated reply: status %d, %d bytes", w.Code, w.Body.Len())
		}
		if st, raw := stats(); st.ReplyWriteErrors != int64(i) {
			t.Fatalf("after %d failed replies: %s", i, raw)
		}
	}
}
