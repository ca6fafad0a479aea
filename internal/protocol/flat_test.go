package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fleet/internal/compress"
)

// randPush builds a random GradientPush. Slices are nil or non-empty —
// the flat layout does not distinguish nil from empty (both encode as
// count 0 and decode as nil), matching omitempty semantics.
func randPush(rng *rand.Rand) *GradientPush {
	p := &GradientPush{
		WorkerID:     rng.Intn(1000),
		DeviceModel:  []string{"", "Galaxy S7", "Pixel 4", "mid-range"}[rng.Intn(4)],
		ModelVersion: rng.Intn(1 << 20),
		ModelEpoch:   int64(rng.Intn(5)),
		BatchSize:    1 + rng.Intn(128),
		CompTimeSec:  rng.Float64() * 10,
		EnergyPct:    rng.Float64(),
		Contributing: rng.Intn(3),
		Encoding:     []string{"", "dense", "topk", "topk+q8", "topk+f16"}[rng.Intn(5)],
	}
	if rng.Intn(2) == 0 {
		p.LabelCounts = randInts(rng, 1+rng.Intn(10))
	}
	if rng.Intn(2) == 0 {
		p.TimeFeatures = randFloats(rng, 1+rng.Intn(6))
		p.EnergyFeatures = randFloats(rng, 1+rng.Intn(6))
	}
	switch rng.Intn(4) {
	case 0:
		p.Gradient = randFloats(rng, 1+rng.Intn(200))
	case 1:
		k := 1 + rng.Intn(32)
		p.GradientLen = 1000
		p.SparseIndices = randIndices(rng, k)
		p.SparseValues = randFloats(rng, k)
	case 2:
		k := 1 + rng.Intn(32)
		p.GradientLen = 1000
		p.SparseIndices = randIndices(rng, k)
		p.SparseF16 = randU16s(rng, k)
	default:
		k := 1 + rng.Intn(32)
		p.GradientLen = 1000
		p.SparseIndices = randIndices(rng, k)
		p.SparseQ8Levels = randBytes(rng, k)
		p.SparseQ8Min = -rng.Float64()
		p.SparseQ8Max = rng.Float64()
	}
	return p
}

func randTaskResponse(rng *rand.Rand) *TaskResponse {
	t := &TaskResponse{
		Accepted:     rng.Intn(2) == 0,
		ModelVersion: rng.Intn(1 << 20),
		BatchSize:    rng.Intn(256),
		DeltaBase:    rng.Intn(100),
		ServerEpoch:  int64(rng.Intn(4)),
	}
	if !t.Accepted {
		t.Reason = "controller: worker rejected"
	}
	switch rng.Intn(3) {
	case 0:
		t.Params = randFloats(rng, 1+rng.Intn(500))
	case 1:
		k := 1 + rng.Intn(40)
		t.ParamsDelta = &compress.Sparse{Len: 1000, Indices: randIndices(rng, k), Values: randFloats(rng, k)}
	}
	return t
}

func randFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}
func randInts(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(100)
	}
	return out
}
func randIndices(rng *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = rng.Int31n(1000)
	}
	return out
}
func randU16s(rng *rand.Rand, n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(rng.Intn(1 << 16))
	}
	return out
}
func randBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func randTaskRequest(rng *rand.Rand) *TaskRequest {
	r := &TaskRequest{
		WorkerID:     rng.Intn(1000),
		DeviceModel:  []string{"", "Galaxy S7", "Pixel 4"}[rng.Intn(3)],
		KnownVersion: rng.Intn(1 << 20),
		WantDelta:    rng.Intn(2) == 0,
		KnownEpoch:   int64(rng.Intn(4)),
	}
	if rng.Intn(2) == 0 {
		r.TimeFeatures = randFloats(rng, 1+rng.Intn(6))
		r.EnergyFeatures = randFloats(rng, 1+rng.Intn(6))
	}
	if rng.Intn(2) == 0 {
		r.LabelCounts = randInts(rng, 1+rng.Intn(10))
	}
	return r
}

func randPushAck(rng *rand.Rand) *PushAck {
	return &PushAck{
		Applied:    rng.Intn(2) == 0,
		Staleness:  rng.Intn(50),
		Scale:      rng.Float64(),
		NewVersion: rng.Intn(1 << 20),
	}
}

func randAnnounce(rng *rand.Rand) *ModelAnnounce {
	a := &ModelAnnounce{
		ModelVersion: 1 + rng.Intn(1<<20),
		ServerEpoch:  int64(rng.Intn(4)),
		DeltaBase:    rng.Intn(1 << 20),
	}
	switch rng.Intn(3) {
	case 0:
		k := 1 + rng.Intn(40)
		a.Delta = &compress.Sparse{Len: 1000, Indices: randIndices(rng, k), Values: randFloats(rng, k)}
	case 1:
		a.Delta = &compress.Sparse{} // present but empty: distinct from nil
	}
	return a
}

func randCounters[V int | int64](rng *rand.Rand) map[string]V {
	if rng.Intn(2) == 0 {
		return nil
	}
	keys := []string{"", "min-batch", "similarity", "iprof-time", ContentTypeFlat, ContentTypeJSON, "zz"}
	out := make(map[string]V)
	for _, i := range rng.Perm(len(keys))[:1+rng.Intn(len(keys))] {
		out[keys[i]] = V(rng.Intn(1 << 30))
	}
	return out
}

func randStats(rng *rand.Rand) *Stats {
	s := &Stats{
		ModelVersion:        rng.Intn(1 << 20),
		TasksServed:         rng.Intn(1 << 20),
		GradientsIn:         rng.Intn(1 << 20),
		MeanStaleness:       rng.Float64() * 10,
		Aggregator:          []string{"", "mean", "krum(2)"}[rng.Intn(3)],
		TasksDropped:        rng.Intn(100),
		RejectsByPolicy:     randCounters[int](rng),
		DrainErrors:         rng.Intn(3),
		Checkpoints:         rng.Intn(30),
		CheckpointErrors:    rng.Intn(3),
		RestoredVersion:     rng.Intn(1 << 10),
		ServerEpoch:         int64(rng.Intn(4)),
		LeafGradients:       rng.Intn(1 << 20),
		WireUplinkByCodec:   randCounters[int64](rng),
		WireDownlinkByCodec: randCounters[int64](rng),
	}
	if rng.Intn(2) == 0 {
		s.PipelineStages = []string{"staleness", "dp(1,1.2)", ""}[:1+rng.Intn(3)]
		s.AdmissionPolicies = []string{"iprof-time(3)", "min-batch(5)"}[:1+rng.Intn(2)]
	}
	if rng.Intn(2) == 0 {
		s.Tenant = &TenantStats{
			Name: "ads", Workers: rng.Intn(10), MaxWorkers: rng.Intn(10),
			AuthRejects: int64(rng.Intn(9)), WorkerCapRejects: int64(rng.Intn(9)), BudgetRejects: int64(rng.Intn(9)),
			EpsilonBudget: rng.Float64(), EpsilonSpent: rng.Float64(),
			BudgetCharges: rng.Intn(60), BudgetExhausted: rng.Intn(2) == 0,
		}
	}
	return s
}

// flatMessages is the table every all-kinds test ranges over: a seeded
// generator and a zero target per wire kind.
var flatMessages = []struct {
	name string
	kind uint8
	gen  func(*rand.Rand) interface{}
	zero func() interface{}
}{
	{"task-response", flatKindTaskResponse, func(r *rand.Rand) interface{} { return randTaskResponse(r) }, func() interface{} { return new(TaskResponse) }},
	{"gradient-push", flatKindPush, func(r *rand.Rand) interface{} { return randPush(r) }, func() interface{} { return new(GradientPush) }},
	{"task-request", flatKindTaskRequest, func(r *rand.Rand) interface{} { return randTaskRequest(r) }, func() interface{} { return new(TaskRequest) }},
	{"push-ack", flatKindPushAck, func(r *rand.Rand) interface{} { return randPushAck(r) }, func() interface{} { return new(PushAck) }},
	{"model-announce", flatKindAnnounce, func(r *rand.Rand) interface{} { return randAnnounce(r) }, func() interface{} { return new(ModelAnnounce) }},
	{"stats", flatKindStats, func(r *rand.Rand) interface{} { return randStats(r) }, func() interface{} { return new(Stats) }},
}

func flatBytes(t testing.TB, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Flat.Encode(&buf, v); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	return buf.Bytes()
}

func wantInvalidArgument(t *testing.T, what string, err error) {
	t.Helper()
	var pe *Error
	if !errors.As(err, &pe) || pe.Code != CodeInvalidArgument {
		t.Errorf("%s: want invalid_argument, got %v", what, err)
	}
}

// TestFlatRoundTrip proves exact reconstruction for every kind: seeded
// random messages survive encode→decode bit-for-bit, and the wire bytes
// name the expected version and kind.
func TestFlatRoundTrip(t *testing.T) {
	for i, m := range flatMessages {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for n := 0; n < 300; n++ {
			in := m.gen(rng)
			raw := flatBytes(t, in)
			if raw[4] != flatVersion || raw[5] != m.kind {
				t.Fatalf("%s: header version %d kind %d", m.name, raw[4], raw[5])
			}
			out := m.zero()
			if err := Flat.Decode(bytes.NewReader(raw), out); err != nil {
				t.Fatalf("%s %d: decode: %v", m.name, n, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("%s %d round trip:\n in: %+v\nout: %+v", m.name, n, in, out)
			}
		}
	}
}

// TestFlatEncodesValuesLikePointers: the Codec contract takes a message by
// value or by pointer; both produce the same bytes.
func TestFlatEncodesValuesLikePointers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range flatMessages {
		p := m.gen(rng)
		if v := reflect.ValueOf(p).Elem().Interface(); !bytes.Equal(flatBytes(t, p), flatBytes(t, v)) {
			t.Errorf("%s: value and pointer encode differently", m.name)
		}
	}
}

// TestFlatSpecialFloats checks the bit-exactness claim on the values that
// break approximate codecs — NaN payloads, infinities, signed zero,
// subnormals — in every float-carrying message. NaN != NaN, so equality is
// stated on the re-encoded bytes. Stats is JSON, which has no NaN or ±Inf
// (TestFlatEncodeUnknownType): its row takes the finite values.
func TestFlatSpecialFloats(t *testing.T) {
	special := []float64{
		math.NaN(), math.Float64frombits(0x7FF8000000000BAD), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 5e-324, math.MaxFloat64,
	}
	idx := ascendingIndices(len(special))
	for _, v := range special {
		msgs := []interface{}{
			&GradientPush{GradientLen: 100, SparseIndices: idx, SparseValues: special, SparseQ8Min: v, CompTimeSec: v, BatchSize: 1},
			&TaskResponse{Params: special, ParamsDelta: &compress.Sparse{Len: 100, Indices: idx, Values: special}},
			&TaskRequest{TimeFeatures: special, EnergyFeatures: []float64{v}},
			&PushAck{Scale: v},
			&ModelAnnounce{ModelVersion: 1, Delta: &compress.Sparse{Len: 100, Indices: idx, Values: special}},
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			msgs = append(msgs, &Stats{MeanStaleness: v, Tenant: &TenantStats{EpsilonBudget: v, EpsilonSpent: v}})
		}
		for _, in := range msgs {
			raw := flatBytes(t, in)
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
			if err := Flat.Decode(bytes.NewReader(raw), out); err != nil {
				t.Fatalf("%T: %v", in, err)
			}
			if !bytes.Equal(raw, flatBytes(t, out)) {
				t.Errorf("%T with %x: float bits changed in transit", in, math.Float64bits(v))
			}
		}
	}
	var ack PushAck
	if err := Flat.Decode(bytes.NewReader(flatBytes(t, &PushAck{Scale: math.Copysign(0, -1)})), &ack); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(ack.Scale) {
		t.Error("-0 lost its sign")
	}
	var st Stats
	if err := Flat.Decode(bytes.NewReader(flatBytes(t, &Stats{MeanStaleness: math.Copysign(0, -1)})), &st); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(st.MeanStaleness) {
		t.Error("stats: -0 lost its sign")
	}
}

// TestFlatOptionalBlocks pins the presence semantics: a nil Delta/Tenant
// stays nil, a present-but-empty one stays non-nil, and nil or empty
// slices and maps both decode as nil (count 0), matching omitempty.
func TestFlatOptionalBlocks(t *testing.T) {
	var ann ModelAnnounce
	if err := Flat.Decode(bytes.NewReader(flatBytes(t, &ModelAnnounce{ModelVersion: 3})), &ann); err != nil {
		t.Fatal(err)
	}
	if ann.Delta != nil {
		t.Errorf("nil delta decoded as %+v", ann)
	}
	empty := &ModelAnnounce{ModelVersion: 3, Delta: &compress.Sparse{Len: 7, Indices: []int32{}, Values: []float64{}}}
	if err := Flat.Decode(bytes.NewReader(flatBytes(t, empty)), &ann); err != nil {
		t.Fatal(err)
	}
	if ann.Delta == nil || ann.Delta.Len != 7 || ann.Delta.Indices != nil || ann.Delta.Values != nil {
		t.Errorf("empty delta decoded as %+v", ann.Delta)
	}

	var st Stats
	in := &Stats{RejectsByPolicy: map[string]int{}, WireUplinkByCodec: map[string]int64{"b": 2, "a": 1}, Tenant: &TenantStats{}}
	if err := Flat.Decode(bytes.NewReader(flatBytes(t, in)), &st); err != nil {
		t.Fatal(err)
	}
	if st.RejectsByPolicy != nil || st.WireDownlinkByCodec != nil || st.Tenant == nil {
		t.Errorf("stats optional blocks: %+v", st)
	}
	if !reflect.DeepEqual(st.WireUplinkByCodec, in.WireUplinkByCodec) {
		t.Errorf("uplink map = %v", st.WireUplinkByCodec)
	}
}

// TestFlatTruncated: every strict prefix of a valid message of every kind
// must be rejected with an error, never a panic or a silent partial decode.
func TestFlatTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range flatMessages {
		for rep := 0; rep < 8; rep++ {
			raw := flatBytes(t, m.gen(rng))
			for n := 0; n < len(raw); n++ {
				out := m.zero()
				if err := Flat.Decode(bytes.NewReader(raw[:n]), out); err == nil {
					t.Fatalf("%s: prefix of %d/%d bytes decoded without error", m.name, n, len(raw))
				}
				if !reflect.DeepEqual(out, m.zero()) {
					t.Fatalf("%s: failed decode of %d/%d bytes left a partial message", m.name, n, len(raw))
				}
			}
		}
	}
}

// TestFlatTrailingGarbage: extra bytes after a flat message are a framing
// error, not silently ignored.
func TestFlatTrailingGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range flatMessages {
		raw := append(flatBytes(t, m.gen(rng)), 0xFF)
		wantInvalidArgument(t, m.name, Flat.Decode(bytes.NewReader(raw), m.zero()))
	}
}

// TestFlatStructuralRejects: garbage headers, retired versions and kinds,
// hostile array lengths, non-canonical bytes and type confusion all fail
// structurally.
func TestFlatStructuralRejects(t *testing.T) {
	hdr := func(version, kind uint8, body ...byte) []byte {
		return append([]byte{'F', 'L', 'T', '1', version, kind, 0, 0}, body...)
	}
	i64 := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	oversized := hdr(flatVersion, flatKindPush, cat(
		i64(1),                              // WorkerID
		[]byte{0xFF, 0xFF, 0xFF, 0xFF},      // DeviceModel len 4GiB
		bytes.Repeat([]byte{'x'}, 1024))...) // not that many follow
	// Stats documents: json.Unmarshal takes all but the first two, yet only
	// canonical's bytes are what json.Marshal writes.
	const canonical = `{"model_version":3,"tasks_served":4,"gradients_in":2,"mean_staleness":0.5}`
	stats := func(doc string) []byte { return hdr(flatVersion, flatKindStats, []byte(doc)...) }
	if err := Flat.Decode(bytes.NewReader(stats(canonical)), &Stats{}); err != nil {
		t.Fatalf("canonical stats document refused: %v", err)
	}

	type reject struct {
		name string
		raw  []byte
		into interface{}
	}
	cases := []reject{
		{"empty", nil, &GradientPush{}},
		{"bad magic", []byte("XXXXXXXXXXXX"), &GradientPush{}},
		{"flat version 1", hdr(1, flatKindPush), &GradientPush{}},
		{"flat version 2", hdr(2, flatKindStats), &Stats{}},
		{"flat version 3", hdr(3, flatKindAnnounce), &ModelAnnounce{}},
		{"flat version 4", hdr(4, flatKindTaskResponse), &TaskResponse{}},
		{"flat version 5", hdr(5, flatKindStats), &Stats{}},
		{"future version", hdr(99, flatKindPush), &GradientPush{}},
		{"reserved bytes", []byte{'F', 'L', 'T', '1', flatVersion, flatKindPush, 7, 0}, &GradientPush{}},
		{"kind 0", hdr(flatVersion, 0), &PushAck{}},
		{"kind 1", hdr(flatVersion, 1), &PushAck{}},
		{"unknown kind", hdr(flatVersion, 42), &GradientPush{}},
		{"bool byte 2", hdr(flatVersion, flatKindPushAck, cat([]byte{2}, i64(0), i64(0), i64(0))...), &PushAck{}},
		{"presence byte 2", hdr(flatVersion, flatKindAnnounce, cat(i64(1), i64(0), []byte{2}, i64(0))...), &ModelAnnounce{}},
		{"stats trailing bytes", stats(canonical + "{}"), &Stats{}},
		{"stats trailing newline", stats(canonical + "\n"), &Stats{}},
		{"stats whitespace", stats(`{"model_version": 3,"tasks_served":4,"gradients_in":2,"mean_staleness":0.5}`), &Stats{}},
		{"stats reordered keys", stats(`{"tasks_served":4,"model_version":3,"gradients_in":2,"mean_staleness":0.5}`), &Stats{}},
		{"stats unknown key", stats(`{"model_version":3,"tasks_served":4,"gradients_in":2,"mean_staleness":0.5,"tasks_rejected":1}`), &Stats{}},
		{"stats float spelling", stats(`{"model_version":3,"tasks_served":4,"gradients_in":2,"mean_staleness":5e-1}`), &Stats{}},
		{"stats null", stats(`null`), &Stats{}},
		{"non-pointer target", flatBytes(t, &PushAck{}), PushAck{}},
		{"unknown target type", flatBytes(t, &PushAck{}), &struct{ Applied bool }{}},
	}
	for _, m := range flatMessages {
		raw := flatBytes(t, m.gen(rand.New(rand.NewSource(6))))
		for _, other := range flatMessages {
			if other.kind != m.kind {
				cases = append(cases, reject{m.name + " into " + other.name, raw, other.zero()})
			}
		}
	}
	for _, tc := range cases {
		wantInvalidArgument(t, tc.name, Flat.Decode(bytes.NewReader(tc.raw), tc.into))
	}

	// Version 1–5 peers (version 2 stats carried TasksRejected after
	// TasksServed, version 3 announces a trailing []u16, version 4 pushes
	// two trailing staleness ints, version 5 stats a field list) are refused
	// by version, not misread a field over.
	v4push := append(flatBytes(t, randPush(rand.New(rand.NewSource(4)))), make([]byte, 16)...)
	v4push[4] = 4
	for _, v := range []uint8{1, 2, 3, 4, 5} {
		want := fmt.Sprintf("unsupported version %d", v)
		if err := Flat.Decode(bytes.NewReader(hdr(v, flatKindStats, make([]byte, 64)...)), &Stats{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d peer: want %q, got %v", v, want, err)
		}
	}
	if err := Flat.Decode(bytes.NewReader(v4push), &GradientPush{}); err == nil || !strings.Contains(err.Error(), "unsupported version 4") {
		t.Errorf("version 4 push: want unsupported version 4, got %v", err)
	}
	var pe *Error
	if err := Flat.Decode(bytes.NewReader(oversized), &GradientPush{}); !errors.As(err, &pe) || pe.Code != CodePayloadTooLarge {
		t.Errorf("oversized count: want payload_too_large before allocation, got %v", err)
	}
	defer func(old int64) { MaxMessageBytes = old }(MaxMessageBytes)
	MaxMessageBytes = int64(len(canonical)) - 1
	if err := Flat.Decode(bytes.NewReader(stats(canonical)), &Stats{}); !errors.As(err, &pe) || pe.Code != CodePayloadTooLarge {
		t.Errorf("stats document over budget: want payload_too_large, got %v", err)
	}
	MaxMessageBytes++
	if err := Flat.Decode(bytes.NewReader(stats(canonical)), &Stats{}); err != nil {
		t.Errorf("stats document of exactly the budget: %v", err)
	}
}

// TestFlatEncodeUnknownType: a Go type without a layout is refused with a
// structured error and nothing is written — there is no generic fallback.
// So is a Stats JSON cannot hold: NaN or ±Inf in any float field.
func TestFlatEncodeUnknownType(t *testing.T) {
	for _, v := range []interface{}{nil, 42, "push", struct{ Applied bool }{}, &TenantStats{}, new(*PushAck),
		&Stats{MeanStaleness: math.NaN()}, Stats{Tenant: &TenantStats{EpsilonSpent: math.Inf(1)}},
		&Stats{Tenant: &TenantStats{EpsilonBudget: math.Inf(-1)}}} {
		var buf bytes.Buffer
		wantInvalidArgument(t, fmt.Sprintf("%T", v), Flat.Encode(&buf, v))
		if buf.Len() != 0 {
			t.Errorf("%T: %d bytes written before the refusal", v, buf.Len())
		}
	}
}

// TestFlatConcurrent hammers the pooled encode/decode path with every kind
// from many goroutines — run with -race (as CI does) this proves the
// sync.Pool buffers, and the loans of lent pushes, are never shared across
// in-flight messages.
func TestFlatConcurrent(t *testing.T) {
	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				m := flatMessages[rng.Intn(len(flatMessages))]
				in := m.gen(rng)
				var buf bytes.Buffer
				if err := Flat.Encode(&buf, in); err != nil {
					errs <- err
					return
				}
				out := m.zero()
				if err := Flat.Decode(&buf, out); err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(in, out) {
					errs <- Errorf(CodeInternal, "goroutine %d iter %d: corrupted %s round trip", seed, i, m.name)
					return
				}
				if i%10 == 0 {
					// A lent push, scribbled over once read: no other
					// goroutine's loan may share its storage.
					in := &GradientPush{Gradient: randFloats(rng, flatSplitBytes/8+rng.Intn(100)), BatchSize: 1}
					buf.Reset()
					if err := Flat.Encode(&buf, in); err != nil {
						errs <- err
						return
					}
					var out GradientPush
					loan, err := Lend(Flat, &buf, &out)
					if err != nil {
						errs <- err
						return
					}
					runtime.Gosched()
					if !reflect.DeepEqual(in, &out) {
						errs <- Errorf(CodeInternal, "goroutine %d iter %d: corrupted lent push", seed, i)
						return
					}
					for j := range out.Gradient {
						out.Gradient[j] = float64(seed)
					}
					loan.Release()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzFlatDecode feeds arbitrary bytes to Flat.Decode for each of the six
// message types: no input may panic or allocate past the decode budget, and
// whatever decodes must be the one canonical encoding of its message —
// encode(decode(data)) == data, which (compared on bytes, so NaN payloads
// are covered) is decode(encode(m)) == m for every reachable m. The seed
// corpus under testdata/fuzz/FuzzFlatDecode holds one valid message per
// kind.
func FuzzFlatDecode(f *testing.F) {
	f.Add([]byte("FLT1"))
	f.Add([]byte{'F', 'L', 'T', '1', flatVersion, flatKindPush, 0, 0, 0xFF, 0xFF})
	// Pushes whose arrays Lend draws from recycled storage: a model-sized
	// dense gradient, model-sized sparse arrays, and a small top-k push.
	lent := flatSplitBytes / 8
	f.Add(flatBytes(f, &GradientPush{Gradient: make([]float64, lent), BatchSize: 1}))
	f.Add(flatBytes(f, &GradientPush{GradientLen: lent, SparseIndices: make([]int32, lent),
		SparseValues: make([]float64, lent), TimeFeatures: []float64{1}}))
	f.Add(flatBytes(f, &GradientPush{GradientLen: 10, SparseIndices: []int32{1, 4, 7},
		SparseValues: []float64{0.5, -1, 2}, Encoding: compress.EncodingTopK, BatchSize: 1}))
	// Keep a hostile length prefix from costing 64 MB per exec; the
	// check-before-allocate logic is the same at any budget.
	old := MaxMessageBytes
	MaxMessageBytes = 1 << 20
	f.Cleanup(func() { MaxMessageBytes = old })
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range flatMessages {
			msg := m.zero()
			err := Flat.Decode(bytes.NewReader(data), msg)
			if push, ok := msg.(*GradientPush); ok {
				checkLendAgrees(t, data, push, err)
			}
			if err != nil {
				continue
			}
			if again := flatBytes(t, msg); !bytes.Equal(again, data) {
				t.Fatalf("%s: decoded input is not canonical:\n in: %x\nout: %x", m.name, data, again)
			}
		}
	})
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzFlatDecode from the encoder")

// TestFlatCorpusDecodes: every committed FuzzFlatDecode seed decodes as the
// kind its file is named after, and re-encodes to its own bytes. The fuzz
// body skips inputs that fail to decode, so without this a layout change
// would quietly turn the seeds into decode errors that exercise nothing.
// After a flatVersion bump, -update rewrites the seeds: message i of
// flatMessages is drawn from seed i+1.
func TestFlatCorpusDecodes(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFlatDecode")
	if *updateCorpus {
		for i, m := range flatMessages {
			raw := flatBytes(t, m.gen(rand.New(rand.NewSource(int64(i+1)))))
			seed := "go test fuzz v1\n[]byte(" + strconv.Quote(string(raw)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, m.name), []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range flatMessages {
		raw, err := os.ReadFile(filepath.Join(dir, m.name))
		if err != nil {
			t.Errorf("%s: no seed: %v", m.name, err)
			continue
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Errorf("%s: not a one-value []byte corpus file", m.name)
			continue
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Errorf("%s: %v", m.name, err)
			continue
		}
		msg := m.zero()
		if err := Flat.Decode(strings.NewReader(data), msg); err != nil {
			t.Errorf("%s: seed does not decode: %v", m.name, err)
			continue
		}
		if again := flatBytes(t, msg); string(again) != data {
			t.Errorf("%s: seed is not the encoding of what it decodes to", m.name)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(names) != len(flatMessages) {
		t.Errorf("%d seeds (%v), want one per kind (%d)", len(names), err, len(flatMessages))
	}
}

// checkLendAgrees decodes data a second time through Lend and requires what
// the owned decode produced: the same push, or the same error with nothing
// left checked out.
func checkLendAgrees(t *testing.T, data []byte, owned *GradientPush, ownedErr error) {
	t.Helper()
	out := loansOut.Load()
	var lent GradientPush
	loan, err := Lend(Flat, bytes.NewReader(data), &lent)
	if (err == nil) != (ownedErr == nil) || err != nil && err.Error() != ownedErr.Error() {
		t.Fatalf("lent decode: %v, owned decode: %v", err, ownedErr)
	}
	if err != nil {
		if loan != nil || loansOut.Load() != out {
			t.Fatalf("failed lent decode left a loan out (%d, was %d)", loansOut.Load(), out)
		}
		return
	}
	defer loan.Release()
	// Compared as wire bytes, which the encoding pins bit for bit (NaN too).
	if !bytes.Equal(flatBytes(t, &lent), flatBytes(t, owned)) {
		t.Fatalf("lent decode differs from owned:\n lent: %+v\nowned: %+v", lent, *owned)
	}
}

// TestLendRecyclesModelSizedArrays: a push's model-sized arrays are drawn
// from the storage earlier lends released — a steady stream of pushes
// allocates far less than one array per push (the pool may drop an entry
// now and then, under -race on purpose) — and so are a small top-k push's
// indices and values, while every other codec and a failed decode lend
// nothing.
func TestLendRecyclesModelSizedArrays(t *testing.T) {
	const params = 12_000 // an mnist-sized model: 96 KB per array
	rng := rand.New(rand.NewSource(5))
	dense := flatBytes(t, &GradientPush{Gradient: randFloats(rng, params), BatchSize: 2, TimeFeatures: randFloats(rng, 3)})
	sparse := flatBytes(t, &GradientPush{GradientLen: 4 * params, SparseIndices: randIndices(rng, params),
		SparseValues: randFloats(rng, params), BatchSize: 2})
	for name, raw := range map[string][]byte{"dense": dense, "sparse": sparse} {
		var want GradientPush
		if err := Flat.Decode(bytes.NewReader(raw), &want); err != nil {
			t.Fatal(err)
		}
		lend := func() {
			var got GradientPush
			loan, err := Lend(Flat, bytes.NewReader(raw), &got)
			if err != nil || loan == nil {
				t.Fatalf("%s: loan %v, err %v", name, loan, err)
			}
			if !reflect.DeepEqual(&got, &want) {
				t.Fatalf("%s: lent decode differs from owned", name)
			}
			loan.Release()
		}
		perPush := func(decode func()) int64 {
			const rounds = 50
			decode()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				decode()
			}
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc-before.TotalAlloc) / rounds
		}
		owned := perPush(func() {
			var got GradientPush
			if err := Flat.Decode(bytes.NewReader(raw), &got); err != nil {
				t.Fatal(err)
			}
		})
		if lent := perPush(lend); owned-lent < 8*params/2 {
			t.Errorf("%s: %d bytes allocated per lent push, %d per owned one: want at least half a %d-byte array saved",
				name, lent, owned, 8*params)
		}
	}

	small := flatBytes(t, &GradientPush{GradientLen: params, SparseIndices: randIndices(rng, 100),
		SparseValues: randFloats(rng, 100), Encoding: compress.EncodingTopK, BatchSize: 1})
	var p GradientPush
	if loan, err := Lend(Flat, bytes.NewReader(small), &p); err != nil || loan == nil ||
		len(p.SparseIndices) != 100 || &p.SparseIndices[0] != &loan.indices[0] || &p.SparseValues[0] != &loan.arrays[1][0] {
		t.Errorf("small top-k push: loan %v, err %v: want its indices and values lent", loan, err)
	} else {
		loan.Release()
	}
	var body bytes.Buffer
	if err := JSON.Encode(&body, &GradientPush{Gradient: make([]float64, params)}); err != nil {
		t.Fatal(err)
	}
	if loan, err := Lend(JSON, &body, &p); err != nil || loan != nil || len(p.Gradient) != params {
		t.Errorf("json push: loan %v, err %v, %d values", loan, err, len(p.Gradient))
	}
	out := loansOut.Load()
	if loan, err := Lend(Flat, bytes.NewReader(dense[:len(dense)-1]), &p); err == nil || loan != nil || loansOut.Load() != out {
		t.Errorf("truncated push: loan %v, err %v, loans out %d (was %d)", loan, err, loansOut.Load(), out)
	}
}

// TestSegmentsListTheMessageInOrder: a message encoded into Segments lists,
// after a head, exactly the bytes a plain writer receives, with a
// model-sized array by reference; a message without one is copied whole.
func TestSegmentsListTheMessageInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randTaskResponse(rng)
	m.Params, m.ParamsDelta = randFloats(rng, 20_000), nil
	var s Segments
	for _, msg := range []*TaskResponse{m, {Accepted: true, Params: randFloats(rng, 10)}} {
		plain := flatBytes(t, msg)
		if err := Flat.Encode(&s, msg); err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(plain) {
			t.Fatalf("Len %d, message %d bytes", s.Len(), len(plain))
		}
		head := []byte("head")
		got := bytes.Join(s.Buffers(head), nil)
		if want := append(append([]byte(nil), head...), plain...); !bytes.Equal(got, want) {
			t.Fatal("the listed segments are not head and message in order")
		}
		copied, ok := s.Copied()
		if large := len(msg.Params)*8 >= flatSplitBytes; ok == large || ok && !bytes.Equal(copied, plain) {
			t.Fatalf("%d params: copied whole %v", len(msg.Params), ok)
		}
		s.Reset()
		if s.Len() != 0 || len(s.Buffers(nil)) != 0 {
			t.Fatal("Reset left part of the message")
		}
	}
}

// TestGradientPushDecodesPreTagBytes proves wire compatibility with
// payloads encoded before the Encoding tag and the quantized value fields
// existed: a JSON body of the old field set decodes into today's struct
// with the new fields zero.
func TestGradientPushDecodesPreTagBytes(t *testing.T) {
	// The exact field set of the pre-tag GradientPush. JSON matches struct
	// fields by tag, so this stand-in reproduces an old client's bytes.
	type oldGradientPush struct {
		WorkerID       int       `json:"worker_id"`
		DeviceModel    string    `json:"device_model"`
		ModelVersion   int       `json:"model_version"`
		ModelEpoch     int64     `json:"model_epoch,omitempty"`
		Gradient       []float64 `json:"gradient,omitempty"`
		GradientLen    int       `json:"gradient_len,omitempty"`
		SparseIndices  []int32   `json:"sparse_indices,omitempty"`
		SparseValues   []float64 `json:"sparse_values,omitempty"`
		BatchSize      int       `json:"batch_size"`
		LabelCounts    []int     `json:"label_counts"`
		CompTimeSec    float64   `json:"comp_time_sec"`
		EnergyPct      float64   `json:"energy_pct"`
		TimeFeatures   []float64 `json:"time_features"`
		EnergyFeatures []float64 `json:"energy_features"`
		Contributing   int       `json:"contributing,omitempty"`
	}
	old := oldGradientPush{
		WorkerID: 3, DeviceModel: "Galaxy S7", ModelVersion: 17, ModelEpoch: 1,
		GradientLen: 100, SparseIndices: []int32{2, 50}, SparseValues: []float64{0.5, -1.5},
		BatchSize: 16, LabelCounts: []int{4, 0, 2},
		CompTimeSec: 0.25, EnergyPct: 0.01,
		TimeFeatures: []float64{1, 2}, EnergyFeatures: []float64{3},
	}
	var buf bytes.Buffer
	if err := JSON.Encode(&buf, &old); err != nil {
		t.Fatal(err)
	}
	var got GradientPush
	if err := JSON.Decode(&buf, &got); err != nil {
		t.Fatalf("pre-tag payload failed to decode: %v", err)
	}
	want := GradientPush{
		WorkerID: 3, DeviceModel: "Galaxy S7", ModelVersion: 17, ModelEpoch: 1,
		GradientLen: 100, SparseIndices: []int32{2, 50}, SparseValues: []float64{0.5, -1.5},
		BatchSize: 16, LabelCounts: []int{4, 0, 2},
		CompTimeSec: 0.25, EnergyPct: 0.01,
		TimeFeatures: []float64{1, 2}, EnergyFeatures: []float64{3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-tag decode:\n got: %+v\nwant: %+v", got, want)
	}
	if got.Encoding != "" || got.SparseF16 != nil || got.SparseQ8Levels != nil {
		t.Fatalf("new fields must be zero on pre-tag payloads: %+v", got)
	}

	// And the converse: a tagged payload with no quantized fields decodes
	// through the old field set unharmed (old servers ignore the tag).
	tagged := GradientPush{Encoding: "topk", GradientLen: 10, SparseIndices: []int32{1}, SparseValues: []float64{2}, BatchSize: 1}
	buf.Reset()
	if err := JSON.Encode(&buf, &tagged); err != nil {
		t.Fatal(err)
	}
	var oldGot oldGradientPush
	if err := JSON.Decode(&buf, &oldGot); err != nil {
		t.Fatalf("tagged payload failed to decode into pre-tag struct: %v", err)
	}
	if oldGot.GradientLen != 10 || len(oldGot.SparseIndices) != 1 {
		t.Fatalf("tagged payload mangled in pre-tag struct: %+v", oldGot)
	}
}

func benchPush(paramCount, k int) *GradientPush {
	rng := rand.New(rand.NewSource(7))
	return &GradientPush{
		WorkerID: 1, DeviceModel: "Galaxy S7", ModelVersion: 100,
		GradientLen:   paramCount,
		SparseIndices: ascendingIndices(k),
		SparseValues:  randFloats(rng, k),
		BatchSize:     16, LabelCounts: []int{1, 2, 3},
		TimeFeatures: randFloats(rng, 4), EnergyFeatures: randFloats(rng, 4),
	}
}

func ascendingIndices(k int) []int32 {
	out := make([]int32, k)
	for i := range out {
		out[i] = int32(i * 3)
	}
	return out
}

type benchMessage struct {
	name string
	v    interface{}
	zero func() interface{}
}

// benchMessages are the round's wire messages at benchmark size: the sparse
// k=64 push, the request and ack around it, and a window-closing announce
// with a 12 k-nnz delta (1 % of a 1.2 M-parameter model, ~145 KB).
func benchMessages() []benchMessage {
	rng := rand.New(rand.NewSource(8))
	push := benchPush(10000, 64)
	return []benchMessage{
		{"push", push, func() interface{} { return new(GradientPush) }},
		{"request", &TaskRequest{
			WorkerID: 1, DeviceModel: push.DeviceModel, TimeFeatures: push.TimeFeatures, EnergyFeatures: push.EnergyFeatures,
			LabelCounts: push.LabelCounts, KnownVersion: 100, WantDelta: true,
		}, func() interface{} { return new(TaskRequest) }},
		{"ack", &PushAck{Applied: true, Staleness: 2, Scale: 0.5, NewVersion: 101}, func() interface{} { return new(PushAck) }},
		{"announce", &ModelAnnounce{
			ModelVersion: 101, DeltaBase: 100,
			Delta: &compress.Sparse{Len: 1200000, Indices: ascendingIndices(12000), Values: randFloats(rng, 12000)},
		}, func() interface{} { return new(ModelAnnounce) }},
	}
}

// BenchmarkFlatCodecEncode / Decode: every message of the hot wire path.
func BenchmarkFlatCodecEncode(b *testing.B) {
	for _, m := range benchMessages() {
		b.Run(m.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := Flat.Encode(&buf, m.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFlatCodecDecode(b *testing.B) {
	for _, m := range benchMessages() {
		b.Run(m.name, func(b *testing.B) {
			raw := flatBytes(b, m.v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Flat.Decode(bytes.NewReader(raw), m.zero()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
