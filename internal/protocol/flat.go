package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"fleet/internal/compress"
)

// Flat binary wire codec: the allocation-light dialect of the whole
// protocol and its Default. Self-describing encoders re-send type
// descriptors and compressors burn CPU on payloads that are mostly
// incompressible float bits; the flat codec instead writes a fixed header
// and raw little-endian fields and arrays, so a sparse push costs ~40 bytes
// of framing plus 4–12 bytes per kept coordinate, encoded through a pooled
// buffer (a model-sized array bypasses it, see SharedWriter) and decoded
// zero-copy: array bytes are read straight off the wire into the final
// []float64/[]int32/[]uint16 backing stores — recycled ones for the
// gradient arrays of a push a server only borrows (Lend).
//
// Every protocol message has a native layout (kinds 2–7 below); there is no
// generic fallback, so a Go type without a layout fails to encode and an
// unknown kind fails to decode, both as invalid_argument. The five
// learning-task messages (kinds 2–6) are fixed field lists in the order the
// encoders below write them — that order is the wire contract a non-Go
// worker implements, and adding or moving a field requires bumping
// flatVersion, unlike the self-describing JSON dialect. Stats, the operator
// document (kind 7), is its canonical encoding/json bytes after the header,
// so its fields are named on the wire and a new one bumps nothing.

// ContentTypeFlat is the negotiation token of the flat binary codec.
const ContentTypeFlat = "application/x-fleet-flat"

// Flat is the flat binary codec.
var Flat Codec = flatCodec{}

const (
	flatMagic = "FLT1"
	// Version 1 peers wrapped four of the six messages in gob behind the
	// flat header; version 2 stats carried a TasksRejected twin of
	// TasksDropped; version 3 announces ended in a half-precision copy of
	// the whole model; version 4 task responses carried a Full flag that
	// restated an absent delta, and pushes a leaf-staleness range nobody
	// read; version 5 stats were a field list of their own. All five are
	// refused on their first frame.
	flatVersion = 6

	flatKindTaskResponse = 2
	flatKindPush         = 3
	flatKindTaskRequest  = 4
	flatKindPushAck      = 5
	flatKindAnnounce     = 6
	flatKindStats        = 7

	flatHeaderLen = 8 // magic(4) + version(1) + kind(1) + reserved(2)
)

// flatKindNames names the known kinds for type-confusion errors.
var flatKindNames = [...]string{
	flatKindTaskResponse: "task-response",
	flatKindPush:         "gradient-push",
	flatKindTaskRequest:  "task-request",
	flatKindPushAck:      "push-ack",
	flatKindAnnounce:     "model-announce",
	flatKindStats:        "stats",
}

// hostLittle reports the native byte order, checked once: on little-endian
// hosts (every deployment target) array payloads are memcpy'd; the
// big-endian fallback converts element-wise.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

type flatCodec struct{}

func (flatCodec) ContentType() string { return ContentTypeFlat }

// SharedWriter is the one way an Encode destination may keep a message's
// arrays instead of copying them: plain io.Writer forbids retaining p, so a
// writer that can send a slice later (a vectored socket write) says so by
// implementing this. The codec hands it, by reference, any large array of
// the message — the caller that passes a SharedWriter to Encode therefore
// vouches that the message's arrays are not written until it is done with
// what WriteShared received (true of everything served from an immutable
// model snapshot, and of a request whose sender waits for the write).
type SharedWriter interface {
	io.Writer
	// WriteShared appends p to the output without copying it.
	WriteShared(p []byte) (n int, err error)
}

const (
	// flatSplitBytes is the array size from which the encoder stops copying:
	// the message goes out as head, array, tail — the array bytes straight
	// from the caller's slice — instead of through the scratch buffer.
	flatSplitBytes = 64 << 10
	// flatPoolMaxBytes bounds the scratch a pooled buffer may keep, so one
	// large message (a big-endian host's converted model) is not pinned for
	// the life of the process.
	flatPoolMaxBytes = 1 << 20
)

// flatBuf is a pooled encode scratch buffer: a message is built in memory
// and written to w with a single Write, unless it carries an array of
// flatSplitBytes or more, which splits it into the Writes around it.
type flatBuf struct {
	b   []byte
	w   io.Writer
	err error // first failed Write
}

var flatPool = sync.Pool{New: func() interface{} { return &flatBuf{b: make([]byte, 0, 4096)} }}

// flush writes what the scratch holds.
func (f *flatBuf) flush() {
	if len(f.b) > 0 && f.err == nil {
		_, f.err = f.w.Write(f.b)
	}
	f.b = f.b[:0]
}

// image appends the little-endian wire image of an array, which on a
// little-endian host is the array's own memory: small, it is copied into
// the scratch; large, it is written from where it lies — handed over by
// reference when w can keep it.
func (f *flatBuf) image(p []byte) {
	if len(p) < flatSplitBytes {
		f.b = append(f.b, p...)
		return
	}
	f.flush()
	if f.err != nil {
		return
	}
	if sw, ok := f.w.(SharedWriter); ok {
		_, f.err = sw.WriteShared(p)
	} else {
		_, f.err = f.w.Write(p)
	}
}

func (f *flatBuf) u8(v uint8) { f.b = append(f.b, v) }
func (f *flatBuf) u32(v uint32) {
	f.b = binary.LittleEndian.AppendUint32(f.b, v)
}
func (f *flatBuf) i64(v int64) {
	f.b = binary.LittleEndian.AppendUint64(f.b, uint64(v))
}
func (f *flatBuf) int(v int) { f.i64(int64(v)) }
func (f *flatBuf) f64(v float64) {
	f.b = binary.LittleEndian.AppendUint64(f.b, math.Float64bits(v))
}
func (f *flatBuf) bool(v bool) {
	if v {
		f.u8(1)
	} else {
		f.u8(0)
	}
}
func (f *flatBuf) str(s string) {
	f.u32(uint32(len(s)))
	f.b = append(f.b, s...)
}
func (f *flatBuf) f64s(s []float64) {
	f.u32(uint32(len(s)))
	if len(s) == 0 {
		return
	}
	if hostLittle {
		f.image(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8))
		return
	}
	for _, v := range s {
		f.f64(v)
	}
}
func (f *flatBuf) i32s(s []int32) {
	f.u32(uint32(len(s)))
	if len(s) == 0 {
		return
	}
	if hostLittle {
		f.image(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4))
		return
	}
	for _, v := range s {
		f.u32(uint32(v))
	}
}
func (f *flatBuf) u16s(s []uint16) {
	f.u32(uint32(len(s)))
	if len(s) == 0 {
		return
	}
	if hostLittle {
		f.image(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*2))
		return
	}
	for _, v := range s {
		f.b = binary.LittleEndian.AppendUint16(f.b, v)
	}
}
func (f *flatBuf) u8s(s []uint8) {
	f.u32(uint32(len(s)))
	f.b = append(f.b, s...)
}
func (f *flatBuf) ints(s []int) {
	f.u32(uint32(len(s)))
	for _, v := range s {
		f.int(v)
	}
}

// sparse writes an optional sparse vector: a presence byte, then (when
// present) the dense length and the index and value arrays.
func (f *flatBuf) sparse(s *compress.Sparse) {
	f.bool(s != nil)
	if s != nil {
		f.int(s.Len)
		f.i32s(s.Indices)
		f.f64s(s.Values)
	}
}

func (f *flatBuf) header(kind uint8) {
	f.b = append(f.b, flatMagic...)
	f.u8(flatVersion)
	f.u8(kind)
	f.u8(0)
	f.u8(0)
}

func (flatCodec) Encode(w io.Writer, v interface{}) error {
	switch m := v.(type) {
	case *Stats:
		return encodeStats(w, m)
	case Stats:
		return encodeStats(w, &m)
	}
	f := flatPool.Get().(*flatBuf)
	f.w = w
	switch m := v.(type) {
	case *TaskResponse:
		f.taskResponse(m)
	case TaskResponse:
		f.taskResponse(&m)
	case *GradientPush:
		f.push(m)
	case GradientPush:
		f.push(&m)
	case *TaskRequest:
		f.taskRequest(m)
	case TaskRequest:
		f.taskRequest(&m)
	case *PushAck:
		f.pushAck(m)
	case PushAck:
		f.pushAck(&m)
	case *ModelAnnounce:
		f.announce(m)
	case ModelAnnounce:
		f.announce(&m)
	default:
		f.w = nil
		flatPool.Put(f)
		return Errorf(CodeInvalidArgument, "flat: no layout for %T", v)
	}
	f.flush()
	err := f.err
	f.w, f.err = nil, nil
	if cap(f.b) <= flatPoolMaxBytes {
		flatPool.Put(f)
	}
	if err != nil {
		return Errorf(CodeUnavailable, "flat: write: %v", err)
	}
	return nil
}

// The encoders below are the wire contract: each writes its message's
// fields in exactly this order — change it only with a flatVersion bump.

// taskResponse lays out a TaskResponse as kind 2.
func (f *flatBuf) taskResponse(t *TaskResponse) {
	f.header(flatKindTaskResponse)
	f.bool(t.Accepted)
	f.str(t.Reason)
	f.int(t.ModelVersion)
	f.f64s(t.Params)
	f.int(t.BatchSize)
	f.sparse(t.ParamsDelta)
	f.int(t.DeltaBase)
	f.i64(t.ServerEpoch)
}

// push lays out a GradientPush as kind 3.
func (f *flatBuf) push(p *GradientPush) {
	f.header(flatKindPush)
	f.int(p.WorkerID)
	f.str(p.DeviceModel)
	f.int(p.ModelVersion)
	f.i64(p.ModelEpoch)
	f.f64s(p.Gradient)
	f.int(p.GradientLen)
	f.i32s(p.SparseIndices)
	f.f64s(p.SparseValues)
	f.u16s(p.SparseF16)
	f.u8s(p.SparseQ8Levels)
	f.f64(p.SparseQ8Min)
	f.f64(p.SparseQ8Max)
	f.str(p.Encoding)
	f.int(p.BatchSize)
	f.ints(p.LabelCounts)
	f.f64(p.CompTimeSec)
	f.f64(p.EnergyPct)
	f.f64s(p.TimeFeatures)
	f.f64s(p.EnergyFeatures)
	f.int(p.Contributing)
}

// taskRequest lays out a TaskRequest as kind 4.
func (f *flatBuf) taskRequest(r *TaskRequest) {
	f.header(flatKindTaskRequest)
	f.int(r.WorkerID)
	f.str(r.DeviceModel)
	f.f64s(r.TimeFeatures)
	f.f64s(r.EnergyFeatures)
	f.ints(r.LabelCounts)
	f.int(r.KnownVersion)
	f.bool(r.WantDelta)
	f.i64(r.KnownEpoch)
}

// pushAck lays out a PushAck as kind 5.
func (f *flatBuf) pushAck(a *PushAck) {
	f.header(flatKindPushAck)
	f.bool(a.Applied)
	f.int(a.Staleness)
	f.f64(a.Scale)
	f.int(a.NewVersion)
}

// announce lays out a ModelAnnounce as kind 6.
func (f *flatBuf) announce(a *ModelAnnounce) {
	f.header(flatKindAnnounce)
	f.int(a.ModelVersion)
	f.i64(a.ServerEpoch)
	f.sparse(a.Delta)
	f.int(a.DeltaBase)
}

// encodeStats writes a Stats snapshot as kind 7: the header, then the
// document's canonical encoding/json bytes to the end of the message. The
// operator document carries its own field names, so a new Stats field
// changes no flat layout. A snapshot JSON cannot hold (a NaN or ±Inf
// field) is refused before anything is written.
func encodeStats(w io.Writer, s *Stats) error {
	doc, err := json.Marshal(s)
	if err != nil {
		return Errorf(CodeInvalidArgument, "flat: stats: %v", err)
	}
	f := flatBuf{b: make([]byte, 0, flatHeaderLen+len(doc)), w: w}
	f.header(flatKindStats)
	f.b = append(f.b, doc...)
	f.flush()
	if f.err != nil {
		return Errorf(CodeUnavailable, "flat: write: %v", f.err)
	}
	return nil
}

// flatDec decodes one flat message from an io.Reader, tracking a byte
// budget so a hostile header cannot demand gigabyte allocations: every
// declared array length is charged against MaxMessageBytes before its
// backing store is allocated. The first failure sticks in err and turns
// every later read into a no-op returning the zero value, so the message
// decoders are straight field lists checked once by finish.
type flatDec struct {
	r       io.Reader
	scratch [8]byte
	budget  int64
	err     error
	// lending reads a push's gradient arrays into loan's storage (Lend).
	lending bool
	loan    *Loan
}

func (d *flatDec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = Errorf(CodeInvalidArgument, format, args...)
	}
}

func (d *flatDec) fill(b []byte) bool {
	if d.err != nil {
		return false
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail("flat: truncated message: %v", err)
		return false
	}
	return true
}

func (d *flatDec) u8() uint8 {
	if !d.fill(d.scratch[:1]) {
		return 0
	}
	return d.scratch[0]
}
func (d *flatDec) u32() uint32 {
	if !d.fill(d.scratch[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(d.scratch[:4])
}
func (d *flatDec) i64() int64 {
	if !d.fill(d.scratch[:8]) {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(d.scratch[:8]))
}
func (d *flatDec) int() int     { return int(d.i64()) }
func (d *flatDec) f64() float64 { return math.Float64frombits(uint64(d.i64())) }

// bool reads a bool or presence byte; anything but 0 or 1 is rejected.
func (d *flatDec) bool() bool {
	v := d.u8()
	if v > 1 {
		d.fail("flat: bool byte %d", v)
	}
	return v == 1
}

// count reads an array length and charges its decoded size; it returns 0
// once the decoder has failed, so callers allocate nothing.
func (d *flatDec) count(elemSize int64) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if d.budget -= int64(n) * elemSize; d.budget < 0 {
		d.err = Errorf(CodePayloadTooLarge, "flat: message exceeds %d bytes", MaxMessageBytes)
		return 0
	}
	return int(n)
}

func (d *flatDec) str() string {
	n := d.count(1)
	if n == 0 {
		return ""
	}
	b := make([]byte, n)
	if !d.fill(b) {
		return ""
	}
	return string(b)
}

// f64s reads a float64 array zero-copy: the wire bytes land directly in
// the returned slice's backing store (element-wise on big-endian hosts).
func (d *flatDec) f64s() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	return d.fillF64s(make([]float64, n))
}

// lentF64s is f64s for the float64 arrays a push lends (Lend): while
// lending, one of up to flatPoolMaxBytes is read into the loan's storage for
// slot rather than a new backing store.
func (d *flatDec) lentF64s(slot int) []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	if !d.lend(n * 8) {
		return d.fillF64s(make([]float64, n))
	}
	return d.fillF64s(loaned(&d.loan.arrays[slot], n))
}

// lentI32s is i32s for the index array a push lends (Lend), read into the
// loan's storage on the same terms as lentF64s.
func (d *flatDec) lentI32s() []int32 {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	if !d.lend(n * 4) {
		return d.fillI32s(make([]int32, n))
	}
	return d.fillI32s(loaned(&d.loan.indices, n))
}

// lend reports whether an array of size bytes is read into the loan, which
// the message's first lent array takes from the pool.
func (d *flatDec) lend(size int) bool {
	if !d.lending || size > flatPoolMaxBytes {
		return false
	}
	if d.loan == nil {
		d.loan = loanPool.Get().(*Loan)
		loansOut.Add(1)
	}
	return true
}

// loaned returns n elements of a loan's array, grown when it is shorter.
func loaned[T any](a *[]T, n int) []T {
	if cap(*a) < n {
		*a = make([]T, n)
	}
	return (*a)[:n:n]
}

// fillF64s reads len(out) values into out.
func (d *flatDec) fillF64s(out []float64) []float64 {
	n := len(out)
	if !d.fill(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*8)) {
		return nil
	}
	if !hostLittle {
		for i := range out {
			raw := *(*uint64)(unsafe.Pointer(&out[i]))
			out[i] = math.Float64frombits(swap64(raw))
		}
	}
	return out
}

func (d *flatDec) i32s() []int32 {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	return d.fillI32s(make([]int32, n))
}

// fillI32s reads len(out) values into out.
func (d *flatDec) fillI32s(out []int32) []int32 {
	if !d.fill(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(out)*4)) {
		return nil
	}
	if !hostLittle {
		for i := range out {
			out[i] = int32(swap32(uint32(out[i])))
		}
	}
	return out
}

func (d *flatDec) u16s() []uint16 {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	out := make([]uint16, n)
	if !d.fill(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*2)) {
		return nil
	}
	if !hostLittle {
		for i := range out {
			out[i] = out[i]<<8 | out[i]>>8
		}
	}
	return out
}

func (d *flatDec) u8s() []uint8 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint8, n)
	if !d.fill(out) {
		return nil
	}
	return out
}

func (d *flatDec) ints() []int {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *flatDec) sparse() *compress.Sparse {
	if !d.bool() {
		return nil
	}
	return &compress.Sparse{Len: d.int(), Indices: d.i32s(), Values: d.f64s()}
}

func swap64(v uint64) uint64 {
	return v<<56 | v>>56 |
		(v&0xff00)<<40 | (v>>40)&0xff00 |
		(v&0xff0000)<<24 | (v>>24)&0xff0000 |
		(v&0xff000000)<<8 | (v>>8)&0xff000000
}
func swap32(v uint32) uint32 {
	return v<<24 | v>>24 | (v&0xff00)<<8 | (v>>8)&0xff00
}

// finish reports the first decode failure, or trailing garbage: flat
// kinds are exactly-sized, so extra bytes mean a framing bug or a tampered
// payload.
func (d *flatDec) finish() error {
	if d.err != nil {
		return d.err
	}
	if _, err := io.ReadFull(d.r, d.scratch[:1]); err != io.EOF {
		return Errorf(CodeInvalidArgument, "flat: trailing bytes after message")
	}
	return nil
}

func (flatCodec) Decode(r io.Reader, v interface{}) error {
	d := flatDec{r: r, budget: MaxMessageBytes}
	return d.decode(v)
}

// Loan is the recycled storage behind a decoded push's gradient arrays
// (Lend). Its arrays are kept across lends, so a steady stream of pushes of
// similar size decodes without allocating them.
type Loan struct {
	arrays  [2][]float64 // Gradient's, SparseValues'
	indices []int32      // SparseIndices'
}

var (
	loanPool = sync.Pool{New: func() interface{} { return new(Loan) }}
	// loansOut counts loans taken from loanPool and not yet released.
	loansOut atomic.Int64
)

// Lend decodes a GradientPush like codec.Decode, except that the flat codec
// lends the push its gradient arrays — Gradient, SparseIndices and
// SparseValues, whatever their size up to flatPoolMaxBytes — out of recycled
// storage instead of allocating them. The arrays are the caller's to read
// until it calls Release on the loan, once; from then on they are written
// again. A nil loan (any other codec, a push without such an array) lends
// nothing, and Release on it is a no-op. A failed decode lends nothing
// either: the storage is back before Lend returns. The quantized value
// forms (SparseF16, SparseQ8Levels), TimeFeatures, EnergyFeatures and
// LabelCounts are always the push's own.
func Lend(codec Codec, r io.Reader, push *GradientPush) (*Loan, error) {
	if codec != Flat {
		return nil, codec.Decode(r, push)
	}
	d := flatDec{r: r, budget: MaxMessageBytes, lending: true}
	if err := d.decode(push); err != nil {
		d.loan.Release()
		return nil, err
	}
	return d.loan, nil
}

// Release returns the loan's storage for the next Lend.
func (l *Loan) Release() {
	if l == nil {
		return
	}
	loansOut.Add(-1)
	loanPool.Put(l)
}

// decode reads one flat message into v.
func (d *flatDec) decode(v interface{}) error {
	hdr := d.scratch[:flatHeaderLen]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		return Errorf(CodeInvalidArgument, "flat: truncated header: %v", err)
	}
	if string(hdr[:4]) != flatMagic {
		return Errorf(CodeInvalidArgument, "flat: bad magic %q", hdr[:4])
	}
	if hdr[4] != flatVersion {
		return Errorf(CodeInvalidArgument, "flat: unsupported version %d", hdr[4])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Errorf(CodeInvalidArgument, "flat: nonzero reserved bytes")
	}
	kind := hdr[5]
	switch m := v.(type) {
	case *TaskResponse:
		if kind == flatKindTaskResponse {
			return d.taskResponse(m)
		}
	case *GradientPush:
		if kind == flatKindPush {
			return d.push(m)
		}
	case *TaskRequest:
		if kind == flatKindTaskRequest {
			return d.taskRequest(m)
		}
	case *PushAck:
		if kind == flatKindPushAck {
			return d.pushAck(m)
		}
	case *ModelAnnounce:
		if kind == flatKindAnnounce {
			return d.announce(m)
		}
	case *Stats:
		if kind == flatKindStats {
			return d.stats(m)
		}
	default:
		return Errorf(CodeInvalidArgument, "flat: no layout for %T", v)
	}
	if int(kind) < len(flatKindNames) && flatKindNames[kind] != "" {
		return Errorf(CodeInvalidArgument, "flat: %s frame decoded into %T", flatKindNames[kind], v)
	}
	return Errorf(CodeInvalidArgument, "flat: unknown message kind %d", kind)
}

// The decoders mirror the encoders field for field (Go evaluates the calls
// of a composite literal in source order). Each builds the message aside
// and assigns it only after finish, so a failed decode never leaves a
// partial message behind.

func (d *flatDec) taskResponse(dst *TaskResponse) error {
	out := TaskResponse{
		Accepted:     d.bool(),
		Reason:       d.str(),
		ModelVersion: d.int(),
		Params:       d.f64s(),
		BatchSize:    d.int(),
		ParamsDelta:  d.sparse(),
		DeltaBase:    d.int(),
		ServerEpoch:  d.i64(),
	}
	if err := d.finish(); err != nil {
		return err
	}
	*dst = out
	return nil
}

func (d *flatDec) push(dst *GradientPush) error {
	out := GradientPush{
		WorkerID:       d.int(),
		DeviceModel:    d.str(),
		ModelVersion:   d.int(),
		ModelEpoch:     d.i64(),
		Gradient:       d.lentF64s(0),
		GradientLen:    d.int(),
		SparseIndices:  d.lentI32s(),
		SparseValues:   d.lentF64s(1),
		SparseF16:      d.u16s(),
		SparseQ8Levels: d.u8s(),
		SparseQ8Min:    d.f64(),
		SparseQ8Max:    d.f64(),
		Encoding:       d.str(),
		BatchSize:      d.int(),
		LabelCounts:    d.ints(),
		CompTimeSec:    d.f64(),
		EnergyPct:      d.f64(),
		TimeFeatures:   d.f64s(),
		EnergyFeatures: d.f64s(),
		Contributing:   d.int(),
	}
	if err := d.finish(); err != nil {
		return err
	}
	*dst = out
	return nil
}

func (d *flatDec) taskRequest(dst *TaskRequest) error {
	out := TaskRequest{
		WorkerID:       d.int(),
		DeviceModel:    d.str(),
		TimeFeatures:   d.f64s(),
		EnergyFeatures: d.f64s(),
		LabelCounts:    d.ints(),
		KnownVersion:   d.int(),
		WantDelta:      d.bool(),
		KnownEpoch:     d.i64(),
	}
	if err := d.finish(); err != nil {
		return err
	}
	*dst = out
	return nil
}

func (d *flatDec) pushAck(dst *PushAck) error {
	out := PushAck{
		Applied:    d.bool(),
		Staleness:  d.int(),
		Scale:      d.f64(),
		NewVersion: d.int(),
	}
	if err := d.finish(); err != nil {
		return err
	}
	*dst = out
	return nil
}

func (d *flatDec) announce(dst *ModelAnnounce) error {
	out := ModelAnnounce{
		ModelVersion: d.int(),
		ServerEpoch:  d.i64(),
		Delta:        d.sparse(),
		DeltaBase:    d.int(),
	}
	if err := d.finish(); err != nil {
		return err
	}
	*dst = out
	return nil
}

// stats reads kind 7: the rest of the message, charged against the decode
// budget, must be a Stats document exactly as encodeStats writes it. One
// that json.Unmarshal accepts but that does not re-marshal to the same
// bytes (whitespace, reordered or unknown keys) is refused, so a decoded
// document is canonical like every other kind.
func (d *flatDec) stats(dst *Stats) error {
	doc, err := io.ReadAll(io.LimitReader(d.r, d.budget+1))
	if err != nil {
		return Errorf(CodeInvalidArgument, "flat: truncated message: %v", err)
	}
	if int64(len(doc)) > d.budget {
		return Errorf(CodePayloadTooLarge, "flat: message exceeds %d bytes", MaxMessageBytes)
	}
	var out Stats
	if err := json.Unmarshal(doc, &out); err != nil {
		return Errorf(CodeInvalidArgument, "flat: stats: %v", err)
	}
	if again, _ := json.Marshal(&out); !bytes.Equal(again, doc) {
		return Errorf(CodeInvalidArgument, "flat: stats document is not canonical encoding/json")
	}
	*dst = out
	return nil
}
