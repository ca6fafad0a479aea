// Package stream is FLeet's persistent-session transport: length-prefixed
// binary frames over one long-lived TCP connection per worker, multiplexing
// task requests, gradient pushes and acks by correlation ID, with
// server-pushed model announcements at drain time (see protocol.ModelAnnounce).
//
// It exists because the HTTP/1 request/response transport pays connection
// setup on every poll at fleet scale and has no way to tell a worker that
// the model it holds just went stale. The stream transport holds one
// session per worker — opened once, kept alive by heartbeats — and the
// server broadcasts {version, epoch, sparse-delta} announcements to every
// subscribed session the moment a window drain publishes a new snapshot.
//
// Payloads reuse the internal/protocol codecs (flat by default, JSON by
// negotiation), so the learning messages are byte-identical to the HTTP
// transport's bodies; only the envelope differs.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"fleet/internal/protocol"
)

// Frame layout: a fixed 12-byte big-endian header followed by the payload.
//
//	offset  size  field
//	0       2     magic 0xF1E7 (sanity check: catches a peer that is not
//	              speaking the stream protocol, or a desynchronized stream)
//	2       1     frame type
//	3       1     flags (reserved, must be 0)
//	4       4     correlation ID (0 for unsolicited frames: announces,
//	              pings, goaway)
//	8       4     payload length in bytes
//
// Request/response pairs share a correlation ID chosen by the requester;
// IDs are per-session and may wrap. Payloads are encoded with the session
// codec negotiated at hello, except the session-control frames (hello,
// welcome, error, goaway), which are always JSON — they must be readable
// before/without negotiation.
const (
	frameMagic uint16 = 0xF1E7
	headerSize        = 12
)

// frameType discriminates the multiplexed frame kinds.
type frameType uint8

const (
	// fHello is the client's first frame: JSON helloPayload announcing the
	// worker ID, requested content type and announce subscription.
	fHello frameType = iota + 1
	// fWelcome is the server's JSON reply completing session setup.
	fWelcome
	// fTask carries a protocol.TaskRequest; fTaskResp its TaskResponse.
	fTask
	fTaskResp
	// fPush carries a protocol.GradientPush; fPushAck its PushAck.
	fPush
	fPushAck
	// fStats requests the diagnostic snapshot (empty payload); fStatsResp
	// carries the protocol.Stats.
	fStats
	fStatsResp
	// fError answers any request with a JSON protocol.Error payload.
	fError
	// fAnnounce is the unsolicited server→client model announcement
	// (protocol.ModelAnnounce in the session codec).
	fAnnounce
	// fPing/fPong is the heartbeat; the payload is echoed back.
	fPing
	fPong
	// fGoAway tells the peer the sender is going away (JSON goAwayPayload);
	// in-flight requests still complete, new ones must not be sent.
	fGoAway
)

func (t frameType) String() string {
	switch t {
	case fHello:
		return "hello"
	case fWelcome:
		return "welcome"
	case fTask:
		return "task"
	case fTaskResp:
		return "task_resp"
	case fPush:
		return "push"
	case fPushAck:
		return "push_ack"
	case fStats:
		return "stats"
	case fStatsResp:
		return "stats_resp"
	case fError:
		return "error"
	case fAnnounce:
		return "announce"
	case fPing:
		return "ping"
	case fPong:
		return "pong"
	case fGoAway:
		return "goaway"
	}
	return fmt.Sprintf("frame_type_%d", uint8(t))
}

// frame is one decoded frame.
type frame struct {
	typ     frameType
	corr    uint32
	payload []byte
}

// frameOut assembles one outbound frame and sends it as a single vectored
// write: on a TCP connection (TCP_NODELAY) one writev — one syscall, one
// segment for a small frame. It is the io.Writer a codec encodes the payload
// into, a protocol.Segments: copied bytes go into its own storage, slices
// handed over by reference (the model behind a full pull, a pushed
// gradient) go out from where they lie, so the payload is never copied
// behind the header. Everything a send needs is inline, and the value is
// pooled.
type frameOut struct {
	hdr [headerSize]byte
	protocol.Segments
	nb net.Buffers
}

// framePoolMaxBytes bounds the payload buffers the stream pools keep: a
// request frame's (Server), a read loop's scratch (clientSession).
const framePoolMaxBytes = 1 << 20

var framePool = sync.Pool{New: func() interface{} { return new(frameOut) }}

func newFrameOut() *frameOut { return framePool.Get().(*frameOut) }

// writeTo sends the frame. Callers serialize writes per connection.
func (o *frameOut) writeTo(w io.Writer, typ frameType, corr uint32) error {
	if int64(o.Len()) > protocol.MaxMessageBytes {
		return protocol.Errorf(protocol.CodePayloadTooLarge,
			"stream: %s frame payload %d bytes exceeds %d", typ, o.Len(), protocol.MaxMessageBytes)
	}
	binary.BigEndian.PutUint16(o.hdr[0:2], frameMagic)
	o.hdr[2] = byte(typ)
	o.hdr[3] = 0
	binary.BigEndian.PutUint32(o.hdr[4:8], corr)
	binary.BigEndian.PutUint32(o.hdr[8:12], uint32(o.Len()))
	o.nb = o.Buffers(o.hdr[:])
	if _, err := o.nb.WriteTo(w); err != nil {
		return fmt.Errorf("stream: write %s frame: %w", typ, err)
	}
	return nil
}

// release returns o to the pool, dropping every reference to shared storage.
func (o *frameOut) release() {
	o.Reset()
	o.nb = nil
	framePool.Put(o)
}

// writeFrame writes one frame whose payload is already encoded; the payload
// is not retained past the call.
func writeFrame(w io.Writer, f frame) error {
	o := newFrameOut()
	defer o.release()
	_, _ = o.WriteShared(f.payload) // never fails
	return o.writeTo(w, f.typ, f.corr)
}

// errSessionClosed marks a clean end of stream: the peer closed the
// connection on a frame boundary. Everything else readFrame returns is a
// protocol violation or transport failure.
var errSessionClosed = errors.New("stream: session closed")

// readFrame reads one frame. Malformed input — wrong magic, reserved flag
// bits, oversized length prefix, or EOF mid-frame — returns a structured
// *protocol.Error; the connection is then unusable (the stream may be
// desynchronized) and must be closed by the caller. A clean EOF on the
// frame boundary returns errSessionClosed. Reads never hang beyond the
// connection's read deadline, which the session loops arm before each call.
func readFrame(r io.Reader) (frame, error) {
	f, n, err := readHeader(r)
	if err == nil {
		f.payload, err = readPayload(r, f.typ, n, nil)
	}
	if err != nil {
		return frame{}, err
	}
	return f, nil
}

// readHeader reads and checks one frame header: the frame without its
// payload, and the payload's length, which the caller must consume from r
// before the next header.
func readHeader(r io.Reader) (frame, int64, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return frame{}, 0, errSessionClosed
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return frame{}, 0, protocol.Errorf(protocol.CodeUnavailable,
				"stream: connection closed mid-header")
		}
		return frame{}, 0, readErr("frame header", err)
	}
	if magic := binary.BigEndian.Uint16(hdr[0:2]); magic != frameMagic {
		return frame{}, 0, protocol.Errorf(protocol.CodeInvalidArgument,
			"stream: bad frame magic 0x%04x (not a fleet stream, or desynchronized)", magic)
	}
	if hdr[3] != 0 {
		return frame{}, 0, protocol.Errorf(protocol.CodeInvalidArgument,
			"stream: reserved flag bits 0x%02x set", hdr[3])
	}
	f := frame{
		typ:  frameType(hdr[2]),
		corr: binary.BigEndian.Uint32(hdr[4:8]),
	}
	n := int64(binary.BigEndian.Uint32(hdr[8:12]))
	// Refused before any payload byte is read: a hostile length prefix
	// cannot make a peer allocate.
	if n > protocol.MaxMessageBytes {
		return frame{}, 0, protocol.Errorf(protocol.CodePayloadTooLarge,
			"stream: %s frame announces %d-byte payload, limit %d", f.typ, n, protocol.MaxMessageBytes)
	}
	return f, n, nil
}

// readPayload reads the n payload bytes of a typ frame, into buf's storage
// when that is large enough (nil for an empty payload).
func readPayload(r io.Reader, typ frameType, n int64, buf []byte) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, payloadErr(typ, n, err)
	}
	return buf, nil
}

// payloadErr classifies a failure to read a frame's payload.
func payloadErr(typ frameType, n int64, err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return protocol.Errorf(protocol.CodeUnavailable,
			"stream: connection closed mid-payload (%s frame, wanted %d bytes)", typ, n)
	}
	return readErr("frame payload", err)
}

// readErr classifies a transport read failure as a structured error,
// preserving an already-structured cause (e.g. a deadline).
func readErr(what string, err error) error {
	var pe *protocol.Error
	if errors.As(err, &pe) {
		return pe
	}
	return protocol.Errorf(protocol.CodeUnavailable, "stream: read %s: %v", what, err)
}

// helloPayload is the client's session-setup message (always JSON).
type helloPayload struct {
	// WorkerID identifies the worker holding the session.
	WorkerID int `json:"worker_id"`
	// ContentType selects the payload codec for the session, negotiated
	// with protocol.CodecForContentType ("" means protocol.Default, flat).
	ContentType string `json:"content_type,omitempty"`
	// Subscribe asks for model announcements on this session.
	Subscribe bool `json:"subscribe,omitempty"`
	// Tenant names the tenant this session serves on multi-tenant
	// deployments ("" aliases to the default tenant); Token is the bearer
	// token minted for (tenant, worker). Both ride every dispatched call
	// as service.Credentials, so the tenant interceptor validates them
	// exactly like the HTTP transport's header-borne credentials.
	Tenant string `json:"tenant,omitempty"`
	Token  string `json:"token,omitempty"`
}

// welcomePayload is the server's session-setup reply (always JSON).
type welcomePayload struct {
	// ContentType echoes the negotiated codec.
	ContentType string `json:"content_type"`
	// ModelVersion/ServerEpoch snapshot the model clock at session setup,
	// so a subscriber knows the announce floor before the first broadcast.
	ModelVersion int   `json:"model_version"`
	ServerEpoch  int64 `json:"server_epoch,omitempty"`
}

// goAwayPayload explains a graceful session teardown (always JSON).
type goAwayPayload struct {
	Reason string `json:"reason"`
}
