package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"fleet/internal/protocol"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{typ: fPush, corr: 42, payload: []byte("gradient bytes")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.typ != in.typ || out.corr != in.corr || !bytes.Equal(out.payload, in.payload) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	// Empty payload too.
	buf.Reset()
	if err := writeFrame(&buf, frame{typ: fPing, corr: 0}); err != nil {
		t.Fatal(err)
	}
	if out, err = readFrame(&buf); err != nil || out.typ != fPing || len(out.payload) != 0 {
		t.Fatalf("empty frame: %+v, %v", out, err)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(nil)); err != errSessionClosed {
		t.Fatalf("clean EOF: %v, want errSessionClosed", err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	raw := make([]byte, headerSize)
	binary.BigEndian.PutUint16(raw[0:2], 0xDEAD)
	_, err := readFrame(bytes.NewReader(raw))
	if !protocol.IsCode(err, protocol.CodeInvalidArgument) {
		t.Fatalf("bad magic: %v, want invalid_argument", err)
	}
}

func TestReadFrameReservedFlags(t *testing.T) {
	raw := make([]byte, headerSize)
	binary.BigEndian.PutUint16(raw[0:2], frameMagic)
	raw[2] = byte(fPing)
	raw[3] = 0x80
	_, err := readFrame(bytes.NewReader(raw))
	if !protocol.IsCode(err, protocol.CodeInvalidArgument) {
		t.Fatalf("reserved flags: %v, want invalid_argument", err)
	}
}

// TestReadFrameOversized: a hostile length prefix is rejected before any
// payload allocation, with a structured error.
func TestReadFrameOversized(t *testing.T) {
	raw := make([]byte, headerSize)
	binary.BigEndian.PutUint16(raw[0:2], frameMagic)
	raw[2] = byte(fPush)
	binary.BigEndian.PutUint32(raw[8:12], uint32(protocol.MaxMessageBytes+1))
	_, err := readFrame(bytes.NewReader(raw))
	if !protocol.IsCode(err, protocol.CodePayloadTooLarge) {
		t.Fatalf("oversized: %v, want payload_too_large", err)
	}
}

func TestWriteFrameOversized(t *testing.T) {
	old := protocol.MaxMessageBytes
	protocol.MaxMessageBytes = 16
	defer func() { protocol.MaxMessageBytes = old }()
	err := writeFrame(io.Discard, frame{typ: fPush, payload: make([]byte, 17)})
	if !protocol.IsCode(err, protocol.CodePayloadTooLarge) {
		t.Fatalf("oversized write: %v, want payload_too_large", err)
	}
}

// TestReadFrameTruncated: EOF mid-header and mid-payload both surface as
// structured errors, never io.ErrUnexpectedEOF leaking through or a hang.
func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{typ: fPush, corr: 7, payload: []byte("0123456789")}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, headerSize - 1, headerSize + 3, len(whole) - 1} {
		_, err := readFrame(bytes.NewReader(whole[:cut]))
		if !protocol.IsCode(err, protocol.CodeUnavailable) {
			t.Fatalf("truncated at %d: %v, want unavailable", cut, err)
		}
	}
}

// FuzzStreamFrameRead reads a byte stream as a session's frame loop does —
// readHeader, then readPayload into a payload buffer recycled frame after
// frame (payloadBufs) — and requires exactly what a reader allocating every
// payload afresh (readFrame) sees: the same frames, each payload its
// declared length and bytes (never a previous frame's tail), and the same
// error ending the stream, structured or the clean end of the session.
func FuzzStreamFrameRead(f *testing.F) {
	// Keep a hostile length prefix from costing protocol.MaxMessageBytes per
	// exec; the check-before-allocate logic is the same at any cap.
	old := protocol.MaxMessageBytes
	protocol.MaxMessageBytes = 1 << 16
	f.Cleanup(func() { protocol.MaxMessageBytes = old })
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, recycled := bytes.NewReader(data), bytes.NewReader(data)
		for {
			want, wantErr := readFrame(fresh)
			buf := payloadBufs.Get().(*[]byte)
			got, n, err := readHeader(recycled)
			if err == nil {
				got.payload, err = readPayload(recycled, got.typ, n, *buf)
			}
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("recycled read: %v, fresh read: %v", err, wantErr)
			}
			if err != nil {
				payloadBufs.Put(buf)
				var pe *protocol.Error
				if !errors.As(err, &pe) && err != errSessionClosed {
					t.Fatalf("unstructured read error %v", err)
				}
				return
			}
			if got.typ != want.typ || got.corr != want.corr || int64(len(got.payload)) != n || !bytes.Equal(got.payload, want.payload) {
				t.Fatalf("recycled read %s/%d/%x, fresh read %s/%d/%x", got.typ, got.corr, got.payload, want.typ, want.corr, want.payload)
			}
			recyclePayload(buf, got.payload)
		}
	})
}

// writeCountingConn counts plain Write calls on a TCP connection. It embeds
// the concrete *net.TCPConn rather than the net.Conn interface so the
// connection's vectored-write path stays reachable through the wrapper: a
// frame sent as one writev never shows up as a Write.
type writeCountingConn struct {
	*net.TCPConn
	writes int
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.TCPConn.Write(p)
}

// TestWriteFrameIsOneVectoredWrite: header and payload leave in a single
// writev, not as a 12-byte Write followed by a payload Write (two syscalls
// and two segments on a TCP_NODELAY socket).
func TestWriteFrameIsOneVectoredWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan frame, 2)
	go func() {
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		for i := 0; i < 2; i++ {
			f, err := readFrame(peer)
			if err != nil {
				return
			}
			got <- f
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := &writeCountingConn{TCPConn: raw.(*net.TCPConn)}

	sent := []frame{
		{typ: fPush, corr: 7, payload: bytes.Repeat([]byte("g"), 4096)},
		{typ: fPing},
	}
	for _, f := range sent {
		if err := writeFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range sent {
		select {
		case f := <-got:
			if f.typ != want.typ || f.corr != want.corr || !bytes.Equal(f.payload, want.payload) {
				t.Fatalf("peer read %s/%d/%d bytes, want %s/%d/%d", f.typ, f.corr, len(f.payload), want.typ, want.corr, len(want.payload))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("peer never received the frame")
		}
	}
	if conn.writes != 0 {
		t.Fatalf("%d plain Write calls for %d frames, want every frame in one writev", conn.writes, len(sent))
	}
}
