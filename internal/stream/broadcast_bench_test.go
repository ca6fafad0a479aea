package stream

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fleet/internal/compress"
	"fleet/internal/protocol"
)

// countConn is a sink net.Conn that tallies frames written, so a benchmark
// can wait for every announce to clear the session writers without a real
// network. writeFrame issues two Writes per frame (header, payload).
type countConn struct {
	writes *atomic.Int64
}

func (c countConn) Read(b []byte) (int, error)       { return 0, errSessionClosed }
func (c countConn) Write(b []byte) (int, error)      { c.writes.Add(1); return len(b), nil }
func (c countConn) Close() error                     { return nil }
func (c countConn) LocalAddr() net.Addr              { return nil }
func (c countConn) RemoteAddr() net.Addr             { return nil }
func (c countConn) SetDeadline(time.Time) error      { return nil }
func (c countConn) SetReadDeadline(time.Time) error  { return nil }
func (c countConn) SetWriteDeadline(time.Time) error { return nil }

// benchAnnounce is a realistic drain announce: a 256-entry sparse delta of
// a 10k-parameter model, the kind of payload whose encode is the dominant
// broadcast cost.
func benchAnnounce() protocol.ModelAnnounce {
	delta := &compress.Sparse{Len: 10000}
	for i := 0; i < 256; i++ {
		delta.Indices = append(delta.Indices, int32(i*37))
		delta.Values = append(delta.Values, float64(i)*1e-3)
	}
	return protocol.ModelAnnounce{ModelVersion: 2, DeltaBase: 1, Delta: delta}
}

// benchFleet registers n subscribed sessions (all on the default codec)
// with running announce loops on a fresh server.
func benchFleet(b *testing.B, n int) (*Server, *atomic.Int64) {
	b.Helper()
	s := NewServer(nil, Options{})
	writes := new(atomic.Int64)
	sessions := make([]*session, 0, n)
	for i := 0; i < n; i++ {
		sess := &session{
			srv:       s,
			conn:      countConn{writes: writes},
			codec:     protocol.Default,
			workerID:  i,
			subscribe: true,
			annReady:  make(chan struct{}, 1),
			done:      make(chan struct{}),
		}
		s.sessions[sess] = struct{}{}
		sessions = append(sessions, sess)
		go sess.announceLoop()
	}
	b.Cleanup(func() {
		for _, sess := range sessions {
			sess.close()
		}
	})
	return s, writes
}

func waitWrites(writes *atomic.Int64, want int64) {
	for writes.Load() < want {
		runtime.Gosched()
	}
}

// BenchmarkBroadcast times one fan-out at 100 sessions: Broadcast encodes
// the announce once per negotiated codec, enqueues the shared bytes on
// every session, and one op ends when every frame is flushed.
func BenchmarkBroadcast(b *testing.B) {
	const fleet = 100
	ann := benchAnnounce()
	s, writes := benchFleet(b, fleet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Broadcast(ann)
		waitWrites(writes, int64(i+1)*fleet*2)
	}
}
