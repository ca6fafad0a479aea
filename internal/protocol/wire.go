package protocol

import "sync/atomic"

// WireCounter tallies bytes crossing a transport boundary, split by
// direction from the worker's point of view (uplink = worker → server).
// Clients accept an optional *WireCounter; the load harness aggregates one
// counter across a whole fleet. What a count covers is the transport's:
//
//   - worker.Client (HTTP) adds the encoded body of every request it sends
//     and the body of every 200 reply it decodes: message bytes only, no
//     HTTP headers and no error replies.
//   - stream.Client adds every frame it writes or reads with its 12-byte
//     frame header: requests, replies and announces, and the control frames
//     too (hello, welcome, heartbeats, goaway, errors).
//
// Neither counts TCP or TLS overhead. All methods are safe for concurrent
// use and no-ops on a nil receiver.
type WireCounter struct {
	up   atomic.Int64
	down atomic.Int64
}

// AddUplink records n worker→server payload bytes.
func (c *WireCounter) AddUplink(n int64) {
	if c != nil {
		c.up.Add(n)
	}
}

// AddDownlink records n server→worker payload bytes.
func (c *WireCounter) AddDownlink(n int64) {
	if c != nil {
		c.down.Add(n)
	}
}

// Uplink returns the total worker→server payload bytes recorded.
func (c *WireCounter) Uplink() int64 {
	if c == nil {
		return 0
	}
	return c.up.Load()
}

// Downlink returns the total server→worker payload bytes recorded.
func (c *WireCounter) Downlink() int64 {
	if c == nil {
		return 0
	}
	return c.down.Load()
}
