// Package core runs FLeet's evaluation loops on the serving core. A Driver
// is a server.Server (internal/ingest's Figure-2 loop: admission chain,
// staleness gate, update pipeline, label absorption, K-window, model update)
// with a ring of its published snapshots, so a caller decides how stale each
// gradient is and the server does everything else, exactly as it does for a
// worker on the wire. Three runs are built on it:
//
//   - RunAsync: controlled staleness, the paper's evaluation method (§3.2) —
//     every gradient is computed against a past snapshot whose age is drawn
//     from a configurable distribution, so algorithm comparisons are precise
//     and bit-for-bit reproducible;
//   - RunTrace: staleness that emerges from simulated devices and networks;
//   - RunSyncMixed: synchronous rounds of strong and weak workers (Figure 3).
package core

import (
	"context"

	"fleet/internal/data"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// Driver is a parameter server with the two things a controlled-staleness
// run needs around it: a ring of the snapshots the server has published,
// and one worker network that computes a gradient against any of them. The
// staleness gate, the update pipeline, label absorption, the K-window and
// the model update are the server's (internal/ingest); the driver only
// decides which past version a gradient is computed on — §3.2's method —
// and pushes it with that version as its base. One goroutine drives it.
type Driver struct {
	// Transform, when non-nil, rewrites each computed gradient before it
	// is pushed: how the Byzantine experiment models adversarial workers.
	Transform func(workerID int, grad []float64) []float64

	srv *server.Server
	net *nn.Network
	// ring[v%len(ring)] is the parameter vector the server published as
	// version v, for the len(ring) most recent versions.
	ring    [][]float64
	version int
}

// NewDriver builds the server and retains its last snapCap snapshots, so a
// push can be up to snapCap−1 versions stale. cfg is the server's own
// configuration (pipeline, admission chain, K, γ); a configuration the
// server refuses is a bug in the caller and panics.
func NewDriver(cfg server.Config, snapCap int) *Driver {
	// The driver keeps whole snapshots and never pulls a delta, so the
	// server need not keep a delta history beside them.
	cfg.DeltaHistory = -1
	srv, err := server.New(cfg)
	if err != nil {
		panic("core: " + err.Error())
	}
	d := &Driver{srv: srv, net: cfg.Arch.Build(simrand.New(cfg.Seed)), ring: make([][]float64, snapCap)}
	d.ring[0], _ = srv.Model()
	return d
}

// Version returns the server's model version.
func (d *Driver) Version() int { return d.version }

// Push computes workerID's gradient over batch against the snapshot tau
// versions back (clamped to the oldest one retained) and pushes it with
// that version as its base, so the server measures staleness tau. The ack
// carries what the server did with it: the staleness it saw, the scale it
// applied, and the version after the push.
func (d *Driver) Push(workerID, tau int, batch []nn.Sample) *protocol.PushAck {
	tau = min(tau, d.version, len(d.ring)-1)
	base := d.version - tau
	d.net.SetParams(d.ring[base%len(d.ring)])
	grad, _ := d.net.Gradient(batch)
	if d.Transform != nil {
		grad = d.Transform(workerID, grad)
	}
	ack, err := d.srv.PushGradient(context.TODO(), &protocol.GradientPush{
		WorkerID: workerID, ModelVersion: base, Gradient: grad,
		BatchSize: len(batch), LabelCounts: data.LabelCounts(batch, d.net.Classes),
	})
	if err != nil {
		panic("core: " + err.Error())
	}
	if ack.NewVersion > d.version {
		d.version = ack.NewVersion
		d.ring[d.version%len(d.ring)], _ = d.srv.Model()
	}
	return ack
}

// Evaluate loads the served model into the worker network and returns its
// test accuracy; the network keeps those parameters until the next Push.
func (d *Driver) Evaluate(test []nn.Sample) float64 { return d.srv.Evaluate(d.net, test) }
