// fleet-agg runs a FLeet edge aggregator: a hierarchical-aggregation tier
// node that serves the full worker protocol to leaf workers, fans their
// gradients into a local update pipeline, and forwards ONE aggregated
// direction per K-window upstream — to the root parameter server, or to
// another edge (tiers stack).
//
// Usage:
//
//	fleet-agg -upstream http://root:8080 -addr :8090 -arch tiny-mnist -k 8
//
// Leaf workers point at the edge exactly as they would at the root — same
// routes, same transports, same resync protocol:
//
//	fleet-worker -server http://edge:8090 -arch tiny-mnist
//
// The edge's pipeline and admission chain compose from the same spec tables
// as the server's:
//
//	fleet-agg -k 8 -aggregator 'trimmed(1)' -stages staleness -admission 'min-batch(5)'
//
// With -upstream-transport stream the edge holds a persistent session to
// the upstream and absorbs server-pushed model announces without pull
// round trips; with -transport stream|both it pushes its own relay
// announces to subscribed leaves the same way.
//
// On SIGINT/SIGTERM the edge drains gracefully: listeners stop accepting,
// in-flight leaf pushes commit, stream sessions get a goaway frame, and a
// partial aggregation window is flushed upstream so no acked leaf gradient
// is stranded. The flags bind one-to-one onto a node.Spec; assembly and
// the drain/flush lifecycle live in internal/node, shared with
// fleet-server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fleet/internal/node"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt, err := buildAgg(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0) // -h: usage already printed, a successful exit
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The runtime syncs with the upstream before the listeners bind (an
	// edge that cannot reach its upstream refuses to serve leaves a model
	// it does not have), then owns the canonical teardown: stream goaway,
	// HTTP shutdown, partial-window flush upstream, upstream close —
	// bounded by the drain deadline.
	os.Exit(rt.Run(ctx, nil))
}

// buildAgg binds the flags onto an edge node.Spec and compiles it: the
// local update pipeline, admission chain and upstream client all assemble
// in internal/node through the same spec tables as fleet-server.
func buildAgg(args []string, stderr io.Writer) (*node.Runtime, error) {
	fs := flag.NewFlagSet("fleet-agg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := node.Spec{Role: node.RoleEdge, Name: "fleet-agg"}
	fs.StringVar(&spec.Upstream.Target, "upstream", "", "upstream base URL (http transport, e.g. http://root:8080) or host:port (stream transport)")
	fs.StringVar(&spec.Upstream.Transport, "upstream-transport", "http", `upstream transport: "http" (per-request) or "stream" (persistent session absorbing server-pushed model announces)`)
	fs.StringVar(&spec.Bind.Addr, "addr", ":8090", "leaf-facing HTTP listen address")
	fs.StringVar(&spec.Bind.Transport, "transport", "http", `leaf-facing transports: "http", "stream" or "both"`)
	fs.StringVar(&spec.Bind.StreamAddr, "stream-addr", ":8091", "leaf-facing stream listen address (with -transport stream|both)")
	fs.StringVar(&spec.Arch, "arch", "tiny-mnist", "model architecture (must match the upstream's)")
	fs.IntVar(&spec.K, "k", 4, "leaf gradients aggregated per upstream push (the edge window)")
	fs.Float64Var(&spec.NonStragglerPct, "s-pct", 99.7, "AdaSGD non-straggler percentage for the local staleness stage")
	fs.StringVar(&spec.Stages, "stages", "staleness", "comma-separated local update-pipeline stage specs")
	fs.StringVar(&spec.Aggregator, "aggregator", "mean", "local window-aggregation rule spec (mean, median, trimmed(b), krum(f))")
	fs.StringVar(&spec.Admission, "admission", "", "local admission-policy chain spec (e.g. min-batch(5),similarity(0.9)); empty admits everything")
	fs.IntVar(&spec.DefaultBatchSize, "batch-size", 100, "mini-batch size served to admitted leaf tasks")
	fs.IntVar(&spec.DeltaHistory, "delta-history", 4, "upstream versions retained as sparse deltas for version-aware leaf pulls (negative disables)")
	fs.IntVar(&spec.ID, "id", 1_000_000, "worker ID this edge identifies as upstream")
	fs.Int64Var(&spec.Seed, "seed", 1, "pipeline stage seed (DP noise etc.)")
	fs.DurationVar(&spec.Bind.Drain, "drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
	fs.BoolVar(&spec.Verbose, "verbose", false, "log every request")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	return node.FromSpec(spec)
}
