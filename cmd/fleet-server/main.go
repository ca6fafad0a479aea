// fleet-server runs a standalone FLeet parameter server speaking the
// Figure-2 protocol over HTTP.
//
// Usage:
//
//	fleet-server -addr :8080 -arch tiny-mnist -lr 0.05 -time-slo 3
//
// The update pipeline is composable from the command line, e.g. a
// Byzantine-resilient deployment with DP noise and a norm filter:
//
//	fleet-server -k 5 -aggregator 'krum(1)' -stages 'staleness,norm-filter(100),dp(1,0.5)'
//
// (The norm filter comes before dp: clipping bounds every norm, so a
// filter placed after it could never fire.)
//
// Task admission is composable the same way: -admission takes a policy
// chain spec evaluated in order, e.g.
//
//	fleet-server -admission 'iprof-time(3),min-batch(5),similarity(0.9),per-worker-quota(30,60)'
//
// When -admission is empty the chain is synthesized from the individual
// knobs (-time-slo, -energy-slo, -min-batch, -max-similarity), which all
// route through the same spec table; a non-empty -admission takes
// precedence over all four, and alone decides which I-Prof profilers are
// pretrained.
//
// On SIGINT/SIGTERM the server drains gracefully: the listener stops
// accepting, in-flight pushes commit, and the process exits once idle or
// after the -drain deadline.
//
// Crash safety: with -checkpoint-dir the server writes atomic, checksummed
// checkpoints of everything it has learned (model+clock, AdaSGD staleness
// history, LD_global, I-Prof models) every -checkpoint-every aggregation
// windows and at graceful shutdown, and boots from the latest valid one:
//
//	fleet-server -checkpoint-dir /var/lib/fleet -checkpoint-every 8
//
// A first boot has no checkpoint; that must be said out loud rather than
// silently losing state, so -checkpoint-recover=fresh is required to
// initialize a new model (the default, "latest", refuses to start). After
// a hard kill (SIGKILL, OOM, node loss) simply restart with the same
// -checkpoint-dir: the server restores the newest durable state as a new
// incarnation and live workers resync on their own (see internal/worker).
//
// Multi-tenant mode: -tenants names a JSON file declaring the fleet, an
// array with one object per tenant keyed as tenant.Config's JSON tags (an
// unknown key is refused, naming it), checked whole before any unit boots.
// Each tenant keeps its checkpoints under <checkpoint-dir>/<name> and boots
// by the rule above, and -mint-token prints a worker's bearer token from
// the same file:
//
//	fleet-server -tenants tenants.json -default-tenant analytics
//	fleet-server -tenants tenants.json -mint-token ads:7
//
// The flags bind one-to-one onto a node.Spec; assembly and the
// drain/checkpoint/flush lifecycle live in internal/node, shared with
// fleet-agg and the loadgen harness.
//
// Workers (cmd/fleet-worker) connect with matching -arch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fleet/internal/node"
	"fleet/internal/tenant"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt, printOnly, err := buildServer(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0) // -h: usage already printed, a successful exit
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if rt == nil {
		fmt.Print(printOnly)
		os.Exit(0)
	}
	// The runtime owns the canonical teardown — pre-drain checkpoint,
	// stream goaway, HTTP shutdown, final checkpoint, close — bounded by
	// the drain deadline.
	os.Exit(rt.Run(ctx, nil))
}

// mintTenantToken resolves the -mint-token operator utility: spec is
// "tenant:workerID", minted against that tenant's declared secret.
func mintTenantToken(cfgs []tenant.Config, spec string) (string, error) {
	name, idStr, ok := strings.Cut(spec, ":")
	if !ok {
		return "", fmt.Errorf("-mint-token wants tenant:workerID, got %q", spec)
	}
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 {
		return "", fmt.Errorf("-mint-token %q: worker id must be a non-negative integer", spec)
	}
	for _, c := range cfgs {
		if c.Name != name {
			continue
		}
		if c.Secret == "" {
			return "", fmt.Errorf("tenant %s declares no secret; it does not authenticate workers", name)
		}
		return tenant.MintToken([]byte(c.Secret), name, id) + "\n", nil
	}
	return "", fmt.Errorf("no tenant %q declared", name)
}

// buildServer binds the flags onto a node.Spec and compiles it:
// architecture, update pipeline, I-Prof profilers, admission chain and
// interceptor stack all assemble in internal/node through the shared spec
// tables. An operator utility (-mint-token) compiles nothing: it
// returns a nil Runtime and the text main prints before exiting 0.
func buildServer(args []string, stderr io.Writer) (rt *node.Runtime, printOnly string, err error) {
	fs := flag.NewFlagSet("fleet-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := node.Spec{Role: node.RoleRoot, Name: "fleet-server"}
	fs.StringVar(&spec.Bind.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&spec.Arch, "arch", "", "model architecture (empty: tiny-mnist)")
	fs.Float64Var(&spec.LearningRate, "lr", 0, "learning rate (0: 0.03)")
	fs.IntVar(&spec.K, "k", 1, "gradients aggregated per model update")
	fs.Float64Var(&spec.NonStragglerPct, "s-pct", 0, "AdaSGD non-straggler percentage (0: 99.7)")
	fs.Float64Var(&spec.TimeSLO, "time-slo", 3.0, "computation-time SLO in seconds (0 disables)")
	fs.Float64Var(&spec.EnergySLO, "energy-slo", 0, "energy SLO in %battery (0 disables)")
	fs.IntVar(&spec.MinBatch, "min-batch", 0, "controller mini-batch size threshold (0 disables); spells min-batch(n) when -admission is empty")
	fs.Float64Var(&spec.MaxSimilarity, "max-similarity", 0, "controller similarity threshold (0 disables); spells similarity(max) when -admission is empty")
	fs.StringVar(&spec.Admission, "admission", "", "admission-policy chain spec (e.g. iprof-time(3),min-batch(5),similarity(0.9)); empty synthesizes the chain from -time-slo/-energy-slo/-min-batch/-max-similarity")
	fs.Int64Var(&spec.Seed, "seed", 1, "model initialization seed")
	fs.StringVar(&spec.Stages, "stages", "", "comma-separated update-pipeline stage specs (e.g. staleness,norm-filter(100),dp(1,0.5)); empty: staleness")
	fs.StringVar(&spec.Aggregator, "aggregator", "", "window-aggregation rule spec (mean, median, trimmed(b), krum(f)); empty: mean")
	fs.Float64Var(&spec.RateLimit, "rate-limit", 0, "per-worker request rate limit in req/s (0 disables)")
	fs.IntVar(&spec.RateBurst, "rate-burst", 10, "per-worker rate-limit burst")
	fs.DurationVar(&spec.Deadline, "deadline", 0, "per-request server-side deadline (0 disables)")
	fs.DurationVar(&spec.Bind.Drain, "drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
	fs.StringVar(&spec.Bind.Transport, "transport", "http", `served transports: "http" (per-request v1 wire protocol), "stream" (persistent sessions with server-pushed model announces) or "both"`)
	fs.StringVar(&spec.Bind.StreamAddr, "stream-addr", ":8081", "stream-transport listen address (with -transport stream|both)")
	fs.BoolVar(&spec.Verbose, "verbose", false, "log every request")

	fs.StringVar(&spec.Checkpoint.Dir, "checkpoint-dir", "", "durable checkpoint directory; empty disables crash safety")
	fs.StringVar(&spec.Checkpoint.NonceDir, "boot-nonce-dir", "", "directory persisting the boot counter every boot, fresh or restored, draws its incarnation epoch from (default: -checkpoint-dir; empty with no -checkpoint-dir: every boot is epoch 0)")
	fs.IntVar(&spec.Checkpoint.Every, "checkpoint-every", 8, "periodic checkpoint cadence in aggregation windows (0: only at graceful shutdown)")
	fs.IntVar(&spec.Checkpoint.Keep, "checkpoint-keep", 3, "checkpoint files retained in -checkpoint-dir")
	fs.StringVar(&spec.Checkpoint.Recover, "checkpoint-recover", "latest", `startup policy with -checkpoint-dir: "latest" restores the newest valid checkpoint and refuses to boot without one; "fresh" additionally allows initializing a new model when the directory holds no checkpoint at all (corruption still refuses). With -tenants it applies to every unit's <dir>/<name>`)

	tenantsFile := fs.String("tenants", "", "JSON file declaring the tenant fleet (an array of tenant configs, unknown keys refused); switches the server to multi-tenant mode")
	fs.StringVar(&spec.DefaultTenant, "default-tenant", "", "tenant that un-tenanted routes alias to (default: the first declared tenant); needs -tenants")
	mintToken := fs.String("mint-token", "", "mint the bearer token for tenant:workerID against the secret the -tenants file declares for it, print it and exit (operator utility)")
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if fs.NArg() > 0 {
		return nil, "", fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *tenantsFile != "" {
		if spec.Tenants, err = tenant.LoadFile(*tenantsFile); err != nil {
			return nil, "", err
		}
	}
	if *mintToken != "" {
		// Mint only against a declaration the server would boot.
		if err := tenant.Validate(spec.Tenants, spec.DefaultTenant); err != nil {
			return nil, "", fmt.Errorf("-mint-token mints against the -tenants file's declaration: %w", err)
		}
		printOnly, err = mintTenantToken(spec.Tenants, *mintToken)
		return nil, printOnly, err
	}
	rt, err = node.FromSpec(spec)
	return rt, "", err
}
