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
// route through the same registry; a non-empty -admission takes
// precedence over -min-batch and -max-similarity.
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
// The flags translate one-to-one into a node.Spec; assembly and the
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
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fleet/internal/node"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/tenant"
)

// stringList is a repeatable string flag (e.g. -tenant a -tenant b).
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	setup, err := buildServer(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0) // -h: usage already printed, a successful exit
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if setup.printOnly != "" {
		fmt.Print(setup.printOnly)
		os.Exit(0)
	}
	os.Exit(serve(ctx, setup, nil))
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

// serverSetup is everything buildServer derives from the command line: the
// composed service plus the serving knobs. serve consumes it, and tests
// construct doctored ones.
type serverSetup struct {
	addr  string
	drain time.Duration
	svc   service.Service
	// transport is which listeners serve: "http", "stream" or "both".
	// streamAddr is the persistent-session listener's address, and announce
	// registers the stream server's broadcast hook on the parameter server
	// (nil when the stream listener is disabled).
	transport  string
	streamAddr string
	announce   func(func(protocol.ModelAnnounce))
	banner     string
	logf       func(format string, args ...interface{})
	// checkpoint writes a durable state snapshot (nil when -checkpoint-dir
	// is unset). The node runtime calls it on SIGINT/SIGTERM before
	// draining, and again after a clean drain so the very last committed
	// pushes are durable too.
	checkpoint func() (string, error)
	// closer flushes and stops background checkpoint writers after the
	// final checkpoint (nil when there is nothing to flush).
	closer func() error
	// handler overrides the HTTP handler (multi-tenant routing); nil serves
	// server.NewHandler(svc).
	handler http.Handler
	// resolver maps a stream hello's tenant name onto its serving unit
	// (multi-tenant); nil serves every session with svc.
	resolver func(tenant string) (service.Service, string, error)
	// announceTenants registers per-tenant snapshot hooks against the
	// stream server's tenant-scoped broadcast (multi-tenant sibling of
	// announce).
	announceTenants func(broadcast func(tenant string, ann protocol.ModelAnnounce))
	// streamReady, when non-nil, receives the stream listener's bound
	// address once it is up (tests bind ":0").
	streamReady chan<- net.Addr
	// printOnly short-circuits serving: main prints it to stdout and exits
	// 0 (operator utilities like -mint-token).
	printOnly string
}

// buildServer parses args into a node.Spec and compiles it: architecture,
// update pipeline, I-Prof profilers, admission chain and interceptor stack
// all assemble in internal/node through the shared spec registries.
func buildServer(args []string, stderr io.Writer) (*serverSetup, error) {
	fs := flag.NewFlagSet("fleet-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		archName   = fs.String("arch", "tiny-mnist", "model architecture")
		lr         = fs.Float64("lr", 0.03, "learning rate")
		k          = fs.Int("k", 1, "gradients aggregated per model update")
		sPct       = fs.Float64("s-pct", 99.7, "AdaSGD non-straggler percentage")
		timeSLO    = fs.Float64("time-slo", 3.0, "computation-time SLO in seconds (0 disables)")
		energySLO  = fs.Float64("energy-slo", 0, "energy SLO in %battery (0 disables)")
		minBatch   = fs.Int("min-batch", 0, "controller mini-batch size threshold (0 disables); routed through the admission registry")
		maxSim     = fs.Float64("max-similarity", 0, "controller similarity threshold (0 disables); routed through the admission registry")
		admission  = fs.String("admission", "", "admission-policy chain spec (e.g. iprof-time(3),min-batch(5),similarity(0.9)); empty synthesizes the chain from -time-slo/-energy-slo/-min-batch/-max-similarity")
		seed       = fs.Int64("seed", 1, "model initialization seed")
		shards     = fs.Int("shards", 1, "gradient accumulator shards (striped locking; 1 = single mutex)")
		stages     = fs.String("stages", "staleness", "comma-separated update-pipeline stage specs (e.g. staleness,norm-filter(100),dp(1,0.5))")
		agg        = fs.String("aggregator", "mean", "window-aggregation rule spec (mean, median, trimmed(b), krum(f))")
		rateLimit  = fs.Float64("rate-limit", 0, "per-worker request rate limit in req/s (0 disables)")
		rateBurst  = fs.Int("rate-burst", 10, "per-worker rate-limit burst")
		deadline   = fs.Duration("deadline", 0, "per-request server-side deadline (0 disables)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		transport  = fs.String("transport", "http", `served transports: "http" (per-request v1 wire protocol), "stream" (persistent sessions with server-pushed model announces) or "both"`)
		streamAddr = fs.String("stream-addr", ":8081", "stream-transport listen address (with -transport stream|both)")
		f16Ann     = fs.Bool("f16-announce", false, "attach a half-precision full-parameter image to model announces whose exact delta went dense, so dense-gradient deployments keep absorbable announces (subscribers trade exactness for freshness)")
		verbose    = fs.Bool("verbose", false, "log every request")

		ckptDir     = fs.String("checkpoint-dir", "", "durable checkpoint directory; empty disables crash safety")
		nonceDir    = fs.String("boot-nonce-dir", "", "directory persisting the boot counter that bumps the incarnation epoch on checkpoint-less boots (default: -checkpoint-dir; empty with no -checkpoint-dir disables the nonce)")
		ckptEvery   = fs.Int("checkpoint-every", 8, "periodic checkpoint cadence in aggregation windows (0: only at graceful shutdown)")
		ckptKeep    = fs.Int("checkpoint-keep", 3, "checkpoint files retained in -checkpoint-dir")
		ckptRecover = fs.String("checkpoint-recover", "latest", `startup policy with -checkpoint-dir: "latest" restores the newest valid checkpoint and refuses to boot without one; "fresh" additionally allows initializing a new model when the directory holds no checkpoint at all (corruption still refuses)`)

		tenantsFile   = fs.String("tenants", "", "JSON file declaring the tenant fleet (array of tenant configs); switches the server to multi-tenant mode")
		defaultTenant = fs.String("default-tenant", "", "tenant that un-tenanted routes alias to (default: the first declared tenant)")
		mintToken     = fs.String("mint-token", "", "mint the bearer token for tenant:workerID against the declared tenant's secret, print it and exit (operator utility; requires the same -tenant/-tenants flags as the server boot)")
	)
	var tenantSpecs stringList
	fs.Var(&tenantSpecs, "tenant", "declare one tenant as name:arch:stages:aggregator:admission[:key=value...] (repeatable; empty fields keep defaults; options: eps, delta, q, secret, workers, seed, lr, k); switches the server to multi-tenant mode")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var cfgs []tenant.Config
	if *tenantsFile != "" {
		loaded, err := tenant.LoadFile(*tenantsFile)
		if err != nil {
			return nil, err
		}
		cfgs = loaded
	}
	for _, s := range tenantSpecs {
		tc, err := tenant.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, tc)
	}
	if *mintToken != "" {
		if len(cfgs) == 0 {
			return nil, fmt.Errorf("-mint-token needs the tenant fleet declared alongside it (-tenant/-tenants): tokens are minted against a declared tenant's secret")
		}
		out, err := mintTenantToken(cfgs, *mintToken)
		if err != nil {
			return nil, err
		}
		return &serverSetup{printOnly: out}, nil
	}

	rt, err := node.FromSpec(node.Spec{
		Role:            node.RoleRoot,
		Name:            "fleet-server",
		Arch:            *archName,
		LearningRate:    *lr,
		K:               *k,
		NonStragglerPct: *sPct,
		Seed:            *seed,
		Shards:          *shards,
		F16Announce:     *f16Ann,
		Stages:          *stages,
		Aggregator:      *agg,
		Admission:       *admission,
		TimeSLO:         *timeSLO,
		EnergySLO:       *energySLO,
		MinBatch:        *minBatch,
		MaxSimilarity:   *maxSim,
		Verbose:         *verbose,
		RateLimit:       *rateLimit,
		RateBurst:       *rateBurst,
		Deadline:        *deadline,
		Checkpoint: node.CheckpointSpec{
			Dir:      *ckptDir,
			NonceDir: *nonceDir,
			Every:    *ckptEvery,
			Keep:     *ckptKeep,
			Recover:  *ckptRecover,
		},
		Bind: node.BindSpec{
			Transport:  *transport,
			Addr:       *addr,
			StreamAddr: *streamAddr,
			Drain:      *drain,
		},
		Tenants:       cfgs,
		DefaultTenant: *defaultTenant,
	})
	if err != nil {
		return nil, err
	}
	asm := rt.Assembly()
	return &serverSetup{
		addr:            *addr,
		drain:           *drain,
		svc:             asm.Service,
		transport:       *transport,
		streamAddr:      *streamAddr,
		announce:        asm.Announce,
		banner:          asm.Banner,
		logf:            log.Printf,
		checkpoint:      asm.Checkpoint,
		closer:          asm.Closer,
		handler:         asm.Handler,
		resolver:        asm.Resolver,
		announceTenants: asm.AnnounceTenants,
	}, nil
}

// serve hands the setup to the shared node runtime and runs it until ctx
// is cancelled (SIGINT/SIGTERM in main). The runtime owns the canonical
// teardown — pre-drain checkpoint, stream goaway, HTTP shutdown, final
// checkpoint, close — bounded by the drain deadline. ready, when non-nil,
// receives the bound address once the listener is up (tests bind ":0").
func serve(ctx context.Context, st *serverSetup, ready chan<- net.Addr) int {
	rt := node.New(node.Assembly{
		Name:               "fleet-server",
		Service:            st.svc,
		Transport:          st.transport,
		Addr:               st.addr,
		StreamAddr:         st.streamAddr,
		Drain:              st.drain,
		Handler:            st.handler,
		Resolver:           st.resolver,
		Announce:           st.announce,
		AnnounceTenants:    st.announceTenants,
		PreDrainCheckpoint: st.checkpoint != nil,
		Checkpoint:         st.checkpoint,
		Closer:             st.closer,
		Banner:             st.banner,
		Logf:               st.logf,
		StreamReady:        st.streamReady,
	})
	return rt.Run(ctx, ready)
}
