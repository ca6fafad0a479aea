package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/nn"
	"fleet/internal/node"
	"fleet/internal/persist"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/stream"
	"fleet/internal/tenant"
	"fleet/internal/worker"
)

// build compiles args into a runtime and points its lifecycle log at the
// test.
func build(t *testing.T, args ...string) *node.Runtime {
	t.Helper()
	rt, _, err := buildServer(args, io.Discard)
	if err != nil {
		t.Fatalf("buildServer(%v): %v", args, err)
	}
	rt.Assembly().Logf = t.Logf
	return rt
}

func TestBuildServerFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-arch", "no-such-arch"},
		{"-stages", "no-such-stage"},
		{"-aggregator", "krum(0.5)"}, // non-integral f
		{"-admission", "no-such-policy(1)"},
		{"-transport", "carrier-pigeon"},
		{"-lr", "NaN"},
		{"-rate-limit", "NaN"},
		{"-max-similarity", "NaN"},
		{"-bogus"},
		{"stray-positional"},
	} {
		if _, _, err := buildServer(args, io.Discard); err == nil {
			t.Errorf("args %v built without error", args)
		}
	}
}

// TestSpecFlagsRoundTripIntoServer: the -stages/-aggregator/-admission
// specs must surface verbatim in the running service's own diagnostics.
func TestSpecFlagsRoundTripIntoServer(t *testing.T) {
	rt := build(t,
		"-arch", "softmax-mnist", "-lr", "0.1", "-k", "3",
		"-time-slo", "0", // skip I-Prof pretraining for speed
		"-stages", "staleness,norm-filter(100)",
		"-aggregator", "trimmed(1)",
		"-admission", "min-batch(2),per-worker-quota(10,60)",
		"-drain", "5s")
	if d := rt.Assembly().Drain; d != 5*time.Second {
		t.Fatalf("drain = %v", d)
	}
	stats, err := rt.Service().Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PipelineStages) != 2 ||
		!strings.HasPrefix(stats.PipelineStages[0], "staleness") ||
		!strings.HasPrefix(stats.PipelineStages[1], "norm-filter") {
		t.Fatalf("pipeline stages = %v, want [staleness… norm-filter…]", stats.PipelineStages)
	}
	if !strings.Contains(strings.ToLower(stats.Aggregator), "trimmed") {
		t.Fatalf("aggregator = %q", stats.Aggregator)
	}
	if len(stats.AdmissionPolicies) != 2 ||
		!strings.HasPrefix(stats.AdmissionPolicies[0], "min-batch") ||
		!strings.HasPrefix(stats.AdmissionPolicies[1], "per-worker-quota") {
		t.Fatalf("admission policies = %v", stats.AdmissionPolicies)
	}
}

// TestLegacyKnobsSynthesizeAdmission: with -admission empty, the individual
// controller flags must still route through the admission spec table.
func TestLegacyKnobsSynthesizeAdmission(t *testing.T) {
	rt := build(t, "-arch", "softmax-mnist", "-time-slo", "0",
		"-min-batch", "5", "-max-similarity", "0.9")
	stats, err := rt.Service().Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.AdmissionPolicies) != 2 ||
		!strings.HasPrefix(stats.AdmissionPolicies[0], "min-batch") ||
		!strings.HasPrefix(stats.AdmissionPolicies[1], "similarity") {
		t.Fatalf("synthesized chain = %v", stats.AdmissionPolicies)
	}
}

// TestAdmissionFlagDecidesPretraining: -admission alone decides which
// I-Prof profilers are pretrained, at the SLO it states, whatever the
// -time-slo default says.
func TestAdmissionFlagDecidesPretraining(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"-admission", "iprof-energy(2)"},
		{"-time-slo", "0", "-admission", "iprof-time(3)"},
	} {
		rt := build(t, args...)
		stats, err := rt.Service().Stats(ctx)
		_ = rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := args[len(args)-1]; len(stats.AdmissionPolicies) != 1 || stats.AdmissionPolicies[0] != want {
			t.Fatalf("args %v: admission policies = %v, want [%s]", args, stats.AdmissionPolicies, want)
		}
	}

	decisions := func(args ...string) []string {
		rt := build(t, args...)
		defer func() { _ = rt.Close() }()
		var out []string
		for i, m := range device.Catalogue() {
			dev := device.New(m, simrand.New(int64(i)))
			resp, err := rt.Service().RequestTask(ctx, &protocol.TaskRequest{
				WorkerID: i, LabelCounts: []int{1},
				DeviceModel: m.Name, TimeFeatures: dev.Features(), EnergyFeatures: dev.EnergyFeatures(),
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%v/%d", resp.Accepted, resp.BatchSize))
		}
		return out
	}
	spelled, knob := decisions("-admission", "iprof-time(5)"), decisions("-time-slo", "5")
	if !reflect.DeepEqual(spelled, knob) {
		t.Fatalf("-admission iprof-time(5) decides %v, -time-slo 5 decides %v", spelled, knob)
	}
}

// slowPush delays every PushGradient so the test can cancel the server
// while a push is verifiably in flight.
func slowPush(d time.Duration) service.Interceptor {
	return service.Around(func(ctx context.Context, info service.CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		if info.Method == "PushGradient" {
			time.Sleep(d)
		}
		return next(ctx)
	})
}

// TestGracefulShutdownDrainsInFlightPush is the regression test for the
// bare-ListenAndServe bug: a push that is mid-flight when the shutdown
// signal arrives must still commit, and serve must exit 0.
func TestGracefulShutdownDrainsInFlightPush(t *testing.T) {
	rt := build(t, "-addr", "127.0.0.1:0", "-arch", "softmax-mnist", "-time-slo", "0", "-drain", "5s")
	asm := rt.Assembly()
	asm.Service = service.Chain(asm.Service, slowPush(400*time.Millisecond))

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	exit := make(chan int, 1)
	go func() { exit <- rt.Run(ctx, ready) }()
	addr := (<-ready).String()
	client := &worker.Client{BaseURL: "http://" + addr}

	params := nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamCount()
	pushDone := make(chan error, 1)
	go func() {
		_, err := client.PushGradient(context.Background(), &protocol.GradientPush{
			WorkerID:    1,
			Gradient:    make([]float64, params),
			BatchSize:   1,
			LabelCounts: make([]int, nn.ArchSoftmaxMNIST.Classes()),
		})
		pushDone <- err
	}()

	time.Sleep(100 * time.Millisecond) // the push is now sleeping inside the server
	cancel()                           // deliver the "signal"

	if err := <-pushDone; err != nil {
		t.Fatalf("in-flight push failed during shutdown: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("serve exited %d after a clean drain", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not exit after drain")
	}
	// The model must have committed the drained push.
	stats, err := rt.Service().Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 1 {
		t.Fatalf("drained push not committed: gradients_in = %d", stats.GradientsIn)
	}
	// And the listener is really gone.
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestStreamServeAndDrain: -transport both serves persistent sessions next
// to the HTTP listener against the same service, and the signal-triggered
// drain tells every session "server draining" with a final goaway before
// the process exits 0.
func TestStreamServeAndDrain(t *testing.T) {
	rt := build(t, "-addr", "127.0.0.1:0", "-stream-addr", "127.0.0.1:0", "-transport", "both",
		"-arch", "softmax-mnist", "-time-slo", "0", "-drain", "5s")
	streamReady := make(chan net.Addr, 1)
	rt.Assembly().StreamReady = streamReady

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	exit := make(chan int, 1)
	go func() { exit <- rt.Run(ctx, ready) }()
	httpAddr := (<-ready).String()
	streamAddr := (<-streamReady).String()

	cl := &stream.Client{Addr: streamAddr, WorkerID: 1, Subscribe: true}
	defer func() { _ = cl.Close() }()
	params := nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamCount()
	if _, err := cl.PushGradient(context.Background(), &protocol.GradientPush{
		WorkerID:    1,
		Gradient:    make([]float64, params),
		BatchSize:   1,
		LabelCounts: make([]int, nn.ArchSoftmaxMNIST.Classes()),
	}); err != nil {
		t.Fatalf("push over stream: %v", err)
	}
	// Both listeners front the same service: the HTTP side sees the
	// gradient the stream session pushed.
	stats, err := (&worker.Client{BaseURL: "http://" + httpAddr}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 1 {
		t.Fatalf("gradients_in = %d over HTTP after a stream push", stats.GradientsIn)
	}

	cancel() // deliver the "signal"
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("serve exited %d after a clean drain", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not exit after drain")
	}
	// The goaway landed and the session ended; the client's reader may
	// still be processing the close, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for cl.Connected() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if cl.Connected() {
		t.Fatal("session still connected after server drain")
	}
	if _, err := net.DialTimeout("tcp", streamAddr, 200*time.Millisecond); err == nil {
		t.Fatal("stream listener still accepting after shutdown")
	}
}

// TestServeExitsOnListenerFailure: a dead listener must surface as a
// non-zero exit, not a hang.
func TestServeExitsOnListenerFailure(t *testing.T) {
	// Occupy a port, then point the server at it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	rt := build(t, "-addr", ln.Addr().String(), "-arch", "softmax-mnist", "-time-slo", "0")
	if code := rt.Run(context.Background(), nil); code != 1 {
		t.Fatalf("serve on occupied port exited %d, want 1", code)
	}
}

// TestHelperServe is not a real test: it is the child process of
// TestHardKillThenRestore, re-executing the test binary as a fleet-server
// so the parent can SIGKILL a real OS process (a goroutine cannot be
// hard-killed). Args arrive JSON-encoded in the environment.
func TestHelperServe(t *testing.T) {
	if os.Getenv("FLEET_SERVER_HELPER") != "1" {
		t.Skip("helper process for TestHardKillThenRestore")
	}
	var args []string
	if err := json.Unmarshal([]byte(os.Getenv("FLEET_SERVER_ARGS")), &args); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt, _, err := buildServer(args, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(rt.Run(context.Background(), nil))
}

// TestHardKillThenRestore is the end-to-end crash drill: a real
// fleet-server process takes live traffic and periodic checkpoints, dies
// by SIGKILL (no drain, no shutdown checkpoint), and a successor booted
// from the same -checkpoint-dir restores the durable state — after which
// the same live worker resyncs and keeps training without operator action.
func TestHardKillThenRestore(t *testing.T) {
	dir := t.TempDir()

	// A free port for the child (racy in principle, fine for a test).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	args := []string{
		"-addr", addr, "-arch", "softmax-mnist", "-time-slo", "0",
		"-k", "1", "-checkpoint-dir", dir, "-checkpoint-every", "1",
		"-checkpoint-recover", "fresh", // first boot: an empty dir is expected
	}
	argsJSON, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	child := exec.Command(os.Args[0], "-test.run", "TestHelperServe")
	child.Env = append(os.Environ(), "FLEET_SERVER_HELPER=1", "FLEET_SERVER_ARGS="+string(argsJSON))
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = child.Process.Kill(); _, _ = child.Process.Wait() }()

	// Wait for the child to serve.
	client := &worker.Client{BaseURL: "http://" + addr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := client.Stats(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child fleet-server never came up")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Live training traffic: every push drains a window (K=1) and
	// checkpoints (every=1).
	ctx := context.Background()
	ds := data.TinyMNIST(1, 6, 2)
	w, err := worker.New(worker.Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Step(ctx, client); err != nil {
			t.Fatalf("pre-kill round %d: %v", i, err)
		}
	}
	// The worker holds a version it pulled from incarnation 0, mid-round.
	resp, err := w.Pull(ctx, client)
	if err != nil || !resp.Accepted {
		t.Fatalf("pre-kill pull: %v %+v", err, resp)
	}
	prep := w.Compute(resp)

	// Every acked push closed a window and wrote its checkpoint before the
	// ack returned: durable state is on disk before the plug is pulled.
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.fleet")); len(ckpts) == 0 {
		t.Fatal("no checkpoint on disk after three acked windows")
	}

	// kill -9: no drain, no shutdown checkpoint, in-flight window lost.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = child.Process.Wait()

	// The successor boots from the same directory. Default recovery
	// ("latest") suffices now — a checkpoint exists.
	rt := build(t, "-addr", "127.0.0.1:0", "-arch", "softmax-mnist", "-time-slo", "0",
		"-k", "1", "-checkpoint-dir", dir, "-checkpoint-every", "1", "-drain", "5s")
	serveCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	exit := make(chan int, 1)
	go func() { exit <- rt.Run(serveCtx, ready) }()
	addr2 := (<-ready).String()
	client2 := &worker.Client{BaseURL: "http://" + addr2}

	stats, err := client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ServerEpoch == 0 || stats.ServerEpoch == resp.ServerEpoch {
		t.Fatalf("restored incarnation = %d, want nonzero and not the dead instance's %d", stats.ServerEpoch, resp.ServerEpoch)
	}
	if stats.RestoredVersion == 0 || stats.ModelVersion != stats.RestoredVersion {
		t.Fatalf("restored at version %d (stats model %d): durable state lost", stats.RestoredVersion, stats.ModelVersion)
	}

	// The in-flight gradient from incarnation 0 must trigger a resync, and
	// the worker must recover on its own.
	if _, err := w.Push(ctx, client2, prep.Push); !protocol.IsCode(err, protocol.CodeVersionConflict) {
		t.Fatalf("stale-incarnation push: %v, want version_conflict", err)
	}
	if w.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", w.Resyncs)
	}
	if _, err := w.Step(ctx, client2); err != nil {
		t.Fatalf("post-restore round: %v", err)
	}
	after, err := client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.GradientsIn != stats.GradientsIn+1 {
		t.Fatalf("post-restore push did not commit: gradients %d -> %d", stats.GradientsIn, after.GradientsIn)
	}

	// Graceful exit writes a final checkpoint at the drained state.
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("restored server exited %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("restored server did not exit")
	}
	st, _, err := persist.LoadLatest(dir)
	if err != nil {
		t.Fatalf("no checkpoint after graceful exit (had %d files): %v", len(before), err)
	}
	if st.Version != after.ModelVersion || st.Epoch != stats.ServerEpoch {
		t.Fatalf("final checkpoint at version %d epoch %d, want %d/%d", st.Version, st.Epoch, after.ModelVersion, stats.ServerEpoch)
	}
}

// TestCheckpointRecoverPolicy: a first boot (empty dir) must be explicit —
// "latest" refuses, "fresh" initializes, anything else is a flag error.
func TestCheckpointRecoverPolicy(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-arch", "softmax-mnist", "-time-slo", "0", "-checkpoint-dir", dir}

	if _, _, err := buildServer(base, io.Discard); !errors.Is(err, persist.ErrNoCheckpoint) {
		t.Fatalf("default recovery on empty dir: %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := buildServer(append(base, "-checkpoint-recover", "bogus"), io.Discard); err == nil {
		t.Fatal("bogus -checkpoint-recover accepted")
	}
	rt := build(t, append(base, "-checkpoint-recover", "fresh")...)
	defer func() { _ = rt.Close() }()
	if rt.Assembly().Checkpoint == nil {
		t.Fatal("checkpoint hook missing despite -checkpoint-dir")
	}
	// The fresh boot can checkpoint; "latest" boots then work, each as a
	// new incarnation: nonzero, and neither the checkpoint's nor another
	// restore's.
	if _, err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epochs := map[int64]bool{0: true}
	for i := 0; i < 2; i++ {
		rt2 := build(t, base...)
		stats, err := rt2.Service().Stats(context.Background())
		_ = rt2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if epochs[stats.ServerEpoch] {
			t.Fatalf("restore %d incarnation = %d, already booted (%v)", i, stats.ServerEpoch, epochs)
		}
		epochs[stats.ServerEpoch] = true
	}
}

// writeTenants writes a -tenants file and returns its path.
func writeTenants(t *testing.T, decl string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMintTokenUtility: -mint-token is a print-and-exit operator mode —
// the token it prints must verify against the declared tenant's secret for
// exactly the requested worker identity.
func TestMintTokenUtility(t *testing.T) {
	fleet := writeTenants(t, `[{"name":"open"},{"name":"ads","arch":"softmax-mnist","secret":"s3","max_workers":5}]`)
	rt, printOnly, err := buildServer([]string{"-time-slo", "0", "-tenants", fleet, "-mint-token", "ads:7"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rt != nil {
		t.Fatal("-mint-token compiled a runtime; it must print and exit")
	}
	tok := strings.TrimSuffix(printOnly, "\n")
	if tok == printOnly {
		t.Fatal("printed token must be newline-terminated")
	}
	id, err := tenant.VerifyToken([]byte("s3"), "ads", tok)
	if err != nil || id != 7 {
		t.Fatalf("minted token verifies as (%d, %v), want (7, nil)", id, err)
	}
	if _, err := tenant.VerifyToken([]byte("s3"), "open", tok); err == nil {
		t.Error("minted token verified against the wrong tenant")
	}

	for _, args := range [][]string{
		{"-mint-token", "ads:7"},                             // no tenants declared
		{"-tenants", fleet, "-mint-token", "ghost:7"},        // unknown tenant
		{"-tenants", fleet, "-mint-token", "open:7"},         // tenant has no secret
		{"-tenants", fleet, "-mint-token", "ads"},            // no worker id
		{"-tenants", fleet, "-mint-token", "ads:-1"},         // negative id
		{"-tenants", fleet, "-mint-token", "ads:seven"},      // non-integer id
		{"-tenant", "ads:secret=s3", "-mint-token", "ads:7"}, // the retired positional grammar
		{"-tenants", writeTenants(t, `[{"name":"ads","secret":"s3"},{"name":"ads","secret":"s4"}]`), "-mint-token", "ads:7"}, // a declaration the server refuses
	} {
		if _, _, err := buildServer(append([]string{"-time-slo", "0"}, args...), io.Discard); err == nil {
			t.Errorf("args %v minted without error", args)
		}
	}
}

// TestMultiTenantBuild: a -tenants file must switch buildServer into
// registry mode — tenant-routing handler, stream resolver, per-tenant
// announce wiring — with the declared default aliased for legacy routes.
func TestMultiTenantBuild(t *testing.T) {
	rt := build(t,
		"-time-slo", "0",
		"-tenants", writeTenants(t, `[
			{"name": "ads", "arch": "softmax-mnist", "stages": "dp(1,1.2),staleness", "secret": "s3", "epsilon": 2},
			{"name": "analytics"}
		]`),
		"-default-tenant", "analytics")
	defer func() { _ = rt.Close() }()
	asm := rt.Assembly()
	if asm.Handler == nil || asm.Resolver == nil || asm.Announce == nil {
		t.Fatal("multi-tenant assembly must carry handler, resolver and announce wiring")
	}
	if !strings.Contains(asm.Banner, "analytics") || !strings.Contains(asm.Banner, "ads") {
		t.Fatalf("banner %q does not name the tenants", asm.Banner)
	}
	// The default unit serves un-tenanted callers without credentials…
	if _, err := rt.Service().Stats(context.Background()); err != nil {
		t.Fatalf("default tenant stats: %v", err)
	}
	// …while the locked tenant resolved through the stream path enforces.
	svc, name, err := asm.Resolver("ads")
	if err != nil || name != "ads" {
		t.Fatalf("resolver(ads) = %q, %v", name, err)
	}
	if _, err := svc.RequestTask(context.Background(), &protocol.TaskRequest{WorkerID: 0}); !protocol.IsCode(err, protocol.CodeUnauthenticated) {
		t.Fatalf("credential-less call on locked tenant: got %v, want unauthenticated", err)
	}
	if _, _, err := asm.Resolver("ghost"); !protocol.IsCode(err, protocol.CodeUnauthenticated) {
		t.Fatalf("resolver(ghost): got %v, want unauthenticated", err)
	}
}

// TestRefusedTenantsWriteNothing: a declaration is checked whole before the
// first unit boots, so one refused for any reason leaves -checkpoint-dir
// as it found it — no subdirectory, no boot counter. A -default-tenant with
// no declaration to name is refused the same way, not ignored.
func TestRefusedTenantsWriteNothing(t *testing.T) {
	for _, tc := range []struct {
		decl  string
		extra []string
		want  string
	}{
		{decl: `[{"name":"a"},{"name":"a"}]`, want: "duplicate tenant"},
		{decl: `[{"name":"a"},{"name":".."}]`, want: "invalid tenant name"},
		{decl: `[{"name":"a"},{"name":"b","max_workers":-1}]`, want: "must not be negative"},
		{decl: `[{"name":"a"}]`, extra: []string{"-default-tenant", "ghost"}, want: `default tenant "ghost"`},
		{decl: `[{"name":"ads","secert":"s3cr3t","max_worker":5}]`, want: `unknown field "secert"`},
		{extra: []string{"-checkpoint-recover", "fresh", "-default-tenant", "ghost"}, want: "DefaultTenant"}, // no -tenants at all
		{decl: `[{"name":"a"}]`, extra: []string{"-checkpoint-recover", "bogus"}, want: `unknown -checkpoint-recover "bogus"`},
		{decl: `[{"name":"a"},{"name":"b","learning_rate":-1}]`, extra: []string{"-checkpoint-recover", "fresh"}, want: "LearningRate -1 must not be negative"},
	} {
		dir := t.TempDir()
		args := []string{"-time-slo", "0", "-checkpoint-dir", dir}
		if tc.decl != "" {
			args = append(args, "-tenants", writeTenants(t, tc.decl))
		}
		args = append(args, tc.extra...)
		if rt, _, err := buildServer(args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			if rt != nil {
				_ = rt.Close()
			}
			t.Errorf("%s %v: error %v, want containing %q", tc.decl, tc.extra, err, tc.want)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) > 0 {
			t.Errorf("%s %v: refused, yet -checkpoint-dir holds %v (%v)", tc.decl, tc.extra, entries, err)
		}
	}
}

// TestReadmeTenantsExample boots README's multi-tenancy example as
// written and mints the token it mints, so the example cannot rot: the
// -tenants file between its two marker comments and the fleet-server
// command after them are compiled by buildServer, with the file's and the
// checkpoint directory's paths put in place.
func TestReadmeTenantsExample(t *testing.T) {
	const readme, begin, end = "../../README.md", "<!-- tenants:begin -->\n```json\n", "```\n<!-- tenants:end -->"
	doc, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	from := strings.Index(string(doc), begin)
	to := strings.Index(string(doc), end)
	if from < 0 || to < from {
		t.Fatalf("%s lacks the %q … %q block", readme, begin, end)
	}
	fleet := writeTenants(t, string(doc[from+len(begin):to]))
	_, command, ok := strings.Cut(string(doc[to:]), "\nfleet-server ")
	if !ok {
		t.Fatalf("%s has no fleet-server command after the tenants block", readme)
	}
	command, _, _ = strings.Cut(command, "\n\n")
	var args []string
	for _, line := range strings.Split(command, "\n") {
		line, _, _ = strings.Cut(line, "#")
		for _, f := range strings.Fields(strings.TrimSuffix(strings.TrimSpace(line), "\\")) {
			switch f {
			case "tenants.json":
				f = fleet
			case "/var/lib/fleet":
				f = t.TempDir()
			}
			args = append(args, f)
		}
	}
	rt := build(t, args...)
	defer func() { _ = rt.Close() }()
	if !strings.Contains(rt.Assembly().Banner, "tenants: analytics, ads") {
		t.Fatalf("banner %q does not serve README's two tenants", rt.Assembly().Banner)
	}
	if _, tok, err := buildServer([]string{"-tenants", fleet, "-mint-token", "ads:7"}, io.Discard); err != nil || tok == "" {
		t.Fatalf("-mint-token ads:7 against README's file: %q, %v", tok, err)
	}
}

// TestBootNonceBumpsEpochOnCheckpointLessRestarts covers the flag-level
// contract of -boot-nonce-dir: restarts that never restore a checkpoint
// — whether there is no -checkpoint-dir at all, or -checkpoint-recover
// fresh found an empty one — must come up with a new incarnation epoch
// after the very first boot, so workers caching state from the dead
// instance resync instead of colliding on epoch 0.
func TestBootNonceBumpsEpochOnCheckpointLessRestarts(t *testing.T) {
	epochOf := func(t *testing.T, args []string) int64 {
		t.Helper()
		rt := build(t, args...)
		defer func() { _ = rt.Close() }()
		stats, err := rt.Service().Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats.ServerEpoch
	}

	// Checkpoint-less deployment: only the nonce directory persists.
	nonceDir := t.TempDir()
	args := []string{"-arch", "softmax-mnist", "-time-slo", "0", "-boot-nonce-dir", nonceDir}
	if e := epochOf(t, args); e != 0 {
		t.Fatalf("first checkpoint-less boot epoch = %d, want 0", e)
	}
	second := epochOf(t, args)
	if second == 0 {
		t.Fatal("checkpoint-less restart reused epoch 0; delta caches from the dead instance would poison")
	}
	if third := epochOf(t, args); third == 0 || third == second {
		t.Fatalf("third boot epoch %d must be nonzero and differ from %d", third, second)
	}

	// -recover fresh with a checkpoint dir that stays empty: the nonce
	// defaults to the checkpoint directory itself, no extra flag needed.
	ckptDir := t.TempDir()
	fresh := []string{"-arch", "softmax-mnist", "-time-slo", "0",
		"-checkpoint-dir", ckptDir, "-checkpoint-recover", "fresh"}
	if e := epochOf(t, fresh); e != 0 {
		t.Fatalf("first fresh boot epoch = %d, want 0", e)
	}
	if e := epochOf(t, fresh); e == 0 {
		t.Fatal("-checkpoint-recover=fresh restart on an empty dir reused epoch 0")
	}

	// A -tenants deployment with only a nonce directory: every unit draws
	// its epoch from its own count under <nonce-dir>/<name>.
	unitEpochs := func(args []string) []int64 {
		rt := build(t, args...)
		defer func() { _ = rt.Close() }()
		var epochs []int64
		for _, c := range rt.Assembly().Children {
			epochs = append(epochs, c.Server.Epoch())
		}
		return epochs
	}
	nd := filepath.Join(t.TempDir(), "nd")
	units := []string{"-time-slo", "0", "-boot-nonce-dir", nd,
		"-tenants", writeTenants(t, `[{"name":"a","arch":"softmax-mnist"},{"name":"b","arch":"softmax-mnist"}]`)}
	if e := unitEpochs(units); !reflect.DeepEqual(e, []int64{0, 0}) {
		t.Fatalf("first -tenants boot epochs = %v, want [0 0]", e)
	}
	for i, e := range unitEpochs(units) {
		if e == 0 {
			t.Fatalf("unit %d restarted at epoch 0 with -boot-nonce-dir set", i)
		}
	}
	for _, name := range []string{"a", "b"} {
		if _, err := os.Stat(filepath.Join(nd, name, "boot-count")); err != nil {
			t.Fatalf("no boot count for unit %s under the nonce directory: %v", name, err)
		}
	}

	// Without either directory there is nothing to persist a count in:
	// every boot is epoch 0 (the pre-nonce posture, and the harness's).
	bare := []string{"-arch", "softmax-mnist", "-time-slo", "0"}
	if e := epochOf(t, bare); e != 0 {
		t.Fatalf("nonce-less boot epoch = %d, want 0", e)
	}
}
