package tenant

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/worker"
)

// newUnit attaches cfg to a server built from its model fields: the
// fixture's stand-in for node.FromSpec, which compiles a deployment's
// units. The server is closed with the test.
func newUnit(t *testing.T, cfg Config) (*Unit, error) {
	t.Helper()
	arch, err := nn.ArchByName(cfg.Arch)
	if err != nil {
		t.Fatal(err)
	}
	algo := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 50})
	stages := cfg.Stages
	if stages == "" {
		stages = "staleness"
	}
	pipe, err := pipeline.Build(stages, "mean", pipeline.BuildOptions{Algorithm: algo, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Arch: arch, Algorithm: algo, LearningRate: 0.03, Pipeline: pipe, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return Attach(cfg, srv, Options{})
}

// newRegistry builds a registry over fixture units.
func newRegistry(t *testing.T, def string, cfgs ...Config) (*Registry, error) {
	t.Helper()
	units := make([]*Unit, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if units[i], err = newUnit(t, cfg); err != nil {
			return nil, err
		}
	}
	return NewRegistry(units, Options{Default: def})
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    Config
		wantErr string
	}{
		{in: "analytics", want: Config{Name: "analytics"}},
		{
			in:   "ads:softmax-mnist:dp(1,1.2),staleness:krum(2):rate(5)",
			want: Config{Name: "ads", Arch: "softmax-mnist", Stages: "dp(1,1.2),staleness", Aggregator: "krum(2)", Admission: "rate(5)"},
		},
		{
			// Options may start before the positional fields run out.
			in:   "ads:softmax-mnist:eps=1.5:workers=8:secret=s3",
			want: Config{Name: "ads", Arch: "softmax-mnist", Epsilon: 1.5, MaxWorkers: 8, Secret: "s3"},
		},
		{
			in:   "a:::mean:epsilon=2:delta=1e-6:q=0.02:seed=7:lr=0.1:k=3",
			want: Config{Name: "a", Aggregator: "mean", Epsilon: 2, Delta: 1e-6, SamplingRatio: 0.02, Seed: 7, LearningRate: 0.1, K: 3},
		},
		{in: "bad name", wantErr: "invalid tenant name"},
		{in: "", wantErr: "invalid tenant name"},
		{in: "..", wantErr: "invalid tenant name"},
		{in: "a:softmax-mnist:staleness:mean:rate(5):bogus=1", wantErr: "unknown option"},
		{in: "a:softmax-mnist:staleness:mean:rate(5):stray", wantErr: "neither positional"},
		{in: "a:workers=many", wantErr: `option "workers=many"`},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseSpec(%q) error = %v, want containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestTokenMintVerify(t *testing.T) {
	secret := []byte("topsecret")
	tok := MintToken(secret, "alpha", 7)
	id, err := VerifyToken(secret, "alpha", tok)
	if err != nil || id != 7 {
		t.Fatalf("VerifyToken = (%d, %v), want (7, nil)", id, err)
	}
	if _, err := VerifyToken([]byte("other"), "alpha", tok); err == nil {
		t.Error("token verified under a different secret")
	}
	if _, err := VerifyToken(secret, "beta", tok); err == nil {
		t.Error("token verified under a different tenant name")
	}
	if _, err := VerifyToken(secret, "alpha", tok+"0"); err == nil {
		t.Error("tampered token verified")
	}
	if _, err := VerifyToken(secret, "alpha", ""); err == nil {
		t.Error("empty token verified")
	}
	// Tokens bind non-negative worker identities only; the MAC input would
	// otherwise collide across sign conventions.
	if _, err := VerifyToken(secret, "alpha", "-1."+strings.Repeat("ab", 32)); err == nil {
		t.Error("negative worker id token verified")
	}
}

// ctxFor builds the credentialed context an authenticated transport would
// hand the enforcement layer.
func ctxFor(tenant, token string) context.Context {
	return service.WithCredentials(context.Background(), service.Credentials{Tenant: tenant, Token: token})
}

// TestCrossTenantTokenReplay drives the adversary that captures a valid
// token for one tenant and replays it against another, and the one that
// presents a teammate's token under its own worker id. Both must be
// rejected as unauthenticated and attributed to the target tenant's stats.
func TestCrossTenantTokenReplay(t *testing.T) {
	reg, err := newRegistry(t, "",
		Config{Name: "alpha", Arch: "softmax-mnist", Secret: "alpha-secret"},
		Config{Name: "beta", Arch: "softmax-mnist", Secret: "beta-secret"})
	if err != nil {
		t.Fatal(err)
	}

	alphaTok := MintToken([]byte("alpha-secret"), "alpha", 1)
	req := &protocol.TaskRequest{WorkerID: 1}

	// The token works where it was minted.
	alphaUnit, _ := reg.Resolve("alpha")
	betaUnit, _ := reg.Resolve("beta")
	alpha, beta := alphaUnit.Service(), betaUnit.Service()
	if _, err := alpha.RequestTask(ctxFor("alpha", alphaTok), req); err != nil {
		t.Fatalf("legitimate call rejected: %v", err)
	}

	// Replayed against beta it must fail closed, even with the same worker
	// id: beta verifies against its own secret and name.
	if _, err := beta.RequestTask(ctxFor("beta", alphaTok), req); !protocol.IsCode(err, protocol.CodeUnauthenticated) {
		t.Fatalf("cross-tenant replay: got %v, want unauthenticated", err)
	}

	// A valid alpha token presented under a different worker identity is an
	// intra-tenant replay.
	if _, err := alpha.RequestTask(ctxFor("alpha", alphaTok), &protocol.TaskRequest{WorkerID: 5}); !protocol.IsCode(err, protocol.CodeUnauthenticated) {
		t.Fatalf("identity-swap replay: got %v, want unauthenticated", err)
	}

	// No token at all.
	if _, err := alpha.RequestTask(context.Background(), req); !protocol.IsCode(err, protocol.CodeUnauthenticated) {
		t.Fatalf("missing credentials: got %v, want unauthenticated", err)
	}

	if got := alphaUnit.statsBlock().AuthRejects; got != 2 {
		t.Errorf("alpha auth_rejects = %d, want 2", got)
	}
	if got := betaUnit.statsBlock().AuthRejects; got != 1 {
		t.Errorf("beta auth_rejects = %d, want 1", got)
	}
}

// TestSybilRotationQuota drives the adversary that rotates through fresh
// worker identities — each with its own validly minted token, so
// authentication cannot stop it — and checks the per-tenant worker quota
// caps the distinct identities it can enroll.
func TestSybilRotationQuota(t *testing.T) {
	u, err := newUnit(t, Config{Name: "quota", Arch: "softmax-mnist", Secret: "s", MaxWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}

	secret := []byte("s")
	admitted, capped := 0, 0
	for id := 0; id < 10; id++ {
		ctx := ctxFor("quota", MintToken(secret, "quota", id))
		_, err := u.Service().RequestTask(ctx, &protocol.TaskRequest{WorkerID: id})
		switch {
		case err == nil:
			admitted++
		case protocol.IsCode(err, protocol.CodeResourceExhausted):
			capped++
		default:
			t.Fatalf("worker %d: unexpected error %v", id, err)
		}
	}
	if admitted != 3 || capped != 7 {
		t.Fatalf("admitted %d capped %d, want 3 and 7", admitted, capped)
	}

	// Already-enrolled identities keep working: the quota caps identities,
	// not calls.
	ctx := ctxFor("quota", MintToken(secret, "quota", 0))
	if _, err := u.Service().RequestTask(ctx, &protocol.TaskRequest{WorkerID: 0}); err != nil {
		t.Fatalf("enrolled worker rejected after cap: %v", err)
	}

	st := u.statsBlock()
	if st.Workers != 3 || st.MaxWorkers != 3 || st.WorkerCapRejects != 7 {
		t.Errorf("stats = workers %d/%d, cap_rejects %d; want 3/3 and 7", st.Workers, st.MaxWorkers, st.WorkerCapRejects)
	}
}

// TestBudgetExhaustion checks the DP budget flips a tenant read-only after
// the composed epsilon of its applied pushes reaches the configured limit:
// pushes are rejected as budget_exhausted, pulls still serve.
func TestBudgetExhaustion(t *testing.T) {
	// With the dp(1,1.2) mechanism at q=0.01, δ=1e-5, one composed step
	// spends ε≈0.8417, so a 0.85 budget exhausts after exactly one applied
	// push.
	u, err := newUnit(t, Config{
		Name: "metered", Arch: "softmax-mnist",
		Stages: "dp(1,1.2),staleness", Epsilon: 0.85,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background() // no secret: authentication disabled
	resp, err := u.Service().RequestTask(ctx, &protocol.TaskRequest{WorkerID: 0})
	if err != nil {
		t.Fatal(err)
	}
	push := &protocol.GradientPush{
		WorkerID:     0,
		ModelVersion: resp.ModelVersion,
		ModelEpoch:   resp.ServerEpoch,
		Gradient:     make([]float64, len(resp.Params)),
		BatchSize:    8,
	}
	ack, err := u.Service().PushGradient(ctx, push)
	if err != nil || !ack.Applied {
		t.Fatalf("first push: ack=%+v err=%v, want applied", ack, err)
	}
	if _, err := u.Service().PushGradient(ctx, push); !protocol.IsCode(err, protocol.CodeBudgetExhausted) {
		t.Fatalf("second push: got %v, want budget_exhausted", err)
	}
	if _, err := u.Service().RequestTask(ctx, &protocol.TaskRequest{WorkerID: 0}); err != nil {
		t.Fatalf("pull after exhaustion: %v (tenant must stay readable)", err)
	}

	st := u.statsBlock()
	if !st.BudgetExhausted || st.BudgetCharges != 1 || st.BudgetRejects != 1 {
		t.Errorf("stats = exhausted %v, charges %d, rejects %d; want true, 1, 1", st.BudgetExhausted, st.BudgetCharges, st.BudgetRejects)
	}
	if st.EpsilonSpent <= 0 || st.EpsilonSpent > st.EpsilonBudget {
		t.Errorf("epsilon_spent %.4f outside (0, %.4f]", st.EpsilonSpent, st.EpsilonBudget)
	}
}

func TestBudgetRequiresDPStage(t *testing.T) {
	if _, err := newUnit(t, Config{Name: "m", Arch: "softmax-mnist", Epsilon: 1}); err == nil || !strings.Contains(err.Error(), "dp(clip,sigma) stage") {
		t.Fatalf("epsilon without dp stage: got %v, want dp-stage error", err)
	}
}

// TestNegativeLimitsRefused: a negative quota or budget parameter must not
// boot a tenant that runs unlimited or unmetered; the error names the
// tenant.
func TestNegativeLimitsRefused(t *testing.T) {
	for _, spec := range []string{
		"neg:softmax-mnist:dp(1,1.2),staleness::workers=-1",
		"neg:softmax-mnist:dp(1,1.2),staleness::eps=-1",
		"neg:softmax-mnist:dp(1,1.2),staleness::eps=1:delta=-1",
		"neg:softmax-mnist:dp(1,1.2),staleness::eps=1:q=-1",
	} {
		cfg, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newUnit(t, cfg); err == nil || !strings.Contains(err.Error(), "tenant neg: ") {
			t.Errorf("%s: got %v, want an error naming tenant neg", spec, err)
		}
	}
}

// TestBudgetReadsSigmaFromPipeline: the budget composes the σ of the dp
// stage the server runs, whatever cfg.Stages says.
func TestBudgetReadsSigmaFromPipeline(t *testing.T) {
	arch, err := nn.ArchByName("softmax-mnist")
	if err != nil {
		t.Fatal(err)
	}
	algo := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 50})
	pipe, err := pipeline.Build("dp(1,0.5),staleness", "mean", pipeline.BuildOptions{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Arch: arch, Algorithm: algo, LearningRate: 0.03, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cfg := Config{Name: "m", Arch: "softmax-mnist", Stages: "staleness", Epsilon: 8}
	u, err := Attach(cfg, srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.withDefaults()
	want, err := NewBudget(d.SamplingRatio, 0.5, d.Delta, d.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	if u.budget == nil || want.maxSteps == 0 || u.budget.maxSteps != want.maxSteps {
		t.Fatalf("budget = %+v, want one at sigma 0.5 (%d steps)", u.budget, want.maxSteps)
	}
}

func TestRegistryResolve(t *testing.T) {
	a, b := Config{Name: "a", Arch: "softmax-mnist"}, Config{Name: "b", Arch: "softmax-mnist"}
	if _, err := newRegistry(t, "", a, a); err == nil {
		t.Error("duplicate tenant names accepted")
	}
	if _, err := newRegistry(t, "nope", a); err == nil {
		t.Error("unknown default tenant accepted")
	}
	if _, err := NewRegistry(nil, Options{}); err == nil {
		t.Error("empty registry accepted")
	}
	reg, err := newRegistry(t, "b", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if def, _ := reg.Resolve(""); def.Name() != "b" {
		t.Errorf("default tenant = %s, want b", def.Name())
	}
	if _, err := reg.Resolve("ghost"); !protocol.IsCode(err, protocol.CodeUnauthenticated) {
		t.Errorf("unknown tenant: got %v, want unauthenticated (names must not be probeable)", err)
	}
}

// TestHTTPTenantRouting exercises the full HTTP path: tenant-scoped routes
// with bearer tokens, the replay and unknown-tenant failure modes, and the
// legacy route aliasing onto the default tenant.
func TestHTTPTenantRouting(t *testing.T) {
	reg, err := newRegistry(t, "open",
		Config{Name: "open", Arch: "softmax-mnist"},
		Config{Name: "locked", Arch: "softmax-mnist", Secret: "locked-secret"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(reg.Handler())
	defer hs.Close()

	ds := data.TinyMNIST(1, 2, 1)
	newWorker := func(id int) *worker.Worker {
		w, err := worker.New(worker.Config{
			ID: id, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(int64(200 + id)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ctx := context.Background()

	// A worker with the right tenant and token trains end to end.
	authed := &worker.Client{
		BaseURL: hs.URL, HTTPClient: hs.Client(),
		Tenant: "locked", Token: MintToken([]byte("locked-secret"), "locked", 0),
	}
	w := newWorker(0)
	for i := 0; i < 3; i++ {
		if _, err := w.Step(ctx, authed); err != nil {
			t.Fatalf("authenticated step %d: %v", i, err)
		}
	}
	st, err := authed.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant == nil || st.Tenant.Name != "locked" {
		t.Fatalf("stats tenant block = %+v, want name locked", st.Tenant)
	}
	if st.GradientsIn == 0 {
		t.Error("tenant server saw no gradients")
	}

	// A garbage token and a cross-tenant token both fail unauthenticated.
	for name, c := range map[string]*worker.Client{
		"garbage token": {BaseURL: hs.URL, HTTPClient: hs.Client(), Tenant: "locked", Token: "nonsense"},
		"replayed token": {BaseURL: hs.URL, HTTPClient: hs.Client(), Tenant: "locked",
			Token: MintToken([]byte("other-secret"), "locked", 0)},
	} {
		if _, err := newWorker(0).Step(ctx, c); !protocol.IsCode(err, protocol.CodeUnauthenticated) {
			t.Errorf("%s: got %v, want unauthenticated", name, err)
		}
	}

	// Unknown tenant names are indistinguishable from bad credentials.
	ghost := &worker.Client{BaseURL: hs.URL, HTTPClient: hs.Client(), Tenant: "ghost", Token: "t"}
	if _, err := newWorker(0).Step(ctx, ghost); !protocol.IsCode(err, protocol.CodeUnauthenticated) {
		t.Errorf("unknown tenant: got %v, want unauthenticated", err)
	}

	// Un-tenanted routes alias the default tenant, which here runs open
	// (no secret) — the single-fleet back-compat posture.
	legacy := &worker.Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
	if _, err := newWorker(1).Step(ctx, legacy); err != nil {
		t.Fatalf("legacy route: %v", err)
	}
	openSt, err := legacy.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if openSt.Tenant == nil || openSt.Tenant.Name != "open" {
		t.Fatalf("legacy stats tenant block = %+v, want name open", openSt.Tenant)
	}

	// The adversarial traffic above landed on locked's counters, not open's.
	lockedUnit, _ := reg.Resolve("locked")
	if got := lockedUnit.statsBlock().AuthRejects; got < 2 {
		t.Errorf("locked auth_rejects = %d, want >= 2", got)
	}
	openUnit, _ := reg.Resolve("open")
	if got := openUnit.statsBlock().AuthRejects; got != 0 {
		t.Errorf("open auth_rejects = %d, want 0", got)
	}
}

// TestBearerSchemeIsCaseInsensitive: the auth scheme of an Authorization
// header matches in any case (RFC 7235 §2.1), so "bearer <token>"
// authenticates a tenant-scoped task request like "Bearer <token>" does.
func TestBearerSchemeIsCaseInsensitive(t *testing.T) {
	reg, err := newRegistry(t, "locked",
		Config{Name: "locked", Arch: "softmax-mnist", Secret: "locked-secret"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(reg.Handler())
	defer hs.Close()
	token := MintToken([]byte("locked-secret"), "locked", 0)

	for auth, want := range map[string]int{
		"bearer " + token: http.StatusOK,
		"BEARER " + token: http.StatusOK,
		"Basic " + token:  http.StatusUnauthorized,
		"":                http.StatusUnauthorized,
	} {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/t/locked/task", strings.NewReader(`{"worker_id":0}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", protocol.JSON.ContentType())
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("Authorization %q: status %d, want %d", auth, resp.StatusCode, want)
		}
	}
}
