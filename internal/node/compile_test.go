package node

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"fleet/internal/persist"
	"fleet/internal/tenant"
)

// rootSpec is a minimal valid root Spec; tests doctor copies of it.
func rootSpec() Spec {
	return Spec{
		Role:            RoleRoot,
		LearningRate:    0.05,
		NonStragglerPct: 99.7,
		K:               1,
		Stages:          "staleness",
		Aggregator:      "mean",
		Bind:            BindSpec{Transport: "none", Drain: time.Second},
		Logf:            func(string, ...interface{}) {},
	}
}

func TestFromSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		doctor  func(*Spec)
		wantErr string
	}{
		{"unknown transport", func(s *Spec) { s.Bind.Transport = "carrier-pigeon" },
			`unknown -transport "carrier-pigeon"`},
		{"unknown role", func(s *Spec) { s.Role = "relay" },
			`unknown node role "relay"`},
		{"unknown arch", func(s *Spec) { s.Arch = "resnet-9000" }, "resnet-9000"},
		{"unknown stage", func(s *Spec) { s.Stages = "warp-drive" }, "known stages:"},
		{"unknown admission policy", func(s *Spec) { s.Admission = "vibes(1)" }, "known admission policies:"},
		{"unknown recover policy", func(s *Spec) {
			s.Checkpoint = CheckpointSpec{Dir: t.TempDir(), Recover: "bogus"}
		}, `unknown -checkpoint-recover "bogus"`},
		{"edge without upstream", func(s *Spec) { s.Role = RoleEdge }, "-upstream is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := rootSpec()
			tc.doctor(&s)
			_, err := FromSpec(s)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("FromSpec error = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestNonStragglerPctDefaultsAndValidates: an unset AdaSGD percentile
// compiles (as 99.7) and an out-of-range one is a returned error — never
// the learning package's constructor panic — for the single-model root,
// the edge and a tenant of a multi-tenant root alike.
func TestNonStragglerPctDefaultsAndValidates(t *testing.T) {
	upstream, err := FromSpec(rootSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = upstream.Close() }()
	roles := map[string]func(pct float64) Spec{
		"root": func(pct float64) Spec {
			s := rootSpec()
			s.NonStragglerPct = pct
			return s
		},
		"edge": func(pct float64) Spec {
			s := rootSpec()
			s.Role, s.Arch, s.NonStragglerPct = RoleEdge, "tiny-mnist", pct
			s.Upstream.Service = upstream.Service()
			return s
		},
		"tenant": func(pct float64) Spec {
			s := rootSpec()
			s.Tenants = []tenant.Config{{Name: "alpha", K: 1, NonStragglerPct: pct}}
			return s
		},
	}
	for role, spec := range roles {
		for _, tc := range []struct {
			pct     float64
			wantErr bool
		}{{0, false}, {99.7, false}, {100, false}, {-1, true}, {100.5, true}, {math.NaN(), true}} {
			s := spec(tc.pct)
			rt, err := FromSpec(s)
			switch {
			case tc.wantErr && (err == nil || !strings.Contains(err.Error(), "NonStragglerPct")):
				t.Errorf("%s with %v: error = %v, want a NonStragglerPct error", role, tc.pct, err)
			case !tc.wantErr && err != nil:
				t.Errorf("%s with %v: %v", role, tc.pct, err)
			}
			if role == "tenant" && s.Tenants[0].NonStragglerPct != tc.pct && !math.IsNaN(tc.pct) {
				t.Errorf("FromSpec rewrote the caller's tenant config to %v", s.Tenants[0].NonStragglerPct)
			}
			if rt != nil {
				_ = rt.Close()
			}
		}
	}
}

func TestRecoverLatestRequiresCheckpoint(t *testing.T) {
	s := rootSpec()
	s.Checkpoint = CheckpointSpec{Dir: t.TempDir(), Recover: "latest"}
	_, err := FromSpec(s)
	if !errors.Is(err, persist.ErrNoCheckpoint) {
		t.Fatalf("recover=latest on empty dir = %v, want ErrNoCheckpoint", err)
	}
	if !strings.Contains(err.Error(), "-checkpoint-recover=fresh") {
		t.Fatalf("error %v should hint at -checkpoint-recover=fresh", err)
	}
}

// TestBootNonceBumpsEpochOnFreshRestarts is the checkpoint-less-restart
// coverage: the FIRST fresh boot in a state directory is genuinely
// incarnation 0 (pre-nonce behavior, bit-for-bit), but every later fresh
// boot — no checkpoint to restore — must come up with a new nonzero
// epoch, so workers holding epoch-0 state from the dead instance resync
// instead of colliding.
func TestBootNonceBumpsEpochOnFreshRestarts(t *testing.T) {
	dir := t.TempDir()
	boot := func() int64 {
		s := rootSpec()
		s.Checkpoint = CheckpointSpec{Dir: dir, Recover: "fresh"}
		rt, err := FromSpec(s)
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		defer rt.Close()
		return rt.Server().Epoch()
	}
	if e := boot(); e != 0 {
		t.Fatalf("first fresh boot epoch = %d, want 0", e)
	}
	second := boot()
	if second == 0 {
		t.Fatal("second checkpoint-less restart reused epoch 0; workers from the dead instance would collide")
	}
	third := boot()
	if third == 0 || third == second {
		t.Fatalf("third restart epoch %d must be nonzero and differ from the second's %d", third, second)
	}
	// Determinism: the same (seed, boot sequence) in a fresh directory
	// replays the same epoch sequence — the property the load harness's
	// bit-for-bit replay leans on.
	dir2 := t.TempDir()
	replay := func() int64 {
		s := rootSpec()
		s.Checkpoint = CheckpointSpec{Dir: dir2, Recover: "fresh"}
		rt, err := FromSpec(s)
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		defer rt.Close()
		return rt.Server().Epoch()
	}
	if e := replay(); e != 0 {
		t.Fatalf("replayed first boot epoch = %d, want 0", e)
	}
	if e := replay(); e != second {
		t.Fatalf("replayed second boot epoch = %d, want %d (deterministic nonce)", e, second)
	}
}

// TestBootNonceViaNonceDirWithoutCheckpoints: a node with no checkpoint
// directory at all opts into restart protection through NonceDir alone.
func TestBootNonceViaNonceDirWithoutCheckpoints(t *testing.T) {
	dir := t.TempDir()
	boot := func() int64 {
		s := rootSpec()
		s.Checkpoint = CheckpointSpec{NonceDir: dir}
		rt, err := FromSpec(s)
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		defer rt.Close()
		return rt.Server().Epoch()
	}
	if e := boot(); e != 0 {
		t.Fatalf("first boot epoch = %d, want 0", e)
	}
	if e := boot(); e == 0 {
		t.Fatal("checkpoint-less restart with NonceDir reused epoch 0")
	}
}

// TestHarnessBootsKeepEpochZero: Recover "" (the load harness's path)
// without an explicit NonceDir always boots epoch 0, even across
// rebuilds against the same checkpoint directory — replayed runs must
// not accumulate boot state.
func TestHarnessBootsKeepEpochZero(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		s := rootSpec()
		s.Checkpoint = CheckpointSpec{Dir: dir, Every: 1, Recover: ""}
		rt, err := FromSpec(s)
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		if e := rt.Server().Epoch(); e != 0 {
			t.Fatalf("harness boot %d epoch = %d, want 0 (nonce is opt-in)", i, e)
		}
		rt.Close()
	}
}

// TestCheckpointRestoreChainBeatsNonce: with a real checkpoint present,
// recover=fresh restores it — the epoch comes from the checkpoint chain
// (small integers), not the nonce hash.
func TestCheckpointRestoreChainBeatsNonce(t *testing.T) {
	dir := t.TempDir()
	s := rootSpec()
	s.Checkpoint = CheckpointSpec{Dir: dir, Every: 1, Recover: "fresh"}
	rt, err := FromSpec(s)
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	if _, err := rt.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rt2, err := FromSpec(s)
	if err != nil {
		t.Fatalf("restore FromSpec: %v", err)
	}
	defer rt2.Close()
	if e := rt2.Server().Epoch(); e != 1 {
		t.Fatalf("restored epoch = %d, want 1 (checkpoint chain, not nonce)", e)
	}
}
