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
		{"unknown stage", func(s *Spec) { s.Stages = "warp-drive" },
			`unknown stage "warp-drive" (known: dp, norm-filter, staleness)`},
		{"unknown admission policy", func(s *Spec) { s.Admission = "vibes(1)" },
			`unknown admission policy "vibes" (known: iprof-energy, iprof-time, min-batch, per-worker-quota, similarity)`},
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

// TestNegativeKnobsRefused: a negative count, bound, rate or period is
// refused by name on both roles, never read as its default or as "off";
// a negative DeltaHistory keeps its meaning (no delta history).
func TestNegativeKnobsRefused(t *testing.T) {
	upstream, err := FromSpec(rootSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = upstream.Close() }()
	roles := map[string]func() Spec{
		"root": rootSpec,
		"edge": func() Spec {
			s := rootSpec()
			s.Role, s.Arch = RoleEdge, "tiny-mnist"
			s.Upstream.Service = upstream.Service()
			return s
		},
	}
	knobs := map[string]func(*Spec){
		"K":                func(s *Spec) { s.K = -1 },
		"DefaultBatchSize": func(s *Spec) { s.DefaultBatchSize = -1 },
		"TimeSLO":          func(s *Spec) { s.TimeSLO = -1 },
		"EnergySLO":        func(s *Spec) { s.EnergySLO = -1 },
		"MinBatch":         func(s *Spec) { s.MinBatch = -5 },
		"MaxSimilarity":    func(s *Spec) { s.MaxSimilarity = -0.5 },
		"RateLimit":        func(s *Spec) { s.RateLimit = -1 },
		"RateBurst":        func(s *Spec) { s.RateBurst = -1 },
		"Deadline":         func(s *Spec) { s.Deadline = -time.Second },
		"Checkpoint.Every": func(s *Spec) { s.Checkpoint.Every = -3 },
		"Checkpoint.Keep":  func(s *Spec) { s.Checkpoint.Keep = -2 },
	}
	for role, spec := range roles {
		for name, doctor := range knobs {
			s := spec()
			doctor(&s)
			rt, err := FromSpec(s)
			if err == nil || !strings.Contains(err.Error(), name+" ") {
				t.Errorf("%s with a negative %s: error = %v, want one naming it", role, name, err)
			}
			if rt != nil {
				_ = rt.Close()
			}
		}
		s := spec()
		s.DeltaHistory = -1
		rt, err := FromSpec(s)
		if err != nil {
			t.Errorf("%s with DeltaHistory -1: %v", role, err)
		} else {
			_ = rt.Close()
		}
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
// instead of colliding. Recover "" is "fresh".
func TestBootNonceBumpsEpochOnFreshRestarts(t *testing.T) {
	for _, recover := range []string{"fresh", ""} {
		t.Run("recover="+recover, func(t *testing.T) {
			bootIn := func(dir string) int64 {
				s := rootSpec()
				s.Checkpoint = CheckpointSpec{Dir: dir, Recover: recover}
				rt, err := FromSpec(s)
				if err != nil {
					t.Fatalf("FromSpec: %v", err)
				}
				defer rt.Close()
				return rt.Server().Epoch()
			}
			dir := t.TempDir()
			if e := bootIn(dir); e != 0 {
				t.Fatalf("first fresh boot epoch = %d, want 0", e)
			}
			second := bootIn(dir)
			if second == 0 {
				t.Fatal("second checkpoint-less restart reused epoch 0; workers from the dead instance would collide")
			}
			third := bootIn(dir)
			if third == 0 || third == second {
				t.Fatalf("third restart epoch %d must be nonzero and differ from the second's %d", third, second)
			}
			// Determinism: the same (seed, boot sequence) in a fresh directory
			// replays the same epoch sequence — the property the load harness's
			// bit-for-bit replay leans on.
			dir2 := t.TempDir()
			if e := bootIn(dir2); e != 0 {
				t.Fatalf("replayed first boot epoch = %d, want 0", e)
			}
			if e := bootIn(dir2); e != second {
				t.Fatalf("replayed second boot epoch = %d, want %d (deterministic nonce)", e, second)
			}
		})
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

// TestCheckpointRestoreChainBeatsNonce: with a real checkpoint present,
// recover=fresh (or "", which means it) restores it — the epoch comes from
// the checkpoint chain (small integers), not the nonce hash.
func TestCheckpointRestoreChainBeatsNonce(t *testing.T) {
	for _, recover := range []string{"fresh", ""} {
		t.Run("recover="+recover, func(t *testing.T) {
			s := rootSpec()
			s.Checkpoint = CheckpointSpec{Dir: t.TempDir(), Every: 1, Recover: recover}
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
		})
	}
}
