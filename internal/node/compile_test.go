package node

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fleet/internal/persist"
	"fleet/internal/protocol"
	"fleet/internal/server"
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
		{"unknown recover policy, one tenant", func(s *Spec) {
			s.Checkpoint = CheckpointSpec{Dir: t.TempDir(), Recover: "bogus"}
			s.Tenants = []tenant.Config{{Name: "solo"}}
		}, `unknown -checkpoint-recover "bogus"`},
		{"edge without upstream", func(s *Spec) { s.Role = RoleEdge }, "-upstream is required"},
		{"NaN learning rate", func(s *Spec) { s.LearningRate = math.NaN() }, "LearningRate NaN is not a number"},
		{"NaN time SLO", func(s *Spec) { s.TimeSLO = math.NaN() }, "TimeSLO NaN is not a number"},
		{"NaN energy SLO", func(s *Spec) { s.EnergySLO = math.NaN() }, "EnergySLO NaN is not a number"},
		{"NaN max similarity", func(s *Spec) { s.MaxSimilarity = math.NaN() }, "MaxSimilarity NaN is not a number"},
		{"NaN rate limit", func(s *Spec) { s.RateLimit = math.NaN() }, "RateLimit NaN is not a number"},
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

// TestNegativeKnobsRefused: a negative count, bound, rate or period, and a
// NaN float knob, is refused by name and as invalid_argument on both roles,
// never read as its default or as "off"; a negative DeltaHistory keeps its
// meaning (no delta history).
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
		"LearningRate":     func(s *Spec) { s.LearningRate = -0.1 },
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
	nan := math.NaN()
	nanKnobs := map[string]func(*Spec){
		"LearningRate":  func(s *Spec) { s.LearningRate = nan },
		"TimeSLO":       func(s *Spec) { s.TimeSLO = nan },
		"EnergySLO":     func(s *Spec) { s.EnergySLO = nan },
		"MaxSimilarity": func(s *Spec) { s.MaxSimilarity = nan },
		"RateLimit":     func(s *Spec) { s.RateLimit = nan },
	}
	for role, spec := range roles {
		for what, doctors := range map[string]map[string]func(*Spec){"a negative": knobs, "a NaN": nanKnobs} {
			for name, doctor := range doctors {
				s := spec()
				doctor(&s)
				rt, err := FromSpec(s)
				if !protocol.IsCode(err, protocol.CodeInvalidArgument) || !strings.Contains(err.Error(), name+" ") {
					t.Errorf("%s with %s %s: error = %v, want an invalid_argument naming it", role, what, name, err)
				}
				if rt != nil {
					_ = rt.Close()
				}
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
// the edge (its Arch unset too) and a tenant of a multi-tenant root alike.
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
			s.Role, s.NonStragglerPct = RoleEdge, pct
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

// shapes are the two ways a root boots a state directory, under one boot
// rule: a single-model root keeps its state in the directory itself, the
// unit of a one-tenant deployment in <dir>/solo.
var shapes = []struct {
	name  string
	spec  func(CheckpointSpec) Spec
	state func(dir string) string
}{
	{"root", func(ck CheckpointSpec) Spec {
		s := rootSpec()
		s.Arch, s.Checkpoint = "softmax-mnist", ck
		return s
	}, func(dir string) string { return dir }},
	{"tenant", func(ck CheckpointSpec) Spec {
		s := rootSpec()
		s.Checkpoint, s.Tenants = ck, []tenant.Config{{Name: "solo", Arch: "softmax-mnist"}}
		return s
	}, func(dir string) string { return filepath.Join(dir, "solo") }},
}

// served is the parameter server a root of either shape boots.
func served(rt *Runtime) *server.Server {
	if srv := rt.Server(); srv != nil {
		return srv
	}
	return rt.Assembly().Children[0].Server
}

func TestRecoverLatestRequiresCheckpoint(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			_, err := FromSpec(sh.spec(CheckpointSpec{Dir: t.TempDir(), Recover: "latest"}))
			if !errors.Is(err, persist.ErrNoCheckpoint) {
				t.Fatalf("recover=latest on empty dir = %v, want ErrNoCheckpoint", err)
			}
			if !strings.Contains(err.Error(), "-checkpoint-recover=fresh") {
				t.Fatalf("error %v should hint at -checkpoint-recover=fresh", err)
			}
		})
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
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					bootIn := func(dir string) int64 {
						rt, err := FromSpec(sh.spec(CheckpointSpec{Dir: dir, Recover: recover}))
						if err != nil {
							t.Fatalf("FromSpec: %v", err)
						}
						defer rt.Close()
						return served(rt).Epoch()
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
		})
	}
}

// TestBootNonceViaNonceDirWithoutCheckpoints: a node with no checkpoint
// directory at all opts into restart protection through NonceDir alone.
func TestBootNonceViaNonceDirWithoutCheckpoints(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			boot := func() int64 {
				rt, err := FromSpec(sh.spec(CheckpointSpec{NonceDir: dir}))
				if err != nil {
					t.Fatalf("FromSpec: %v", err)
				}
				defer rt.Close()
				return served(rt).Epoch()
			}
			if e := boot(); e != 0 {
				t.Fatalf("first boot epoch = %d, want 0", e)
			}
			if e := boot(); e == 0 {
				t.Fatal("checkpoint-less restart with NonceDir reused epoch 0")
			}
			if _, err := os.Stat(filepath.Join(sh.state(dir), "boot-count")); err != nil {
				t.Fatalf("the boot count is not where the unit's state lives: %v", err)
			}
		})
	}
}

// TestCheckpointRestoreChainBeatsNonce: with a real checkpoint present,
// recover=fresh (or "", which means it) restores it, at its version and at
// the epoch the directory's boot count mints like any other boot's:
// nonzero, not the dead instance's, and a new one for every restore of the
// same checkpoint. The last is the crash loop: a restored instance dies
// before it writes a checkpoint of its own, and a worker that cached
// (epoch, version) from it must not find its successor under the same name,
// or the successor's deltas would patch the first's parameters.
func TestCheckpointRestoreChainBeatsNonce(t *testing.T) {
	for _, recover := range []string{"fresh", ""} {
		t.Run("recover="+recover, func(t *testing.T) {
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					s := sh.spec(CheckpointSpec{Dir: t.TempDir(), Every: 1, Recover: recover})
					rt, err := FromSpec(s)
					if err != nil {
						t.Fatalf("FromSpec: %v", err)
					}
					dead := served(rt).Epoch()
					drive(t, rt.Service(), "softmax-mnist", 3)
					if _, err := rt.Checkpoint(); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
					if err := rt.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					seen := map[int64]bool{dead: true}
					for i := 0; i < 2; i++ {
						rt2, err := FromSpec(s)
						if err != nil {
							t.Fatalf("restore %d: %v", i, err)
						}
						srv := served(rt2)
						e, v := srv.Epoch(), srv.RestoredVersion()
						_ = rt2.Kill()
						if v != 3 {
							t.Fatalf("restore %d is at version %d, want the checkpoint's 3", i, v)
						}
						if e == 0 || seen[e] {
							t.Fatalf("restore %d booted epoch %d, want nonzero and unlike %v", i, e, seen)
						}
						seen[e] = true
					}
				})
			}
		})
	}
}

// TestRestoreWithoutBootCountSkipsTheCheckpointEpoch: a checkpoint that
// arrived in a directory without its boot count (copied, or the count
// deleted) starts the count over, and the count's first nonce is 0 — the
// epoch a first boot's checkpoint carries. The restore must neither boot
// that epoch nor be refused for it.
func TestRestoreWithoutBootCountSkipsTheCheckpointEpoch(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			s := sh.spec(CheckpointSpec{Dir: dir, Recover: "fresh"})
			rt, err := FromSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			ckptEpoch := served(rt).Epoch()
			if _, err := rt.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			_ = rt.Kill()
			if err := os.Remove(filepath.Join(sh.state(dir), "boot-count")); err != nil {
				t.Fatal(err)
			}
			rt, err = FromSpec(s)
			if err != nil {
				t.Fatalf("restore without a boot count: %v", err)
			}
			defer func() { _ = rt.Kill() }()
			if e := served(rt).Epoch(); e == ckptEpoch {
				t.Fatalf("restore booted the checkpoint's own epoch %d", e)
			}
		})
	}
}

// TestRefusedBootLeavesNoBootCount: a boot refused for its checkpoint
// directory — "latest" on an empty one, or only corrupt files — is refused
// before the boot count is drawn, so the first boot that does go ahead is
// still the directory's first.
func TestRefusedBootLeavesNoBootCount(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			empty := t.TempDir()
			corrupt := t.TempDir()
			if err := os.MkdirAll(sh.state(corrupt), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sh.state(corrupt), "ckpt-3-0.fleet"), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			var corruptErr *persist.CorruptError
			for _, tc := range []struct {
				dir, recover string
				want         func(error) bool
			}{
				{empty, "latest", func(err error) bool { return errors.Is(err, persist.ErrNoCheckpoint) }},
				{corrupt, "latest", func(err error) bool { return errors.As(err, &corruptErr) }},
				{corrupt, "fresh", func(err error) bool { return errors.As(err, &corruptErr) }},
			} {
				rt, err := FromSpec(sh.spec(CheckpointSpec{Dir: tc.dir, Recover: tc.recover}))
				if err == nil {
					_ = rt.Close()
					t.Fatalf("recover=%s in %s booted", tc.recover, tc.dir)
				}
				if !tc.want(err) {
					t.Fatalf("recover=%s in %s: unexpected error %v", tc.recover, tc.dir, err)
				}
				if _, err := os.Stat(filepath.Join(sh.state(tc.dir), "boot-count")); !os.IsNotExist(err) {
					t.Fatalf("refused boot (recover=%s) left a boot-count behind: %v", tc.recover, err)
				}
			}
		})
	}
}
