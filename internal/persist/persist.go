// Package persist makes the FLeet parameter server crash-safe: it writes
// versioned, checksummed, atomically-renamed checkpoints of everything the
// server has learned — the model snapshot {version, params}, AdaSGD's
// staleness history, LD_global, and both I-Prof profiler models — and loads
// the latest valid one back after a restart.
//
// Production middleware treats node restart as a first-class scenario, not
// an error: without a checkpoint, a SIGKILL loses every byte of learned
// progress and reboots the logical clock to 0, permanently wedging every
// live worker (their cached-version pushes are rejected as coming "from the
// future" with no recovery path). With one, the server restores the newest
// durable state and the fleet resyncs on its own (see internal/worker's
// resync protocol).
//
// File format (one checkpoint per file, ckpt-<version>-<seq>.fleet):
//
//	gob{ Magic, Format, SHA256, Payload }
//
// where Payload is the gob encoding of State and SHA256 is its checksum.
// Format 1 gzipped the payload; gzip saved 8.9 % of a trained cifar100
// checkpoint (2.92 → 2.66 MB: float64 parameters compress badly) and cost
// most of the encode time, so format 2 writes the gob as is and refuses a
// format-1 file as corrupt. Writes go to a temp file in the same
// directory, are synced, and renamed into place, so a crash mid-write never
// corrupts an existing checkpoint — at worst it leaves a stray .tmp file
// that loading ignores. Every load failure is a structured error
// (ErrNoCheckpoint or a *CorruptError): callers decide whether a fresh boot
// is acceptable, the package never silently invents one.
//
// What is deliberately NOT persisted: the delta history (restored servers
// serve full pulls until the history refills at drain time), in-flight
// aggregation windows (a hard kill loses the uncommitted window — workers
// simply push into the next one), and per-policy admission state such as
// quota buckets (admission is rate control, not learned state).
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"fleet/internal/iprof"
	"fleet/internal/learning"
)

const (
	// magic identifies a FLeet checkpoint file.
	magic = "fleet-checkpoint"
	// formatVersion is bumped on incompatible State changes; readers reject
	// formats they do not know instead of misdecoding them.
	formatVersion = 2
)

// ErrNoCheckpoint reports that the checkpoint directory holds no checkpoint
// at all — a first boot, not a corruption. Callers that allow fresh boots
// (fleet-server -checkpoint-recover=fresh) test for it with errors.Is.
var ErrNoCheckpoint = errors.New("persist: no checkpoint found")

// CorruptError reports a checkpoint file that exists but cannot be trusted:
// truncated, checksum mismatch, wrong magic or format, or undecodable.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("persist: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// State is everything one checkpoint captures. The model core (Arch,
// Version, Params) is captured atomically under the server's model lock;
// the learning-state blocks are snapshotted immediately after, so they may
// trail the model by the handful of pushes that landed in between — they
// only tune scaling heuristics, never model correctness, so a restored
// server is consistent where it matters and self-corrects where it is not.
type State struct {
	// Arch is the architecture name (nn.Arch.String()); Restore rejects a
	// checkpoint whose architecture does not match the booting config.
	Arch string
	// Epoch is the incarnation counter of the server that wrote the
	// checkpoint; restoring boots incarnation Epoch+1, so version numbers
	// from the dead instance are never confused with the restored clock's
	// re-walked ones.
	Epoch int64
	// Version is the logical clock; Params the full model vector at it.
	Version int
	Params  []float64

	// Push-path counters, so diagnostics survive a restart.
	// LeafGradients counts the individual worker gradients behind
	// GradientsIn (they diverge when an edge-aggregator tier fronts this
	// server); zero in pre-tree checkpoints, which gob decodes fine.
	GradientsIn   int
	LeafGradients int
	StaleSum      float64
	TasksServed   int64
	TasksDropped  int64

	// AdaSGD is the staleness history behind τ_thres (nil when the server's
	// algorithm keeps no state).
	AdaSGD *learning.AdaSGDState
	// Labels is LD_global.
	Labels *learning.LabelState
	// TimeProfiler/EnergyProfiler are the I-Prof models (nil when the
	// matching profiler is not configured).
	TimeProfiler   *iprof.State
	EnergyProfiler *iprof.State
}

// envelope is the on-disk frame around the payload.
type envelope struct {
	Magic   string
	Format  int
	SHA256  [sha256.Size]byte
	Payload []byte
}

// fileRe matches checkpoint file names: ckpt-<version>-<seq>.fleet. The
// sequence number disambiguates multiple checkpoints of the same logical
// version (a restored server re-checkpoints version v before advancing).
var fileRe = regexp.MustCompile(`^ckpt-(\d+)-(\d+)\.fleet$`)

// Checkpointer writes checkpoints into one directory and prunes old ones.
// Safe for concurrent use; saves are serialized.
type Checkpointer struct {
	dir  string
	keep int

	mu  sync.Mutex
	seq int
}

// NewCheckpointer opens (creating if needed) a checkpoint directory. keep
// bounds how many checkpoint files are retained (minimum 1; default 3) —
// keeping more than one means a corruption of the newest file still leaves
// a valid, slightly older state to boot from.
func NewCheckpointer(dir string, keep int) (*Checkpointer, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty checkpoint directory")
	}
	if keep <= 0 {
		keep = 3
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	c := &Checkpointer{dir: dir, keep: keep}
	// Resume the sequence past any existing files, so a restarted server
	// never reuses (and clobbers) a live checkpoint name.
	if files, err := listCheckpoints(dir); err == nil && len(files) > 0 {
		c.seq = files[len(files)-1].seq + 1
	}
	return c, nil
}

// openDir opens the checkpoint directory for its fsync; tests swap it to
// make the open fail.
var openDir = os.Open

// Save writes st as a new checkpoint file: encode, checksum, write to a
// temp file, fsync, rename into place, prune old files. It returns the
// final path.
func (c *Checkpointer) Save(st *State) (string, error) {
	if st == nil {
		return "", fmt.Errorf("persist: nil state")
	}
	blob, err := encodeState(st)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	name := fmt.Sprintf("ckpt-%d-%d.fleet", st.Version, c.seq)
	c.seq++
	final := filepath.Join(c.dir, name)

	tmp, err := os.CreateTemp(c.dir, name+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("persist: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(blob); err != nil {
		_ = tmp.Close()
		cleanup()
		return "", fmt.Errorf("persist: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		cleanup()
		return "", fmt.Errorf("persist: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return "", fmt.Errorf("persist: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		cleanup()
		return "", fmt.Errorf("persist: rename: %w", err)
	}
	// Fsync the directory too: the rename is only durable once the
	// directory entry is — without this, a power loss right after Save
	// returns could make the checkpoint vanish on reboot. A directory that
	// cannot be opened is a failed save, not a skipped step.
	d, err := openDir(c.dir)
	if err != nil {
		return "", fmt.Errorf("persist: %w", err)
	}
	syncErr := d.Sync()
	_ = d.Close()
	if syncErr != nil {
		return "", fmt.Errorf("persist: sync %s: %w", c.dir, syncErr)
	}
	c.pruneLocked()
	return final, nil
}

// pruneLocked removes all but the newest keep checkpoint files (and any
// stale temp files). Callers hold c.mu. Best effort: pruning failures never
// fail a save.
func (c *Checkpointer) pruneLocked() {
	files, err := listCheckpoints(c.dir)
	if err != nil {
		return
	}
	for len(files) > c.keep {
		_ = os.Remove(filepath.Join(c.dir, files[0].name))
		files = files[1:]
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && !fileRe.MatchString(e.Name()) && filepath.Ext(e.Name()) != ".fleet" {
			// A crash between CreateTemp and Rename leaves .tmp files.
			if ok, _ := filepath.Match("ckpt-*.tmp-*", e.Name()); ok {
				_ = os.Remove(filepath.Join(c.dir, e.Name()))
			}
		}
	}
}

// LoadLatest loads the newest valid checkpoint in dir, skipping over corrupt
// files (a torn newest file must not mask the good state under it). It
// returns ErrNoCheckpoint when the directory holds no checkpoint files at
// all, and the newest file's *CorruptError when files exist but none loads.
func LoadLatest(dir string) (*State, string, error) {
	files, err := listCheckpoints(dir)
	if err != nil {
		return nil, "", fmt.Errorf("persist: %w", err)
	}
	if len(files) == 0 {
		return nil, "", fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
	}
	var firstErr error
	for i := len(files) - 1; i >= 0; i-- {
		path := filepath.Join(dir, files[i].name)
		st, err := Load(path)
		if err == nil {
			return st, path, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, "", firstErr
}

// Load reads and verifies one checkpoint file.
func Load(path string) (*State, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("undecodable envelope (truncated?): %v", err)}
	}
	if env.Magic != magic {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("bad magic %q", env.Magic)}
	}
	if env.Format != formatVersion {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("unknown format %d (this build reads %d)", env.Format, formatVersion)}
	}
	if sum := sha256.Sum256(env.Payload); sum != env.SHA256 {
		return nil, &CorruptError{Path: path, Reason: "checksum mismatch"}
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&st); err != nil {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("undecodable state: %v", err)}
	}
	if len(st.Params) == 0 {
		return nil, &CorruptError{Path: path, Reason: "state has no model parameters"}
	}
	return &st, nil
}

// encodeState frames st as the on-disk blob.
func encodeState(st *State) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return nil, fmt.Errorf("persist: encode state: %w", err)
	}
	env := envelope{
		Magic:   magic,
		Format:  formatVersion,
		SHA256:  sha256.Sum256(payload.Bytes()),
		Payload: payload.Bytes(),
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(env); err != nil {
		return nil, fmt.Errorf("persist: encode envelope: %w", err)
	}
	return out.Bytes(), nil
}

// ckptFile is one parsed checkpoint file name.
type ckptFile struct {
	name    string
	version int
	seq     int
}

// listCheckpoints returns the directory's checkpoint files sorted oldest →
// newest. The sequence number is the recency key — it is monotonic across
// restarts (NewCheckpointer resumes past existing files), whereas the
// logical version can move backwards after a restore from an older
// checkpoint. Version breaks ties.
func listCheckpoints(dir string) ([]ckptFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []ckptFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := fileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		v, err1 := strconv.Atoi(m[1])
		s, err2 := strconv.Atoi(m[2])
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, ckptFile{name: e.Name(), version: v, seq: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].seq != out[j].seq {
			return out[i].seq < out[j].seq
		}
		return out[i].version < out[j].version
	})
	return out, nil
}
