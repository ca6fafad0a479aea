package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fleet/internal/learning"
)

func sampleState(version int) *State {
	return &State{
		Arch:        "softmax-mnist",
		Version:     version,
		Params:      []float64{0.25, -1.5, 3.125, 0}, // dyadic: exact across encodings
		GradientsIn: 7,
		StaleSum:    4.5,
		TasksServed: 9,
		AdaSGD:      &learning.AdaSGDState{Seen: 7, Staleness: learning.StalenessState{Values: []int{0, 1, 0, 2}}},
		Labels:      &learning.LabelState{Counts: []float64{1, 2, 3}, Total: 6},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleState(5)
	path, err := c.Save(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Arch != want.Arch || got.GradientsIn != want.GradientsIn {
		t.Fatalf("core state changed: %+v vs %+v", got, want)
	}
	for i, p := range want.Params {
		if got.Params[i] != p {
			t.Fatalf("param %d: %v != %v", i, got.Params[i], p)
		}
	}
	if got.AdaSGD == nil || got.AdaSGD.Seen != 7 || len(got.AdaSGD.Staleness.Values) != 4 {
		t.Fatalf("AdaSGD state changed: %+v", got.AdaSGD)
	}
	if got.Labels == nil || got.Labels.Total != 6 {
		t.Fatalf("label state changed: %+v", got.Labels)
	}
}

func TestLoadLatestPicksNewestAndPrunes(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCheckpointer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 5; v++ {
		if _, err := c.Save(sampleState(v)); err != nil {
			t.Fatal(err)
		}
	}
	st, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 5 {
		t.Fatalf("latest = version %d, want 5 (%s)", st.Version, path)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("retention keep=2 left %d files", len(files))
	}
}

// TestSequenceSurvivesRestart: a second Checkpointer over the same dir must
// continue the sequence (its files sort as newer), even when the restored
// logical version went backwards.
func TestSequenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCheckpointer(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Save(sampleState(10)); err != nil {
		t.Fatal(err)
	}
	// "Restart": restore went back to version 4, then re-checkpointed.
	c2, err := NewCheckpointer(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Save(sampleState(4)); err != nil {
		t.Fatal(err)
	}
	st, _, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 4 {
		t.Fatalf("latest = version %d, want the re-checkpointed 4", st.Version)
	}
}

func TestEmptyDirIsErrNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadLatest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v, want ErrNoCheckpoint", err)
	}
	// A dir with only unrelated files is still "no checkpoint".
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("unrelated files: %v, want ErrNoCheckpoint", err)
	}
}

func TestTruncatedFileIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCheckpointer(dir, 0)
	path, err := c.Save(sampleState(3))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated load: %v, want *CorruptError", err)
	}
}

func TestBitFlipIsChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCheckpointer(dir, 0)
	path, err := c.Save(sampleState(3))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-10] ^= 0xff // flip payload bits, envelope still decodes
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("bit-flipped load: %v, want *CorruptError", err)
	}
}

func TestGarbageFileIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt-1-0.fleet")
	if err := os.WriteFile(path, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "envelope") {
		t.Fatalf("garbage load: %v", err)
	}
}

// TestFormatOneIsRefused: a checkpoint in the retired gzip format is refused
// as corrupt by its format number, never handed to the decoder.
func TestFormatOneIsRefused(t *testing.T) {
	blob, err := encodeState(sampleState(3))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	env.Format = 1
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(env); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt-3-0.fleet")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "unknown format 1") {
		t.Fatalf("format-1 load: %v, want *CorruptError with unknown format 1", err)
	}
}

// TestLoadLatestSkipsCorruptNewest: a torn newest file must not mask the
// valid checkpoint under it.
func TestLoadLatestSkipsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCheckpointer(dir, 10)
	if _, err := c.Save(sampleState(7)); err != nil {
		t.Fatal(err)
	}
	newest, err := c.Save(sampleState(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, 10); err != nil {
		t.Fatal(err)
	}
	st, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 7 {
		t.Fatalf("fallback loaded version %d from %s, want 7", st.Version, path)
	}
	// When every file is corrupt, the corruption (not ErrNoCheckpoint)
	// surfaces.
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if err := os.Truncate(filepath.Join(dir, f.Name()), 4); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = LoadLatest(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("all-corrupt dir: %v, want *CorruptError", err)
	}
}

func TestSaveIsAtomicNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCheckpointer(dir, 1)
	for v := 0; v < 4; v++ {
		if _, err := c.Save(sampleState(v)); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !fileRe.MatchString(f.Name()) {
			t.Fatalf("stray file %q left behind", f.Name())
		}
	}
	if len(files) != 1 {
		t.Fatalf("keep=1 left %d files", len(files))
	}
}

// TestSaveFailsWhenDirectoryCannotBeOpened: the rename is durable only once
// the directory is fsynced, so a directory Save cannot open for that fsync
// fails the save (and a server counts it in CheckpointErrors) instead of
// reporting a checkpoint that may not survive a power loss.
func TestSaveFailsWhenDirectoryCannotBeOpened(t *testing.T) {
	c, err := NewCheckpointer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func(open func(string) (*os.File, error)) { openDir = open }(openDir)
	openDir = func(name string) (*os.File, error) {
		return nil, &os.PathError{Op: "open", Path: name, Err: errors.New("injected failure")}
	}
	if _, err := c.Save(sampleState(1)); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Save with an unopenable directory: got %v, want the open error", err)
	}
	openDir = os.Open
	if _, err := c.Save(sampleState(2)); err != nil {
		t.Fatalf("the next save, with the directory back: %v", err)
	}
}
