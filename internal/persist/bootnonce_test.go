package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBootNonceFirstBoot: a fresh state directory yields nonce 0 — the
// back-compat value, so a first boot's epoch matches what a pre-nonce server
// would have used — and persists the boot count for the next incarnation.
func TestBootNonceFirstBoot(t *testing.T) {
	dir := t.TempDir()
	nonce, err := BootNonce(dir, 42)
	if err != nil {
		t.Fatal(err)
	}
	if nonce != 0 {
		t.Fatalf("first boot nonce = %d, want 0", nonce)
	}
	if _, err := os.Stat(filepath.Join(dir, "boot-count")); err != nil {
		t.Fatalf("boot count not persisted: %v", err)
	}
}

// TestBootNonceSubsequentBoots: every boot after the first yields a nonzero
// nonce (at least the 1<<20 floor), distinct per boot, and deterministic in
// (seed, boot count) — every later boot, fresh or restored, lands on a new
// incarnation, replayably.
func TestBootNonceSubsequentBoots(t *testing.T) {
	dir := t.TempDir()
	nonces := []int64{}
	for i := 0; i < 3; i++ {
		n, err := BootNonce(dir, 42)
		if err != nil {
			t.Fatal(err)
		}
		nonces = append(nonces, n)
	}
	if nonces[0] != 0 {
		t.Fatalf("first boot nonce = %d, want 0", nonces[0])
	}
	for i, n := range nonces[1:] {
		if n < 1<<20 {
			t.Fatalf("boot %d nonce = %d, below the 1<<20 floor", i+1, n)
		}
	}
	if nonces[1] == nonces[2] {
		t.Fatalf("consecutive boots share nonce %d", nonces[1])
	}

	// Same (seed, count) in a different directory → the same sequence:
	// deterministic, so harness replays survive restarts.
	dir2 := t.TempDir()
	for i, want := range nonces {
		got, err := BootNonce(dir2, 42)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("boot %d: nonce %d in second dir, want %d (same seed+count)", i, got, want)
		}
	}

	// A different seed diverges once past the first boot.
	dir3 := t.TempDir()
	if _, err := BootNonce(dir3, 7); err != nil {
		t.Fatal(err)
	}
	n7, err := BootNonce(dir3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n7 == nonces[1] {
		t.Fatalf("seeds 7 and 42 share second-boot nonce %d", n7)
	}
}

// TestBootNonceCorruptCount: a mangled boot-count file is an error, not a
// silent epoch reset — reusing a dead incarnation's epoch would un-fence
// every stale gradient the nonce exists to reject.
func TestBootNonceCorruptCount(t *testing.T) {
	for _, bad := range []string{"not-a-number", "-3"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "boot-count"), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := BootNonce(dir, 42); err == nil {
			t.Errorf("boot-count %q: no error", bad)
		}
	}
}

// TestBootNonceEmptyDir: the directory is the identity of the incarnation
// chain; an empty path is a caller bug.
func TestBootNonceEmptyDir(t *testing.T) {
	if _, err := BootNonce("", 42); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestBootNonceFailsWhenDirectoryCannotBeOpened: the boot count is durable
// before its nonce is handed out. A count whose rename the directory fsync
// did not cover could be lost and repeated, and with it the nonce, so a
// directory that cannot be opened for that fsync fails the boot.
func TestBootNonceFailsWhenDirectoryCannotBeOpened(t *testing.T) {
	dir := t.TempDir()
	defer func(open func(string) (*os.File, error)) { openDir = open }(openDir)
	openDir = func(name string) (*os.File, error) {
		return nil, &os.PathError{Op: "open", Path: name, Err: errors.New("injected failure")}
	}
	if n, err := BootNonce(dir, 42); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("BootNonce with an unopenable directory = (%d, %v), want the open error", n, err)
	}
	openDir = os.Open
	if _, err := BootNonce(dir, 42); err != nil {
		t.Fatalf("the next boot, with the directory back: %v", err)
	}
}
