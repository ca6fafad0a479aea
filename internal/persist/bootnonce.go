package persist

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// bootCountFile is the boot-count file's name inside the state directory.
const bootCountFile = "boot-count"

// BootNonce persists a boot counter in dir and returns a deterministic
// incarnation-epoch nonce for this boot: 0 on the very first boot, and a
// nonzero value derived from (seed, boot count) on every later one.
//
// The nonce names the incarnation: node boots every server with a state
// directory, fresh or restored from a checkpoint, at the nonce of that
// directory's next boot count, so no two boots of one directory share an
// epoch and workers whose caches carry a dead instance's epoch resync
// instead of patching the new incarnation's deltas onto old parameters.
//
// The nonce is a hash of the count, not the count itself; epochs are
// names, compared for equality only. Determinism: the same (seed, boot
// sequence) always yields the same nonce sequence, so the load harness's
// bit-for-bit replay survives — unlike a random or time-derived nonce
// would.
//
// The count is stored before the nonce is returned, written atomically and
// durably (writeFile), so a boot that returns has a count no later boot
// can repeat: a repeated count would repeat the nonce.
func BootNonce(dir string, seed int64) (int64, error) {
	if dir == "" {
		return 0, fmt.Errorf("persist: empty boot-nonce directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	path := filepath.Join(dir, bootCountFile)
	count := 0
	if raw, err := os.ReadFile(path); err == nil {
		n, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil || n < 0 {
			return 0, fmt.Errorf("persist: corrupt boot-count file %s: %q", path, raw)
		}
		count = n
	} else if !os.IsNotExist(err) {
		return 0, fmt.Errorf("persist: %w", err)
	}
	if err := writeFile(dir, bootCountFile, []byte(strconv.Itoa(count+1)+"\n")); err != nil {
		return 0, err
	}
	return bootNonceValue(seed, count), nil
}

// bootNonceValue derives the epoch nonce for one (seed, count) pair.
func bootNonceValue(seed int64, count int) int64 {
	if count == 0 {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "fleet-boot-nonce:%d:%d", seed, count)
	v := int64(h.Sum64() &^ (1 << 63)) // clamp non-negative
	// Keep the nonce nonzero: 0 is the first boot's epoch.
	const floor = 1 << 20
	if v < floor {
		v += floor
	}
	return v
}
