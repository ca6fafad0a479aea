package node

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCmdMainsDoNotOwnListeners is the structural guard behind the node
// refactor: the cmd binaries are flag→Spec translators, and the listener
// and teardown machinery lives in internal/node ONLY. If a main (or any
// non-test file under cmd/) reacquires a direct http.Server,
// stream.NewServer, net.Listen or a Shutdown call, the drain ordering has
// forked again — the drift this package exists to end. Move the logic
// into internal/node instead.
func TestCmdMainsDoNotOwnListeners(t *testing.T) {
	forbidden := []string{
		"http.Server{",
		"stream.NewServer(",
		"net.Listen(",
		".Shutdown(",
		"httputil.NewSingleHostReverseProxy(",
	}
	cmdDir := filepath.Join("..", "..", "cmd")
	err := filepath.Walk(cmdDir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			code := line
			if idx := strings.Index(code, "//"); idx >= 0 {
				code = code[:idx]
			}
			for _, pat := range forbidden {
				if strings.Contains(code, pat) {
					t.Errorf("%s:%d: %q — lifecycle machinery belongs in internal/node, not cmd (line: %s)",
						path, i+1, pat, strings.TrimSpace(line))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", cmdDir, err)
	}
}

// TestIngestAndEndpointAreSingleSourced keeps the two ingest paths and the
// three wire endpoints from growing back. The learning-task path — payload
// decode, the admission chain, label absorption — is called from
// internal/ingest only, the global model is updated in internal/server only,
// and a request body is decoded into a TaskRequest or a GradientPush in
// service.Call only. A second call site means a node, a transport or an
// evaluation loop has started re-implementing the path: extend ingest.Core
// or service.Call instead (internal/core's paper-evaluation runs drive a
// server.Server for this reason). The packages that define these functions,
// internal/hashtag (a plain SGD recommender with no server, staleness or
// aggregation) and the bench/perf module (layer timings) are not scanned.
func TestIngestAndEndpointAreSingleSourced(t *testing.T) {
	const ingest, call = "internal/ingest/ingest.go", "internal/service/call.go"
	owners := map[string]string{
		"protocol.DecodeGradientPayload(": ingest,
		".Admit(ctx,":                     ingest,
		".AbsorbWeight(":                  ingest,
		"RecordWeighted(":                 ingest,
		".ApplyGradient(":                 "internal/server/server.go",
	}
	skipped := map[string]bool{
		"internal/protocol": true, "internal/sched": true, "internal/learning": true,
		"internal/hashtag": true, "bench": true, ".git": true,
	}
	request := regexp.MustCompile(`var (\w+) protocol\.(TaskRequest|GradientPush)\b`)
	root := filepath.Join("..", "..")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if info.IsDir() {
			if skipped[rel] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := string(raw)
		for pat, owner := range owners {
			if n := strings.Count(src, pat); n > 0 && rel != owner || n > 1 {
				t.Errorf("%s: %d call(s) of %q — the one call site is %s", rel, n, pat, owner)
			}
		}
		for _, m := range request.FindAllStringSubmatch(src, -1) {
			if strings.Contains(src, ", &"+m[1]+")") && strings.Contains(src, ".Decode(") && rel != call {
				t.Errorf("%s decodes a request body into a protocol.%s — service.Call (%s) is the one endpoint", rel, m[2], call)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}

// TestServingUnitsAreCompiledOnce keeps a second assembler from growing
// back beside FromSpec. The binaries, the tenant layer and the harness
// declare a Spec and take what it compiles to: none of them builds a
// server, an edge, a pipeline, an admission chain or an Assembly by hand
// (tests may). And what an unset codec means is protocol.Default's to say:
// outside internal/protocol the gob codec is named only by the facade's
// CodecGobGzip.
func TestServingUnitsAreCompiledOnce(t *testing.T) {
	builders := []string{
		"server.New(", "server.RestoreLatest(", "aggtree.New(",
		"pipeline.Build(", "sched.Build(", "node.New(", "node.Assembly{",
	}
	declarers := []string{"cmd/", "internal/tenant/", "internal/loadgen/"}
	root := filepath.Join("..", "..")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if info.IsDir() {
			if rel == "bench" || rel == ".git" || rel == "internal/protocol" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := string(raw)
		if n := strings.Count(src, "protocol.GobGzip"); n > 0 && rel != "fleet.go" || n > 1 {
			t.Errorf("%s names protocol.GobGzip %d time(s): an unset codec is protocol.Default, a named one protocol.CodecByName", rel, n)
		}
		for _, dir := range declarers {
			if !strings.HasPrefix(rel, dir) {
				continue
			}
			for _, pat := range builders {
				if strings.Contains(src, pat) {
					t.Errorf("%s calls %q: declare a node.Spec and let node.FromSpec assemble it", rel, pat)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}
