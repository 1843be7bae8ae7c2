package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkExact compares the run's exact counters with the ones an
// earlier run of the same source tree, workload and seed recorded, and
// records them when there are none. A difference means the program's
// behaviour drifted between two runs of one commit: it counts as a
// failure. The record lives in .bench_build, so it never outlives the
// checkout.
func checkExact(cfg Config, rep *Report) error {
	if len(rep.Exact) == 0 {
		return nil
	}
	tree, err := sourceHash(cfg.Root)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.BuildDir(), "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.Trace {
		mode = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d-tiny=%v-%s.json", cfg.Workload, mode, cfg.Seed, cfg.Tiny, tree[:16]))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("exact counters %s: %w", path, err)
		}
		names := make([]string, 0, len(prev))
		for n := range prev {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rep.Check(prev[n] == rep.Exact[n], "exact counter %s = %v, an earlier run of this tree and seed had %v", n, rep.Exact[n], prev[n])
		}
		return nil
	}
	b, err := json.Marshal(rep.Exact)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sourceHash identifies the source tree under root: a hash over the
// paths and contents of its Go sources and module files.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
