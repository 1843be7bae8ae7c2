package perfbench_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny size,
// untraced and traced, through the benchmark's own command, and checks
// that each run succeeds and prints exactly the metrics BENCHMARK.json
// names for its mode, each with its declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workloads {
		for mode, want := range map[string][]metricDef{"0": s.EndToEnd, "1": s.PerLayer} {
			t.Run(w.Name+"/trace="+mode, func(t *testing.T) {
				args := append(s.Command[1:], "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", mode, "--tiny")
				cmd := exec.Command(s.Command[0], args...)
				cmd.Dir = root
				var stderr strings.Builder
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
