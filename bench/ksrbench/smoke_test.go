package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's benchmark definition.
const benchmarkJSON = "../../BENCHMARK.json"

type defFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeAllWorkloads runs every workload at smoke-test size, untraced
// and traced, and checks that each prints exactly the metrics
// BENCHMARK.json names, with their units, and that both runs of a seed
// produce the same digest.
func TestSmokeAllWorkloads(t *testing.T) {
	b, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var def defFile
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, trace := range []string{"0", "1"} {
				var out bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "7", "-tiny", "-seconds", "0.3",
					"-trace", trace, "-spans", filepath.Join(t.TempDir(), "spans.json")}
				if rc := benchMain(args, &out); rc != 0 {
					t.Fatalf("trace %s: exit %d\n%s", trace, rc, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("trace %s: last line is not a result: %v", trace, err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace %s: correct=%v attempted=%d failed=%d\n%s", trace, r.Correct, r.Attempted, r.Failed, out.String())
				}
				want := def.EndToEnd
				if trace == "1" {
					want = def.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace %s: %d metrics printed, BENCHMARK.json lists %d", trace, len(r.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("trace %s: metric %s printed as %+v (present %v); want unit %s", trace, d.Name, m, ok, d.Unit)
					}
				}
				for _, l := range lines {
					if f := strings.Fields(l); len(f) > 1 && f[0] == "digest" {
						digests = append(digests, f[1])
					}
				}
			}
			if len(digests) != 2 || digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("digests of two runs of one seed: %q; want two identical", digests)
			}
		})
	}
}
