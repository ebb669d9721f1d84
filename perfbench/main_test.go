package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at tiny size, untraced and traced, through
// the whole benchmark (bccd build included) and checks the result line:
// the correctness gate passed, and the metrics are exactly the ones
// BENCHMARK.json declares for that mode, with its units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs bccd")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range bench.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bench.EndToEnd, bench.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", []string{"0", "1"}[trace], "--tiny"}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json lists %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDigestGate checks that the committed digests hold and that a drifted
// objective fails them.
func TestDigestGate(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		if err := checkDigest(ctx, w, tinySize, true); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	d, err := firstJobDigest(ctx, workloads[0], tinySize)
	if err != nil {
		t.Fatal(err)
	}
	drifted := d
	drifted.Sum += 1e-6 * d.Sum
	if drifted.matches(d) {
		t.Error("a 1e-6 relative objective drift passes the digest gate")
	}
	if !d.matches(d) {
		t.Error("a digest does not match itself")
	}
}
