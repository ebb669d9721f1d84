package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden figure artifacts:
//
//	go test ./internal/experiments/ -run TestGoldenFigures -update
var update = flag.Bool("update", false, "rewrite the golden figure artifacts under testdata/figures")

// goldenIDs lists the experiments pinned as canonical artifacts, in quick
// mode with seed 1: the analytic figures and the two bit-true waterfalls.
// Every reproduced number of these is a golden-file diff away from review —
// numeric drift cannot land silently. Both Fig 4 power levels are pinned so
// the sharded region-batch path has a golden region table at each. The
// bit-true runs are deterministic at any GOMAXPROCS: each scale has its own
// seed and a fixed inner worker count, so its counts depend on neither the
// host nor the campaign's outer pool (CI runs this test at -cpu 1,4).
var goldenIDs = []string{"fig3", "fig4a", "fig4b", "crossover", "bitsim", "bitsim-mabc"}

func goldenPath(id, ext string) string {
	return filepath.Join("testdata", "figures", id+ext)
}

// TestGoldenFigures renders each canonical figure through the artifact
// pipeline (text + numeric CSV) and compares both against the committed
// golden files; -update rewrites them.
func TestGoldenFigures(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(context.Background(), id, Config{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var text, csv bytes.Buffer
			if err := res.WriteArtifact(&text, &csv); err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				path string
				got  []byte
			}{
				{goldenPath(id, ".txt"), text.Bytes()},
				{goldenPath(id, ".csv"), csv.Bytes()},
			} {
				if *update {
					if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(f.path, f.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if !bytes.Equal(f.got, want) {
					t.Errorf("%s drifted from its golden artifact.\nIf the change is intended, regenerate with:\n  go test ./internal/experiments/ -run TestGoldenFigures -update\n--- got ---\n%s\n--- want ---\n%s",
						f.path, truncateForDiff(f.got), truncateForDiff(want))
				}
			}
		})
	}
}

// truncateForDiff keeps failure output readable for the big text artifacts.
func truncateForDiff(b []byte) []byte {
	const max = 4000
	if len(b) <= max {
		return b
	}
	return append(append([]byte{}, b[:max]...), []byte("\n... (truncated)")...)
}

// TestArtifactShape sanity-checks the artifact pipeline on every registered
// experiment: rendering and CSV flushing must succeed and be non-empty,
// whether or not the figure is in the golden set.
func TestArtifactShape(t *testing.T) {
	res, err := Run(context.Background(), "fig3", Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var text, csv bytes.Buffer
	if err := res.WriteArtifact(&text, &csv); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 || csv.Len() == 0 {
		t.Fatalf("empty artifact: text %d bytes, csv %d bytes", text.Len(), csv.Len())
	}
	if !bytes.Contains(csv.Bytes(), []byte("# chart:")) || !bytes.Contains(csv.Bytes(), []byte("# table")) {
		t.Errorf("CSV artifact missing section markers:\n%s", csv.Bytes())
	}
}
