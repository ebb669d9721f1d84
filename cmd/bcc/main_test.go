package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bicoop"
)

func TestRunDispatch(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr bool
	}{
		{name: "no args", args: nil, wantErr: true},
		{name: "unknown subcommand", args: []string{"frobnicate"}, wantErr: true},
		{name: "help", args: []string{"help"}, wantErr: false},
		{name: "list", args: []string{"list"}, wantErr: false},
		{name: "bounds", args: []string{"bounds", "-p", "5"}, wantErr: false},
		{name: "region", args: []string{"region", "-proto", "MABC", "-bound", "inner", "-p", "5"}, wantErr: false},
		{name: "region csv", args: []string{"region", "-proto", "TDBC", "-bound", "outer", "-csv"}, wantErr: false},
		{name: "region bad proto", args: []string{"region", "-proto", "XYZ"}, wantErr: true},
		{name: "region bad bound", args: []string{"region", "-bound", "sideways"}, wantErr: true},
		{name: "region angles removed", args: []string{"region", "-angles", "5"}, wantErr: true},
		{name: "region workers removed", args: []string{"region", "-workers", "2"}, wantErr: true},
		{name: "place", args: []string{"place", "-pos", "0.3"}, wantErr: false},
		{name: "place off segment", args: []string{"place", "-pos", "1.5"}, wantErr: true},
		{name: "sweep", args: []string{"sweep", "-powers", "0,10", "-protos", "MABC"}, wantErr: false},
		{name: "sweep cached", args: []string{"sweep", "-powers", "0,10", "-protos", "MABC", "-cache", "1024"}, wantErr: false},
		{name: "sweep bad powers", args: []string{"sweep", "-powers", "10:0:1"}, wantErr: true},
		{name: "sweep bad proto", args: []string{"sweep", "-protos", "XYZ"}, wantErr: true},
		{name: "sweep bad bound", args: []string{"sweep", "-bound", "sideways"}, wantErr: true},
		{name: "sweep checkpoint without output", args: []string{"sweep", "-checkpoint", "x.ck"}, wantErr: true},
		{name: "escape", args: []string{"escape", "-p", "10", "-n", "2"}, wantErr: false},
		{name: "penalty", args: []string{"penalty", "-p", "10"}, wantErr: false},
		{name: "run without id", args: []string{"run"}, wantErr: true},
		{name: "run unknown id", args: []string{"run", "nonesuch"}, wantErr: true},
		{name: "run quick experiment", args: []string{"run", "delta-ablation", "-quick"}, wantErr: false},
		{name: "run flags before id", args: []string{"run", "-quick", "crossover"}, wantErr: false},
		{name: "bad flag", args: []string{"bounds", "-nonsense"}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(context.Background(), tt.args)
			if tt.wantErr && err == nil {
				t.Errorf("run(ctx, %v) = nil, want error", tt.args)
			}
			if !tt.wantErr && err != nil {
				t.Errorf("run(ctx, %v) = %v, want nil", tt.args, err)
			}
		})
	}
}

// TestRegionCSVGolden pins `bcc region -csv` output byte for byte: the
// exact vertices of a TDBC outer and an HBC inner region, each a handful of
// refined LP optima printed with %g.
func TestRegionCSVGolden(t *testing.T) {
	tests := []struct {
		golden string
		args   []string
	}{
		{golden: "region_tdbc_outer_p10.csv", args: []string{"region", "-proto", "TDBC", "-bound", "outer", "-p", "10", "-csv"}},
		{golden: "region_hbc_inner.csv", args: []string{"region", "-proto", "HBC", "-csv"}},
	}
	for _, tt := range tests {
		t.Run(tt.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tt.golden))
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() error { return run(context.Background(), tt.args) })
			if !bytes.Equal(got, want) {
				t.Errorf("bcc %s output differs from %s:\n got:\n%s\nwant:\n%s",
					strings.Join(tt.args, " "), tt.golden, got, want)
			}
		})
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		out <- buf.Bytes()
	}()
	runErr := f()
	os.Stdout = saved
	w.Close()
	got := <-out
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got
}

func TestExitFor(t *testing.T) {
	tests := []struct {
		name     string
		err      error
		code     int
		wantNote bool
	}{
		{name: "success", err: nil, code: 0},
		{name: "plain error", err: errors.New("boom"), code: 1},
		{name: "interrupt", err: context.Canceled, code: 130, wantNote: true},
		{name: "wrapped interrupt", err: fmt.Errorf("sweep: %w", context.Canceled), code: 130, wantNote: true},
		{name: "timeout", err: context.DeadlineExceeded, code: 124, wantNote: true},
		{name: "wrapped timeout", err: fmt.Errorf("bicoop: %w", context.DeadlineExceeded), code: 124, wantNote: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, note := exitFor(tt.err)
			if code != tt.code {
				t.Errorf("exitFor(%v) code = %d, want %d", tt.err, code, tt.code)
			}
			if (note != "") != tt.wantNote {
				t.Errorf("exitFor(%v) note = %q, wantNote %v", tt.err, note, tt.wantNote)
			}
			if tt.wantNote && !strings.Contains(note, "partial results above are valid") {
				t.Errorf("early-stop note %q must tell the user their partial output is valid", note)
			}
		})
	}
}

func TestParsePowers(t *testing.T) {
	tests := []struct {
		in      string
		want    []float64
		wantErr bool
	}{
		{in: "0:4:2", want: []float64{0, 2, 4}},
		{in: "0:5:2", want: []float64{0, 2, 4}},
		{in: "10:10:1", want: []float64{10}},
		{in: "-3,0,7.5", want: []float64{-3, 0, 7.5}},
		{in: "5", want: []float64{5}},
		{in: "10:0:1", wantErr: true},
		{in: "0:10:0", wantErr: true},
		{in: "0:10:x", wantErr: true},
		{in: "a,b", wantErr: true},
		{in: "nan:10:1", wantErr: true},
		{in: "0:10:nan", wantErr: true},
		{in: "0:inf:1", wantErr: true},
		{in: "-inf:0:1", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := parsePowers(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("parsePowers(%q) = %v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("parsePowers(%q) = %v, want %v", tt.in, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("parsePowers(%q) = %v, want %v", tt.in, got, tt.want)
				}
			}
		})
	}
}

// sweepTestSpec is a grid big enough to span many chunks (60 powers × 24
// placements × 5 protocols = 7200 points) so tight deadlines land mid-run.
func sweepTestSpec() bicoop.SweepSpec {
	var spec bicoop.SweepSpec
	for i := 0; i < 60; i++ {
		spec.PowersDB = append(spec.PowersDB, float64(i)/3)
	}
	for i := 0; i < 24; i++ {
		spec.Placements = append(spec.Placements,
			bicoop.RelayPlacement{Pos: 0.05 + 0.9*float64(i)/23, Exponent: 3, GabDB: -7})
	}
	return spec
}

// TestRunSweepCSVCheckpointResume pins the CLI resume contract end to end:
// a checkpointed sweep interrupted by deadlines, resumed until it
// completes, produces a CSV byte-identical to an uninterrupted run's.
func TestRunSweepCSVCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv")
	if err := runSweepCSV(context.Background(), eng, sweepTestSpec(), full, ""); err != nil {
		t.Fatal(err)
	}

	part := filepath.Join(dir, "part.csv")
	ck := filepath.Join(dir, "part.ck")
	interruptions := 0
	for attempt := 0; ; attempt++ {
		if attempt > 100 {
			t.Fatal("sweep never completed across 100 resumes")
		}
		// The budget starts well below the sweep's run time and grows with
		// the attempt, so a deadline lands mid-run on any host and the loop
		// still terminates.
		budget := time.Duration(1+2*attempt) * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		err := runSweepCSV(ctx, eng, sweepTestSpec(), part, ck)
		cancel()
		if err == nil {
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatal(err)
		}
		interruptions++
	}
	if interruptions == 0 {
		t.Fatal("sweep completed within the first budget; grow the grid so resume is exercised")
	}
	t.Logf("completed after %d interruptions", interruptions)

	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed CSV differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}

	// Idempotence: rerunning a completed checkpointed sweep changes nothing.
	if err := runSweepCSV(context.Background(), eng, sweepTestSpec(), part, ck); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("rerun of a completed checkpointed sweep altered the CSV")
	}
}

// TestRunSweepCSVCorruptCheckpoint pins that a garbled checkpoint fails
// loudly instead of silently restarting.
func TestRunSweepCSVCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "bad.ck")
	if err := os.WriteFile(ck, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runSweepCSV(context.Background(), eng, sweepTestSpec(), filepath.Join(dir, "out.csv"), ck)
	if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Fatalf("err = %v, want a corrupt-checkpoint error", err)
	}
}

func TestParseProtocol(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "HBC", want: "HBC"},
		{in: "hbc", want: "HBC"},
		{in: "Mabc", want: "MABC"},
		{in: "naive4", want: "Naive4"},
		{in: "bogus", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			p, err := parseProtocol(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.EqualFold(p.String(), tt.want) {
				t.Errorf("parseProtocol(%q) = %v, want %v", tt.in, p, tt.want)
			}
		})
	}
}
