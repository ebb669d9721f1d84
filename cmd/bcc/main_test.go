package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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
		{name: "sweep negative places", args: []string{"sweep", "-places", "-1"}, wantErr: true},
		{name: "sweep too many places", args: []string{"sweep", "-places", "100000000"}, wantErr: true},
		{name: "sweep places past cap", args: []string{"sweep", "-places", strconv.Itoa(maxPlaces + 1)}, wantErr: true},
		{name: "sweep grid past cap", args: []string{"sweep", "-powers", "1:512:1", "-places", "513"}, wantErr: true},
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
		// lo + i*step rounds back to lo, so the axis is the single point.
		{in: "1e20:1e20:1", want: []float64{1e20}},
		// A step below the resolution of the range cannot advance it.
		{in: "1e16:1.0000000000000004e16:1", wantErr: true},
		// 10^12 points, far past maxPowers: rejected before allocating.
		{in: "0:1e6:1e-6", wantErr: true},
		{in: "-1e308:1e308:1", wantErr: true},
		{in: "nan,1", wantErr: true},
		{in: "0,inf", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := parsePowers(tt.in)
			runtime.ReadMemStats(&after)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("parsePowers(%q) = %v, want error", tt.in, got)
				}
				// A rejected axis is rejected before its points are allocated.
				if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
					t.Fatalf("parsePowers(%q) allocated %d bytes before failing", tt.in, n)
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

// TestParsePowersCap pins the point cap at its edge for both axis forms.
func TestParsePowersCap(t *testing.T) {
	if got, err := parsePowers(fmt.Sprintf("1:%d:1", maxPowers)); err != nil || len(got) != maxPowers {
		t.Fatalf("a %d-point range: %d points, %v", maxPowers, len(got), err)
	}
	if _, err := parsePowers(fmt.Sprintf("0:%d:1", maxPowers)); err == nil {
		t.Fatalf("a %d-point range was accepted", maxPowers+1)
	}
	list := strings.Repeat("0,", maxPowers-1) + "0"
	if got, err := parsePowers(list); err != nil || len(got) != maxPowers {
		t.Fatalf("a %d-point list: %d points, %v", maxPowers, len(got), err)
	}
	if _, err := parsePowers(list + ",0"); err == nil {
		t.Fatalf("a %d-point list was accepted", maxPowers+1)
	}
}

// FuzzParsePowers feeds arbitrary -powers values to the parser: it must
// never panic, never return more than maxPowers points or a non-finite one,
// and an accepted range must be non-decreasing from lo to at most hi+1e-9.
// The committed corpus (testdata/fuzz/FuzzParsePowers) holds the default
// axis, a range whose step rounds away at 1e20, a 10^12-point range and a
// comma list of non-finite values.
func FuzzParsePowers(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parsePowers(s)
		if err != nil {
			return
		}
		if len(got) > maxPowers {
			t.Fatalf("parsePowers(%q): %d points, cap %d", s, len(got), maxPowers)
		}
		for i, p := range got {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("parsePowers(%q): point %d is %g", s, i, p)
			}
		}
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return
		}
		lo, _ := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		hi, _ := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if len(got) == 0 {
			t.Fatalf("parsePowers(%q) accepted an empty range", s)
		}
		if got[0] != lo || got[len(got)-1] > hi+1e-9 {
			t.Fatalf("parsePowers(%q) = %d points from %v to %v, want from lo %g to at most hi %g",
				s, len(got), got[0], got[len(got)-1], lo, hi)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("parsePowers(%q): point %d (%g) below point %d (%g)", s, i, got[i], i-1, got[i-1])
			}
		}
	})
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
			p, err := bicoop.ParseProtocol(tt.in)
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
				t.Errorf("ParseProtocol(%q) = %v, want %v", tt.in, p, tt.want)
			}
		})
	}
}
