package main

// probe.go — the host-speed probe. The benchmark shares its machine with
// other tenants, and their load moves the speed of the disk and CPU by up
// to 2x over minutes; the raw job times of the I/O-bound workloads follow
// it. After every measured job of such a workload, while bccd is idle, the
// benchmark runs a fixed probe made of the resources those jobs spend — fmt
// row formatting into a file and small tmp+rename file replaces — on two
// goroutines like bccd's two engine workers. The job's latency is scaled
// by probeNominal / probe time, so it reads as the latency on a host where
// the probe takes probeNominal. The probe is code of the benchmark alone:
// no change to the repository can make it faster or slower. The CPU-bound
// bittrue workload gets a CPU-only probe instead (cpuProbe), which also
// scales its server CPU time.

import (
	"bufio"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// probeNominal is the probe time the adjusted figures are scaled to.
const probeNominal = 10 * time.Millisecond

// probe runs the probe in dir and returns its wall time.
func probe(dir string) (time.Duration, error) {
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = probeWorker(filepath.Join(dir, fmt.Sprintf("probe%d", g)))
		}()
	}
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

// cpuProbe is the probe of the CPU-bound workload: word-wide xorshift and
// popcount loops, the shape of the GF(2) elimination kernels, on two
// goroutines; it returns its wall time.
func cpuProbe() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	sink := make([]uint64, 2)
	for g := range sink {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, acc := uint64(g+1)*0x9e3779b97f4a7c15, uint64(0)
			for i := 0; i < 3_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				acc += uint64(bits.OnesCount64(x & acc))
				acc ^= x
			}
			sink[g] = acc
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

func probeWorker(path string) error {
	f, err := os.Create(path + ".csv")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	x := 1.0
	for i := 0; i < 1500; i++ {
		x = x*1.0000001 + 0.5
		fmt.Fprintf(w, "%d,%g,%g,%s,%.12g\n", i, x, x/3, "HBC", x*x)
	}
	if err := errors.Join(w.Flush(), f.Close()); err != nil {
		return err
	}
	for i := 0; i < 12; i++ {
		if err := os.WriteFile(path+".tmp", []byte(fmt.Sprint(i)), 0o644); err != nil {
			return err
		}
		if err := os.Rename(path+".tmp", path+".ck"); err != nil {
			return err
		}
	}
	return nil
}
