package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bicoop"
	"bicoop/internal/cache"
	"bicoop/internal/protocols"
)

func logKey(i int) cache.Key {
	return cache.SumRateKey(protocols.MABC, protocols.BoundInner, float64(i), -7, 0, 5)
}

func TestCacheLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	st1 := cache.NewStore(1024)
	log1, err := OpenCacheLog(path, st1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		st1.Add(logKey(i), cache.MakeValue(float64(i), 1, 2, []float64{0.5, 0.5}))
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := cache.NewStore(1024)
	log2, err := OpenCacheLog(path, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if st2.Len() != 50 {
		t.Fatalf("replayed %d entries, want 50", st2.Len())
	}
	v, ok := st2.Lookup(logKey(17))
	if !ok || v.Sum != 17 || v.NDur != 2 {
		t.Fatalf("replayed entry 17: %+v ok=%v", v, ok)
	}
}

func TestCacheLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	st := cache.NewStore(1024)
	log, err := OpenCacheLog(path, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		st.Add(logKey(i), cache.MakeValue(float64(i), 0, 0, nil))
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, cache.RecordSize/2)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := cache.NewStore(1024)
	log2, err := OpenCacheLog(path, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if st2.Len() != 10 {
		t.Fatalf("replayed %d entries past torn tail, want 10", st2.Len())
	}
	// The torn tail must be compacted away so later appends stay aligned.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(10*cache.RecordSize) {
		t.Fatalf("log size %d after torn-tail recovery, want %d", info.Size(), 10*cache.RecordSize)
	}
}

// TestCacheLogV1Discarded pins the key-version bump: a log written with
// version-1 keys (coordinates on a 1e-9 grid, which aliased neighbouring
// scenarios) replays as a torn tail, so it opens cleanly with an empty
// store and is compacted to empty instead of serving aliased values.
func TestCacheLogV1Discarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	var data []byte
	for i := 0; i < 5; i++ {
		rec := cache.AppendRecord(nil, logKey(i), cache.MakeValue(float64(i), 0, 0, nil))
		rec[0] = 1 // version byte; the v1 record layout is otherwise the same
		binary.LittleEndian.PutUint32(rec[cache.RecordSize-4:], crc32.ChecksumIEEE(rec[:cache.RecordSize-4]))
		data = append(data, rec...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := cache.NewStore(1024)
	log, err := OpenCacheLog(path, st)
	if err != nil {
		t.Fatalf("opening a v1 log: %v", err)
	}
	defer log.Close()
	if st.Len() != 0 {
		t.Fatalf("replayed %d v1 entries, want 0", st.Len())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("v1 log not compacted to empty: %v, %v", fi, err)
	}
}

func TestCacheLogCompactsBloat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	big := cache.NewStore(1024)
	log, err := OpenCacheLog(path, big)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		big.Add(logKey(i), cache.MakeValue(float64(i), 0, 0, nil))
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Replaying 300 records into a 64-entry store leaves most of the log
	// dead; open must snapshot it down to the survivors.
	small := cache.NewStore(64)
	log2, err := OpenCacheLog(path, small)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(small.Len()*cache.RecordSize) {
		t.Fatalf("log size %d after compaction, want %d (%d live entries)",
			info.Size(), small.Len()*cache.RecordSize, small.Len())
	}
}

// uncachedReferenceCSV runs the job spec uninterrupted on a plain
// cache-off engine: the output cached runs must reproduce byte for byte.
func uncachedReferenceCSV(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.csv")
	log, err := OpenResultLog(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.run(context.Background(), bicoop.NewEngine(), log); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServiceCacheAcrossRestart pins the durable tier's contract end to
// end: a cached service produces byte-identical results to an uncached
// run, and after a restart (new store replayed from the log) a
// repeat of the same job is served entirely from cache — hits observed,
// zero misses — with, again, byte-identical results.
func TestServiceCacheAcrossRestart(t *testing.T) {
	spec := tinySweep(2)
	want := uncachedReferenceCSV(t, spec)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "cache.log")

	runOnce := func(jobsDir string) []byte {
		cst := cache.NewStore(1 << 14)
		clog, err := OpenCacheLog(logPath, cst)
		if err != nil {
			t.Fatal(err)
		}
		defer clog.Close()
		st, err := OpenStore(filepath.Join(dir, jobsDir))
		if err != nil {
			t.Fatal(err)
		}
		eng := bicoop.NewEngine(bicoop.WithCacheStore(cst))
		svc := New(context.Background(), st, eng, Options{CacheLog: clog})
		if err := svc.Start(); err != nil {
			t.Fatal(err)
		}
		id, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		data, state, err := svc.Results(id)
		if err != nil || state != StateDone {
			t.Fatalf("results: state=%s err=%v", state, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		cs := svc.CacheStats()
		if jobsDir == "jobs1" {
			if cs.Fills == 0 {
				t.Fatal("first run filled nothing")
			}
		} else {
			if cs.Hits == 0 || cs.Misses != 0 {
				t.Fatalf("restarted run should be all hits: %+v", cs)
			}
		}
		return data
	}

	got1 := runOnce("jobs1")
	got2 := runOnce("jobs2")
	if !bytes.Equal(got1, want) {
		t.Error("cached run differs from the uncached reference")
	}
	if !bytes.Equal(got2, want) {
		t.Error("cache-served rerun differs from the uncached reference")
	}
}
