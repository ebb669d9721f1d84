package service

// bench_test.go — prices the job-service wrapper against the bare engine
// call it wraps. BenchmarkServiceJobDirect runs a small sweep straight
// through the emitter to a results file; BenchmarkServiceJobOverhead pushes
// the same sweep through the full durable path (store create, queue,
// executor claim, checkpointed log, two state renames). The difference is
// the fixed per-job cost of durability — it must stay in the tens of
// milliseconds territory dominated by file churn, negligible against any
// real sweep. BenchmarkSweepRows prices the CSV rows alone: the serial
// emitter formats every row of a job, whatever the worker count.

import (
	"context"
	"io"
	"path/filepath"
	"testing"
	"time"

	"bicoop"
)

func benchJob() JobSpec {
	return JobSpec{Sweep: &SweepJob{
		Base:     testScenario,
		PowersDB: []float64{0, 5, 10, 15, 20},
	}}
}

func BenchmarkServiceJobOverhead(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenStore(filepath.Join(dir, "jobs"))
	if err != nil {
		b.Fatal(err)
	}
	svc := New(context.Background(), st, bicoop.NewEngine(), Options{QueueCap: 1})
	if err := svc.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := svc.Submit(benchJob())
		if err != nil {
			b.Fatal(err)
		}
		st, err := svc.Wait(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		if st.State != StateDone {
			b.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
	}
}

func BenchmarkServiceJobDirect(b *testing.B) {
	dir := b.TempDir()
	eng := bicoop.NewEngine()
	ctx := context.Background()
	spec := benchJob()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log, err := OpenResultLog(filepath.Join(dir, "results.csv"), "")
		if err != nil {
			b.Fatal(err)
		}
		if err := spec.run(ctx, eng, log); err != nil {
			b.Fatal(err)
		}
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepRows writes the rows of one sweep shaped like a perfbench
// sweep job — 61 powers × 33 placements × 5 protocols, 10,065 points in
// enumeration order — through a ResultLog into io.Discard. The points are
// evaluated before the timer starts, so an op is the row formatting alone,
// and it allocates nothing.
func BenchmarkSweepRows(b *testing.B) {
	const gabDB = -1.2
	spec := bicoop.SweepSpec{Base: bicoop.Scenario{GabDB: gabDB}}
	for k := 0; k < 61; k++ {
		spec.PowersDB = append(spec.PowersDB, 0.0137+0.5*float64(k))
	}
	for i := 0; i < 33; i++ {
		spec.Placements = append(spec.Placements, bicoop.RelayPlacement{
			Pos: float64(i+1) / 34, Exponent: 3.1, GabDB: gabDB,
		})
	}
	pts, err := bicoop.NewEngine().SweepAll(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	log := NewResultLog(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			if err := log.sweepRow(pt); err != nil {
				b.Fatal(err)
			}
		}
	}
}
