package main

// trace.go — the traced run. The same job sequence is timed at nested
// entry points, each level calling into the next layer's public functions:
//
//	L0  HTTP: the closed-loop client, spans on POST, polls and GET results
//	L1  in process: service.New + Submit → Wait → Results
//	L2  service.RunSweep/RunRegionBatch/RunCampaign into OpenResultLog(csv, ckpt)
//	L3  the same call into OpenResultLog(csv, "")
//	L4  Engine.Sweep/RegionBatch/SimulateBatch with a no-op yield, at
//	    Workers = nproc and Workers = 1, plus a pass timing each
//	    ResultLog.Save through a counting Checkpointer
//	L5  serial kernels: Evaluator.WeightedRateLinks per point in the
//	    engine's warm or cold mode, AssembleRegion per curve,
//	    RunBitTrueTDBC/MABC at Workers = 1, and the job's cache-key stream
//	    replayed through cache.Store.Lookup/Add
//
// The levels run interleaved: job i goes through every level before job
// i+1 starts, so a change in host speed during the run moves all levels
// alike. A layer's self time is the difference between the medians of
// adjacent levels, so L0 = http + admission + checkpoint + csv self times
// + L4. Spans are kept in memory and written under .bench_build/traces at
// exit.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"bicoop"
	"bicoop/internal/cache"
	"bicoop/internal/protocols"
	"bicoop/internal/region"
	"bicoop/internal/service"
	"bicoop/internal/sim"
	"bicoop/internal/sweep"
)

// Jobs per traced run: at least minLevelJobs, then more while the window
// lasts, at most maxLevelJobs.
const (
	minLevelJobs = 3
	maxLevelJobs = 50
)

// levels is one traced run's shared state.
type levels struct {
	cfg   config
	w     workload
	g     *generator
	ck    *checker
	nproc int
	rep   *report
	snap  string // post-warm-up store copy (cached workloads)

	replays []float64 // ms per OpenCacheLog replay
}

// level is one in-process entry point; call runs one job through it and
// records the job in s.
type level struct {
	s     sample
	call  func(ctx context.Context, i int, j job, s *sample) error
	close func() error
}

func layered(ctx context.Context, cfg config, w workload, rep *report) error {
	g := newGenerator(cfg.seed, cfg.sz)
	lv := &levels{cfg: cfg, w: w, g: g, ck: newChecker(w.cached), nproc: runtime.NumCPU(), rep: rep}

	// L0 twice, untraced (the base of trace_overhead) and traced, on two
	// daemons that take turns.
	sU, err := startSession(ctx, cfg, w, g, filepath.Join(cfg.work, "l0u"), nil)
	if err != nil {
		return err
	}
	defer sU.close()
	tr := &tracer{t0: time.Now()}
	sT, err := startSession(ctx, cfg, w, g, filepath.Join(cfg.work, "l0t"), tr)
	if err != nil {
		return err
	}
	defer sT.close()
	lv.snap = sU.snap

	l1, err := lv.serviceLevel(ctx)
	if err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	l2, err := lv.logLevel(ctx, true)
	if err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	l3, err := lv.logLevel(ctx, false)
	if err != nil {
		return fmt.Errorf("L3: %w", err)
	}
	l4, err := lv.engineLevel(lv.nproc, false)
	if err != nil {
		return fmt.Errorf("L4: %w", err)
	}
	l4w1, err := lv.engineLevel(1, false)
	if err != nil {
		return fmt.Errorf("L4 Workers=1: %w", err)
	}
	l4ck, err := lv.engineLevel(lv.nproc, true)
	if err != nil {
		return fmt.Errorf("L4 checkpoint: %w", err)
	}
	l5, err := lv.kernelLevel()
	if err != nil {
		return fmt.Errorf("L5: %w", err)
	}
	inProcess := []*level{l1, l2, l3, l4, l4w1, l4ck, &l5.level}

	var recsU, recsT []record
	var errsU, errsT []error
	deadline := time.Now().Add(cfg.window)
	var runErr error
	for i := 0; i < maxLevelJobs && (i < minLevelJobs || time.Now().Before(deadline)); i++ {
		j := lv.job(i)
		rU, err := runRecorded(ctx, sU.c, i, j, w.cached)
		if err != nil {
			errsU = append(errsU, fmt.Errorf("job %d: %w", i, err))
			break
		}
		recsU = append(recsU, rU)
		rT, err := runRecorded(ctx, sT.c, i, j, w.cached)
		if err != nil {
			errsT = append(errsT, fmt.Errorf("job %d: %w", i, err))
			break
		}
		recsT = append(recsT, rT)
		for li, l := range inProcess {
			if err := l.call(ctx, i, j, &l.s); err != nil {
				runErr = fmt.Errorf("level %d, job %d: %w", li+1, i, err)
				break
			}
		}
		if runErr != nil {
			break
		}
	}
	for _, l := range inProcess {
		runErr = errors.Join(runErr, l.close())
	}
	if runErr != nil {
		return runErr
	}
	if err := writeSpans(cfg, w, tr); err != nil {
		return err
	}
	rep.attempted += len(recsU) + len(errsU) + len(recsT) + len(errsT) + len(sU.warm) + len(sT.warm)
	rep.fail(errsU...)
	rep.fail(errsT...)
	rep.fail(verify(ctx, w.cached, append(append(append(sU.warm, sT.warm...), recsU...), recsT...))...)
	rep.gateDigest(ctx, w, cfg)
	k := len(l5.s.times)
	if k == 0 || len(recsT) < k {
		return errors.New("no job completed every level")
	}
	cpu, err := cpuShares(ctx, filepath.Join(cfg.work, "l1"))
	if err != nil {
		return err
	}

	// Telescoping self times.
	l0 := median(latencies(recsT[:k]))
	rep.set("service.l0_job_ms", l0)
	rep.set("service.http_self_ms", l0-l1.s.ms())
	rep.set("service.admission_self_ms", l1.s.ms()-l2.s.ms())
	rep.set("service.checkpoint_self_ms", l2.s.ms()-l3.s.ms())
	rep.set("service.csv_self_ms", l3.s.ms()-l4.s.ms())
	rep.set("sweep.engine_job_ms", l4.s.ms())
	rep.set("sweep.engine_job_w1_ms", l4w1.s.ms())
	rep.set("sweep.parallel_speedup", l4w1.s.ms()/l4.s.ms())
	rep.set("sweep.core_self_ms", l4w1.s.ms()-l5.s.ms())
	rep.set("trace_overhead", l0/median(latencies(recsU[:k])))

	var submit, results []float64
	polls, hits, lookups, evictions := 0, 0.0, 0.0, 0.0
	for _, r := range recsT[:k] {
		submit = append(submit, ms(r.o.submit))
		results = append(results, ms(r.o.results))
		polls += r.o.polls
		hits += float64(r.stats.Hits)
		lookups += float64(r.stats.Hits + r.stats.Misses)
		evictions += float64(r.stats.Evictions)
	}
	n := float64(k)
	rep.set("service.http_submit_ms", median(submit))
	rep.set("service.http_results_ms", median(results))
	rep.set("service.polls_per_job", float64(polls)/n)
	rep.set("service.checkpoint_saves", float64(len(l4ck.s.saves))/n)
	rep.set("service.checkpoint_save_ms", medianOr0(l4ck.s.saves))
	rep.set("service.csv_bytes", mean(l2.s.bytes))
	rep.set("service.cachelog_flush_ms", medianOr0(l2.s.flushes))
	rep.set("service.cachelog_replay_ms", medianOr0(lv.replays))
	rep.set("service.cachelog_bytes", meanOr0(l2.s.logBytes))
	rep.set("cache.hit_ratio", ratioOr0(hits, lookups))
	rep.set("cache.lookups", lookups/n)
	rep.set("cache.evictions", evictions/n)
	rep.set("cache.lookup_ns", ratioOr0(l5.cacheNS, l5.cacheOps))

	items := float64(lv.items(k))
	rep.set("service.allocs_per_point", (l2.s.allocs()-l4.s.allocs())/items)
	rep.set("sweep.allocs_per_point", (l4w1.s.allocs()-l5.s.allocs())/items)
	rep.set("protocols.allocs_per_point", ratioOr0(l5.evalAllocs, l5.evalItems))
	rep.set("sim.allocs_per_block", ratioOr0(l5.simAllocs, l5.blocks))
	rep.set("protocols.lp_us_per_point", ratioOr0(l5.lpUS, l5.lpN))
	rep.set("protocols.closed_us_per_point", ratioOr0(l5.closedUS, l5.closedN))
	rep.set("protocols.region_direction_us", ratioOr0(l5.lpUS+l5.closedUS, l5.directions))
	rep.set("protocols.assemble_us", ratioOr0(l5.assembleUS, l5.curves))
	for _, p := range []string{"tdbc", "mabc"} {
		for li, label := range []string{"n1000", "n4000"} {
			rep.set("sim."+p+"_block_ms."+label, ratioOr0(l5.blockMS[p][li], l5.blockN[p][li]))
		}
	}
	for name, share := range cpu {
		rep.set("cpu_share."+name, share)
	}

	if w.name == "sweep" || w.name == "sweep-cached" {
		for i, saves := range l4ck.s.perJob {
			if limit := (lv.job(i).units + sweep.ChunkSize - 1) / sweep.ChunkSize; saves < 1 || saves > limit {
				rep.fail(fmt.Errorf("job %d: %d checkpoint saves, want 1..%d", i, saves, limit))
			}
		}
	}
	rep.note("levels: %d jobs each; L0 %.3f = http %.3f + admission %.3f + checkpoint %.3f + csv %.3f + engine %.3f ms",
		k, l0, l0-l1.s.ms(), l1.s.ms()-l2.s.ms(), l2.s.ms()-l3.s.ms(), l3.s.ms()-l4.s.ms(), l4.s.ms())
	rep.note("L4 Workers=1 %.3f ms = core %.3f + L5 kernels %.3f ms; per-point figures count %s",
		l4w1.s.ms(), l4w1.s.ms()-l5.s.ms(), l5.s.ms(), lv.itemName())
	if w.cached {
		rep.note("L2 and L3 append to and flush the cache log, so csv_self_ms includes cachelog_flush_ms")
	}
	return nil
}

func latencies(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.o.latency)
	}
	return out
}

func (lv *levels) job(i int) job { return lv.w.next(lv.g, i) }

// items is the engine work in the first k jobs: grid points, support
// directions or blocks.
func (lv *levels) items(k int) int {
	n := 0
	for i := 0; i < k; i++ {
		j := lv.job(i)
		if j.region != nil {
			n += j.region.Size() * (j.region.Angles + 2)
		} else {
			n += j.units
		}
	}
	return n
}

func (lv *levels) itemName() string {
	if lv.w.unit == "curves" {
		return "support directions"
	}
	return lv.w.unit
}

// sample is one level's per-job wall times and heap allocation counts.
type sample struct {
	times   []float64 // ms
	mallocs []float64
	// L2 extras.
	bytes, flushes, logBytes []float64
	// L4 checkpoint pass extras.
	saves  []float64 // ms per ResultLog.Save
	perJob []int     // saves per job
}

func (s sample) ms() float64 { return median(s.times) }

// allocs is the total heap allocations of the level's jobs.
func (s sample) allocs() float64 {
	t := 0.0
	for _, m := range s.mallocs {
		t += m
	}
	return t
}

// measure runs f, recording its wall time and heap allocations in s.
func measure(s *sample, f func() error) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	s.times = append(s.times, ms(d))
	s.mallocs = append(s.mallocs, float64(ms1.Mallocs-ms0.Mallocs))
	return nil
}

// store returns the level's cache store, replayed from the warm-up
// snapshot, or nil for uncached workloads. With withLog the replay goes
// through service.OpenCacheLog on a copy of the snapshot's cache.log, as
// bccd's start-up does, and the open log is returned.
func (lv *levels) store(dir string, withLog bool) (*cache.Store, *service.CacheLog, error) {
	if !lv.w.cached {
		return nil, nil, nil
	}
	data, err := os.ReadFile(filepath.Join(lv.snap, "cache.log"))
	if err != nil {
		return nil, nil, err
	}
	st := cache.NewStore(lv.cfg.sz.cacheCap)
	if !withLog {
		cache.Replay(data, st.Add)
		return st, nil, nil
	}
	path := filepath.Join(dir, "cache.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	clog, err := service.OpenCacheLog(path, st)
	lv.replays = append(lv.replays, ms(time.Since(t0)))
	return st, clog, err
}

func (lv *levels) engine(st *cache.Store, workers int) *bicoop.Engine {
	opts := []bicoop.Option{bicoop.WithWorkers(workers)}
	if st != nil {
		opts = append(opts, bicoop.WithCacheStore(st))
	}
	return bicoop.NewEngine(opts...)
}

func (lv *levels) check(ctx context.Context, j job, body []byte) error {
	return lv.ck.check(ctx, j, sha256.Sum256(body))
}

func levelDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.work, name)
	return dir, os.MkdirAll(dir, 0o755)
}

// closeLog closes a cache log that may be nil.
func closeLog(clog *service.CacheLog) error {
	if clog == nil {
		return nil
	}
	return clog.Close()
}

// serviceLevel is L1. Each job runs under a CPU profile of its own; the
// profiles' package shares are the cpu_share metrics.
func (lv *levels) serviceLevel(ctx context.Context) (*level, error) {
	dir, err := levelDir(lv.cfg, "l1")
	if err != nil {
		return nil, err
	}
	st, clog, err := lv.store(dir, true)
	if err != nil {
		return nil, err
	}
	jobs, err := service.OpenStore(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, errors.Join(err, closeLog(clog))
	}
	svc := service.New(ctx, jobs, lv.engine(st, lv.nproc), service.Options{CacheLog: clog})
	if err := svc.Start(); err != nil {
		return nil, errors.Join(err, closeLog(clog))
	}
	l := &level{}
	l.call = func(ctx context.Context, i int, j job, s *sample) error {
		spec, err := service.ParseJobSpec(j.body)
		if err != nil {
			return err
		}
		pf, err := os.Create(filepath.Join(dir, fmt.Sprintf("cpu%03d.pprof", i)))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return err
		}
		var data []byte
		err = measure(s, func() error {
			id, err := svc.Submit(spec)
			if err != nil {
				return err
			}
			stt, err := svc.Wait(ctx, id)
			if err != nil {
				return err
			}
			if stt.State != service.StateDone {
				return fmt.Errorf("job ended %s: %s", stt.State, stt.Error)
			}
			data, _, err = svc.Results(id)
			return err
		})
		pprof.StopCPUProfile()
		if err := errors.Join(err, pf.Close()); err != nil {
			return err
		}
		lv.rep.fail(lv.check(ctx, j, data))
		return nil
	}
	l.close = func() error {
		dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		return errors.Join(svc.Drain(dctx), closeLog(clog))
	}
	return l, nil
}

// runLog runs the job's emitter into log, as bccd's executor does.
func runLog(ctx context.Context, eng *bicoop.Engine, j job, log *service.ResultLog) error {
	var err error
	switch {
	case j.sweep != nil:
		err = service.RunSweep(ctx, eng, *j.sweep, log)
	case j.region != nil:
		err = service.RunRegionBatch(ctx, eng, *j.region, log)
	default:
		err = service.RunCampaign(ctx, eng, *j.campaign, log)
	}
	return errors.Join(err, log.Close())
}

// logLevel is L2 (checkpointed) or L3 (no checkpoint).
func (lv *levels) logLevel(ctx context.Context, checkpointed bool) (*level, error) {
	name := "l3"
	if checkpointed {
		name = "l2"
	}
	dir, err := levelDir(lv.cfg, name)
	if err != nil {
		return nil, err
	}
	st, clog, err := lv.store(dir, true)
	if err != nil {
		return nil, err
	}
	eng := lv.engine(st, lv.nproc)
	logPath := filepath.Join(dir, "cache.log")
	l := &level{close: func() error { return closeLog(clog) }}
	l.call = func(ctx context.Context, i int, j job, s *sample) error {
		csv := filepath.Join(dir, fmt.Sprintf("%d.csv", i))
		ckpt := ""
		if checkpointed {
			ckpt = filepath.Join(dir, fmt.Sprintf("%d.ckpt", i))
		}
		err := measure(s, func() error {
			log, err := service.OpenResultLog(csv, ckpt)
			if err != nil {
				return err
			}
			if err := runLog(ctx, eng, j, log); err != nil || clog == nil {
				return err
			}
			before := fileSize(logPath)
			t0 := time.Now()
			err = clog.Flush()
			s.flushes = append(s.flushes, ms(time.Since(t0)))
			s.logBytes = append(s.logBytes, float64(fileSize(logPath)-before))
			return err
		})
		if err != nil {
			return err
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			return err
		}
		s.bytes = append(s.bytes, float64(len(data)))
		lv.rep.fail(lv.check(ctx, j, data))
		return os.Remove(csv)
	}
	return l, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// timedSaver counts and times every ResultLog.Save of a run.
type timedSaver struct {
	log   *service.ResultLog
	saves []float64
}

func (t *timedSaver) Save(watermark int) error {
	t0 := time.Now()
	err := t.log.Save(watermark)
	t.saves = append(t.saves, ms(time.Since(t0)))
	return err
}

// engineLevel is L4: the engine call with a no-op yield, optionally
// checkpointing into a ResultLog through a timedSaver.
func (lv *levels) engineLevel(workers int, checkpoint bool) (*level, error) {
	dir, err := levelDir(lv.cfg, fmt.Sprintf("l4-w%d-ck%t", workers, checkpoint))
	if err != nil {
		return nil, err
	}
	st, _, err := lv.store(dir, false)
	if err != nil {
		return nil, err
	}
	eng := lv.engine(st, workers)
	l := &level{close: func() error { return nil }}
	l.call = func(ctx context.Context, i int, j job, s *sample) error {
		var ck bicoop.Checkpointer
		var saver *timedSaver
		if checkpoint {
			log, err := service.OpenResultLog(filepath.Join(dir, fmt.Sprintf("%d.csv", i)), filepath.Join(dir, fmt.Sprintf("%d.ckpt", i)))
			if err != nil {
				return err
			}
			defer log.Close()
			saver = &timedSaver{log: log}
			ck = saver
		}
		err := measure(s, func() error {
			switch {
			case j.sweep != nil:
				spec := *j.sweep
				spec.Workers, spec.Checkpoint = workers, ck
				return eng.Sweep(ctx, spec, func(bicoop.SweepPoint) error { return nil })
			case j.region != nil:
				spec := *j.region
				spec.Workers, spec.Checkpoint = workers, ck
				return eng.RegionBatch(ctx, spec, func(bicoop.RegionBatchPoint) error { return nil })
			default:
				spec := *j.campaign
				spec.Workers, spec.Checkpoint = workers, ck
				_, err := eng.SimulateBatch(ctx, spec, nil)
				return err
			}
		})
		if saver != nil {
			s.saves = append(s.saves, saver.saves...)
			s.perJob = append(s.perJob, len(saver.saves))
		}
		return err
	}
	return l, nil
}

// kernels is L5: serial kernel time per job plus the per-kernel splits.
type kernels struct {
	level
	long                  int // the block length labelled n4000
	evalAllocs, evalItems float64
	simAllocs, blocks     float64
	lpUS, lpN             float64
	closedUS, closedN     float64
	directions, curves    float64
	assembleUS            float64
	cacheNS, cacheOps     float64
	blockMS, blockN       map[string][]float64
}

// lpProtocol reports whether p's bounds solve an LP; the others take
// closed forms.
func lpProtocol(p protocols.Protocol) bool { return p == protocols.Naive4 || p == protocols.HBC }

// internalProtocol maps the facade enum to the evaluator's by name.
func internalProtocol(p bicoop.Protocol) (protocols.Protocol, error) {
	for _, ip := range protocols.Protocols() {
		if ip.String() == p.String() {
			return ip, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %v", p)
}

func internalBound(b bicoop.Bound) protocols.Bound {
	if b == bicoop.Outer {
		return protocols.BoundOuter
	}
	return protocols.BoundInner
}

// evalPoint is one weighted-rate solve of the flattened job.
type evalPoint struct {
	idx      int // position in the engine's enumeration (sets chunk resets)
	proto    protocols.Protocol
	bound    protocols.Bound
	li       *protocols.LinkInfos
	muA, muB float64
	key      cache.Key
}

func (lv *levels) kernelLevel() (*kernels, error) {
	k := &kernels{long: lv.cfg.sz.blockLens[1], blockMS: map[string][]float64{"tdbc": {0, 0}, "mabc": {0, 0}}, blockN: map[string][]float64{"tdbc": {0, 0}, "mabc": {0, 0}}}
	dir, err := levelDir(lv.cfg, "l5")
	if err != nil {
		return nil, err
	}
	st, _, err := lv.store(dir, false)
	if err != nil {
		return nil, err
	}
	ev := protocols.NewEvaluator()
	k.close = func() error { return nil }
	k.call = func(ctx context.Context, _ int, j job, s *sample) error {
		return k.run(ctx, ev, st, j, s)
	}
	return k, nil
}

// run times one job's kernels: the job's kernel time is the sum of its
// timed pieces, and allocations are counted around the kernel calls only.
func (k *kernels) run(ctx context.Context, ev *protocols.Evaluator, st *cache.Store, j job, s *sample) error {
	var ms0, ms1 runtime.MemStats
	{
		total := 0.0
		allocs := 0.0
		if j.campaign != nil {
			for _, spec := range j.campaign.Specs {
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				name, n, err := runSim(ctx, spec)
				d := time.Since(t0)
				runtime.ReadMemStats(&ms1)
				if err != nil {
					return err
				}
				li := 0
				if n == k.long {
					li = 1
				}
				k.blockMS[name][li] += ms(d)
				k.blockN[name][li] += float64(spec.Trials)
				k.blocks += float64(spec.Trials)
				k.simAllocs += float64(ms1.Mallocs - ms0.Mallocs)
				total += ms(d)
				allocs += float64(ms1.Mallocs - ms0.Mallocs)
			}
			s.times = append(s.times, total)
			s.mallocs = append(s.mallocs, allocs)
			return nil
		}
		pts, nCurves, angles, err := flatten(j)
		if err != nil {
			return err
		}
		// Cache replay: the misses are what the engine solves.
		if st != nil {
			var kept []evalPoint
			t0 := time.Now()
			for _, p := range pts {
				if _, ok := st.Lookup(p.key); !ok {
					st.Add(p.key, cache.Value{})
					kept = append(kept, p)
				}
			}
			d := time.Since(t0)
			k.cacheNS += float64(d.Nanoseconds())
			k.cacheOps += float64(len(pts))
			total += ms(d)
			pts = kept
		}
		warm := st == nil
		var out []protocols.Optimum
		for _, lp := range []bool{true, false} {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			n, err := solve(ev, pts, lp, warm, &out)
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return err
			}
			if lp {
				k.lpUS += float64(d.Microseconds())
				k.lpN += float64(n)
			} else {
				k.closedUS += float64(d.Microseconds())
				k.closedN += float64(n)
			}
			total += ms(d)
			allocs += float64(ms1.Mallocs - ms0.Mallocs)
		}
		k.evalItems += float64(len(pts))
		if j.region != nil {
			k.directions += float64(len(pts))
			d, err := assemble(pts, out, nCurves, angles)
			if err != nil {
				return err
			}
			k.assembleUS += float64(d.Microseconds())
			k.curves += float64(nCurves)
			total += ms(d)
		}
		k.evalAllocs += allocs
		s.times = append(s.times, total)
		s.mallocs = append(s.mallocs, allocs)
	}
	return nil
}

// runSim runs one bit-true spec serially, as a campaign runs it.
func runSim(ctx context.Context, spec bicoop.SimSpec) (string, int, error) {
	if t := spec.BitTrueTDBC; t != nil {
		_, err := sim.RunBitTrueTDBC(ctx, sim.BitTrueConfig{
			Net:         sim.ErasureNetwork{EpsAR: t.Links.EpsAR, EpsBR: t.Links.EpsBR, EpsAB: t.Links.EpsAB},
			Rates:       protocols.RatePair{Ra: t.Rates.Ra, Rb: t.Rates.Rb},
			Durations:   t.Durations,
			BlockLength: t.BlockLength,
			Trials:      spec.Trials,
			Seed:        spec.Seed,
			Workers:     1,
		})
		return "tdbc", t.BlockLength, err
	}
	m := spec.BitTrueMABC
	_, err := sim.RunBitTrueMABC(ctx, sim.MABCBitTrueConfig{
		EpsMAC: m.Links.EpsMAC, EpsRA: m.Links.EpsRA, EpsRB: m.Links.EpsRB,
		Rate:        m.Rate,
		Durations:   m.Durations,
		BlockLength: m.BlockLength,
		Trials:      spec.Trials,
		Seed:        spec.Seed,
		Workers:     1,
	})
	return "mabc", m.BlockLength, err
}

// flatten lists a sweep's or region batch's solves in the engine's
// enumeration order, resolving scenarios outside the timed kernels.
func flatten(j job) ([]evalPoint, int, int, error) {
	var pts []evalPoint
	if s := j.sweep; s != nil {
		bound := internalBound(s.Bound)
		idx := 0
		for _, pdb := range s.PowersDB {
			for _, pl := range s.Placements {
				sc, err := pl.Scenario(pdb)
				if err != nil {
					return nil, 0, 0, err
				}
				li, err := protocols.LinkInfosFromScenario(protocols.NewScenarioDB(sc.PowerDB, sc.GabDB, sc.GarDB, sc.GbrDB))
				if err != nil {
					return nil, 0, 0, err
				}
				for _, p := range s.Protocols {
					ip, err := internalProtocol(p)
					if err != nil {
						return nil, 0, 0, err
					}
					pts = append(pts, evalPoint{idx: idx, proto: ip, bound: bound, li: &li, muA: 1, muB: 1,
						key: cache.SumRateKey(ip, bound, sc.PowerDB, sc.GabDB, sc.GarDB, sc.GbrDB)})
					idx++
				}
			}
		}
		return pts, 0, 0, nil
	}
	r := j.region
	idx := 0
	for _, sc := range r.Scenarios {
		li, err := protocols.LinkInfosFromScenario(protocols.NewScenarioDB(sc.PowerDB, sc.GabDB, sc.GarDB, sc.GbrDB))
		if err != nil {
			return nil, 0, 0, err
		}
		for _, c := range r.Curves {
			ip, err := internalProtocol(c.Protocol)
			if err != nil {
				return nil, 0, 0, err
			}
			ib := internalBound(c.Bound)
			for d := 0; d < r.Angles+2; d++ {
				muA, muB := 1.0, 0.0
				switch {
				case d < r.Angles:
					muA, muB = protocols.RegionDirection(d, r.Angles)
				case d == r.Angles+1:
					muA, muB = 0, 1
				}
				pts = append(pts, evalPoint{idx: idx, proto: ip, bound: ib, li: &li, muA: muA, muB: muB,
					key: cache.WeightedKey(ip, ib, sc.PowerDB, sc.GabDB, sc.GarDB, sc.GbrDB, muA, muB)})
				idx++
			}
		}
	}
	return pts, r.Size(), r.Angles, nil
}

// solve evaluates the LP (or the closed-form) points of pts serially. In
// warm mode the evaluator warm-starts like the engine's uncached workers,
// dropping its bases at every chunk boundary of the enumeration; cached
// engines solve cold. Optima land in out, indexed like pts.
func solve(ev *protocols.Evaluator, pts []evalPoint, lp, warm bool, out *[]protocols.Optimum) (int, error) {
	if len(*out) < len(pts) {
		*out = make([]protocols.Optimum, len(pts))
	}
	ev.SetWarmStart(warm)
	chunk, n := -1, 0
	for i, p := range pts {
		if lpProtocol(p.proto) != lp {
			continue
		}
		if c := p.idx / sweep.ChunkSize; c != chunk {
			ev.ResetWarmStart()
			chunk = c
		}
		opt, err := ev.WeightedRateLinks(p.proto, p.bound, *p.li, p.muA, p.muB)
		if err != nil {
			return n, err
		}
		(*out)[i] = protocols.Optimum{Rates: opt.Rates, Objective: opt.Objective}
		n++
	}
	ev.SetWarmStart(false)
	return n, nil
}

// assemble hulls every curve of a region batch from its solves, timed.
func assemble(pts []evalPoint, out []protocols.Optimum, nCurves, angles int) (time.Duration, error) {
	per := angles + 2
	if len(pts) != nCurves*per {
		return 0, fmt.Errorf("region batch has %d solves, want %d", len(pts), nCurves*per)
	}
	t0 := time.Now()
	swept := make([]region.Point, angles)
	for c := 0; c < nCurves; c++ {
		base := c * per
		for d := 0; d < angles; d++ {
			r := out[base+d].Rates
			swept[d] = region.Point{Ra: max(r.Ra, 0), Rb: max(r.Rb, 0)}
		}
		protocols.AssembleRegion(swept, out[base+angles].Rates.Ra, out[base+angles+1].Rates.Rb)
	}
	return time.Since(t0), nil
}

// cpuShares buckets the CPU profiles in dir by package with
// `go tool pprof -top`, which merges them.
func cpuShares(ctx context.Context, dir string) (map[string]float64, error) {
	profs, err := filepath.Glob(filepath.Join(dir, "cpu*.pprof"))
	if err != nil || len(profs) == 0 {
		return nil, fmt.Errorf("no CPU profiles in %s", dir)
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000"}, profs...)
	out, err := exec.CommandContext(ctx, "go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{"simplex": 0, "gf2": 0, "prob": 0, "fmt_strconv": 0, "syscall": 0, "gc": 0}
	total := 0.0
	for _, line := range strings.Split(string(out), "\n") {
		if _, rest, ok := strings.Cut(line, "Total samples = "); ok {
			if total, err = parseDur(strings.Fields(rest)[0]); err != nil {
				return nil, err
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err1 := parseDur(f[0])
		cum, err2 := parseDur(f[3])
		if errors.Join(err1, err2) != nil {
			continue // the column header
		}
		fn := strings.Join(f[5:], " ")
		switch {
		case strings.HasPrefix(fn, "bicoop/internal/simplex."):
			shares["simplex"] += flat
		case strings.HasPrefix(fn, "bicoop/internal/gf2."):
			shares["gf2"] += flat
		case strings.HasPrefix(fn, "bicoop/internal/prob."):
			shares["prob"] += flat
		case strings.HasPrefix(fn, "fmt.") || strings.HasPrefix(fn, "strconv."):
			shares["fmt_strconv"] += flat
		case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall."):
			shares["syscall"] += flat
		case fn == "runtime.gcBgMarkWorker" || fn == "runtime.gcAssistAlloc" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge":
			shares["gc"] += cum
		}
	}
	if total <= 0 {
		return shares, nil // too short a level to sample: every share is 0
	}
	for k, v := range shares {
		shares[k] = v / total
	}
	return shares, nil
}

// parseDur reads a pprof duration column ("1.20s", "10ms", "0") in seconds.
func parseDur(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	return d.Seconds(), err
}

// writeSpans writes the traced L0 spans under .bench_build/traces.
func writeSpans(cfg config, w workload, tr *tracer) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tr.spans); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed)), buf.Bytes(), 0o644)
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func meanOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ratioOr0 is a/b, or 0 where the layer did no work (b == 0).
func ratioOr0(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
