package main

// bench.go — the end-to-end run: bccd started as a user starts it, driven
// by one closed-loop client for the measured window, then every job
// checked against its in-process reference.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"bicoop"
)

// Set-up is repeated and its median reported: fresh-store starts for the
// uncached workloads, warm restarts (cache.log replay plus job-store
// recovery) for sweep-cached.
const (
	freshStarts  = 9
	warmRestarts = 5
)

// config is one benchmark invocation.
type config struct {
	root   string // checkout root, holding cmd/bccd
	work   string // working directory of this run, removed at exit
	bin    string // built bccd
	seed   int64
	window time.Duration
	sz     size
	tiny   bool
}

// record is one measured job.
type record struct {
	j     job
	o     outcome
	sum   [sha256.Size]byte
	stats bicoop.CacheStats // GET /stats delta over the job (cached workloads)
	probe time.Duration     // the speed probe run right after the job
}

// session is a bccd daemon after set-up, with the client that drives it.
type session struct {
	d        *daemon
	c        *client
	setups   []time.Duration
	warm     []record // set-up jobs, checked like measured ones
	snap     string   // copy of the post-warm-up store (cached workloads)
	probeDir string
}

func (s *session) close() {
	s.c.close()
	if s.d != nil {
		s.d.stop()
	}
}

// startSession brings bccd up on a fresh store under dir, runs the
// workload's warm-up and records the set-up times.
func startSession(ctx context.Context, cfg config, w workload, g *generator, dir string, tr *tracer) (*session, error) {
	store := filepath.Join(dir, "store")
	logPath := filepath.Join(dir, "bccd.log")
	capacity := 0
	if w.cached {
		capacity = cfg.sz.cacheCap
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &session{probeDir: dir}
	starts := freshStarts
	if w.warmup != nil {
		d, _, err := startDaemon(ctx, cfg.bin, store, logPath, capacity)
		if err != nil {
			return nil, err
		}
		s.d = d
		c := newClient(d.base, nil)
		for i, j := range w.warmup(g) {
			rec, err := runRecorded(ctx, c, -1-i, j, w.cached)
			if err != nil {
				c.close()
				s.close()
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
			s.warm = append(s.warm, rec)
		}
		c.close()
		starts = warmRestarts
	}
	for k := 0; k < starts; k++ {
		if s.d != nil {
			if err := s.d.stop(); err != nil {
				return nil, fmt.Errorf("draining bccd: %w", err)
			}
			s.d = nil
			if w.warmup != nil && s.snap == "" {
				s.snap = filepath.Join(dir, "snapshot")
				if err := copyDir(store, s.snap); err != nil {
					return nil, err
				}
			}
		}
		d, t, err := startDaemon(ctx, cfg.bin, store, logPath, capacity)
		if err != nil {
			return nil, err
		}
		s.d = d
		s.setups = append(s.setups, t)
	}
	s.c = newClient(s.d.base, tr)
	return s, nil
}

// runRecorded runs one job and hashes its body; for cached workloads it
// also takes the GET /stats delta across the job.
func runRecorded(ctx context.Context, c *client, idx int, j job, cached bool) (record, error) {
	var before bicoop.CacheStats
	if cached {
		var err error
		if before, err = c.cacheStats(ctx); err != nil {
			return record{}, err
		}
	}
	rec := record{j: j, o: c.run(ctx, idx, j.body)}
	if rec.o.err != nil {
		return rec, rec.o.err
	}
	rec.sum = sha256.Sum256(rec.o.body)
	if j.campaign != nil {
		// Only the small campaign bodies are kept, for the trials check.
		rec.o.body = slices.Clip(rec.o.body)
	} else {
		rec.o.body = nil
	}
	if cached {
		after, err := c.cacheStats(ctx)
		if err != nil {
			return rec, err
		}
		rec.stats = bicoop.CacheStats{
			Hits:      after.Hits - before.Hits,
			Misses:    after.Misses - before.Misses,
			Fills:     after.Fills - before.Fills,
			Evictions: after.Evictions - before.Evictions,
		}
	}
	return rec, nil
}

// loop runs jobs 0, 1, ... of the sequence until the window has passed,
// each followed by the host-speed probe. A job that fails is counted and
// the loop goes on, unless three fail in a row.
func loop(ctx context.Context, s *session, w workload, g *generator, window time.Duration) ([]record, []error) {
	var recs []record
	var errs []error
	t0 := time.Now()
	streak := 0
	for i := 0; time.Since(t0) < window; i++ {
		rec, err := runRecorded(ctx, s.c, i, w.next(g, i), w.cached)
		if err != nil {
			errs = append(errs, fmt.Errorf("job %d: %w", i, err))
			if streak++; streak == 3 || ctx.Err() != nil {
				break
			}
			continue
		}
		streak = 0
		if !w.ioBound {
			rec.probe = cpuProbe()
		} else if rec.probe, err = probe(s.probeDir); err != nil {
			errs = append(errs, fmt.Errorf("speed probe after job %d: %w", i, err))
			break
		}
		recs = append(recs, rec)
	}
	return recs, errs
}

// verify checks every recorded job: reference bytes, and the counter
// reconciliations (cache lookups == points, campaign blocks == trials).
func verify(ctx context.Context, cached bool, recs []record) []error {
	ck := newChecker(cached)
	var errs []error
	for _, r := range recs {
		if err := ck.check(ctx, r.j, r.sum); err != nil {
			errs = append(errs, err)
		}
		if cached && r.stats.Hits+r.stats.Misses != uint64(r.j.units) {
			errs = append(errs, fmt.Errorf("job %d: /stats counted %d lookups for %d points",
				r.j.ref, r.stats.Hits+r.stats.Misses, r.j.units))
		}
		if r.j.campaign != nil {
			n, err := campaignTrials(r.o.body)
			if err == nil && n != r.j.units {
				err = fmt.Errorf("job %d: campaign reports %d trials for %d blocks", r.j.ref, n, r.j.units)
			}
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errs
}

// endToEnd measures the user-visible metrics.
func endToEnd(ctx context.Context, cfg config, w workload, rep *report) error {
	g := newGenerator(cfg.seed, cfg.sz)
	s, err := startSession(ctx, cfg, w, g, cfg.work, nil)
	if err != nil {
		return err
	}
	defer s.close()
	syscall.Sync()
	user0, sys0, err := s.d.cpuSeconds()
	if err != nil {
		return err
	}
	recs, errs := loop(ctx, s, w, g, cfg.window)
	user1, sys1, err1 := s.d.cpuSeconds()
	rss, err2 := s.d.peakRSSMB()
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if err := s.d.stop(); err != nil {
		return fmt.Errorf("draining bccd: %w", err)
	}
	s.d = nil
	if len(recs) == 0 {
		return fmt.Errorf("no job completed: %w", errors.Join(errs...))
	}

	rep.attempted += len(recs) + len(errs) + len(s.warm)
	errs = append(errs, verify(ctx, w.cached, append(s.warm, recs...))...)
	rep.fail(errs...)
	rep.gateDigest(ctx, w, cfg)

	// Job times are reported host-speed adjusted, each by the probe run
	// right after the job (see probe.go); the raw figures go to the notes.
	// Set-up time is reported raw, and user CPU time too except on the
	// CPU-bound workload, where the run's median probe scales it. System
	// CPU time, which on this kind of host swings 2x with the disk's state,
	// goes to the notes.
	lat := make([]float64, len(recs))
	adj := make([]float64, len(recs))
	probes := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = ms(r.o.latency)
		probes[i] = ms(r.probe)
		adj[i] = lat[i] * ms(probeNominal) / probes[i]
	}
	cpu := (user1 - user0) / float64(len(recs))
	rawCPU := cpu
	if !w.ioBound {
		cpu *= ms(probeNominal) / median(probes)
	}
	setups := make([]float64, len(s.setups))
	for i, t := range s.setups {
		setups[i] = t.Seconds()
	}
	tail, pct := tailOf(adj)
	perJob := float64(recs[0].j.units) // every job of a workload has the same size
	rep.set("setup_s", median(setups))
	rep.set("job_p50_ms", median(adj))
	rep.set("job_tail_ms", tail)
	rep.set("throughput_per_s", perJob/median(adj)*1000)
	rep.set("server_user_cpu_s_per_job", cpu)
	rep.set("server_rss_mb", rss)
	rep.note("jobs=%d poll_interval_ms=%g job_tail_ms is p%.1f of %d jobs; throughput_per_s is %s_per_s at the median job; failed_frac=%.4g",
		len(recs), ms(pollInterval), pct, len(lat), w.unit, float64(rep.failed)/float64(rep.attempted))
	rawTail, _ := tailOf(lat)
	rep.note("host-speed adjusted to a %g ms probe (run median %.3f ms); raw job_p50_ms=%.6g job_tail_ms=%.6g throughput_per_s=%.6g server_user_cpu_s_per_job=%.6g; server_sys_cpu_s_per_job=%.6g",
		ms(probeNominal), median(probes), median(lat), rawTail, perJob/median(lat)*1000, rawCPU, (sys1-sys0)/float64(len(recs)))
	return nil
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile of xs with at least ten samples
// beyond it, and that percentile; with ten samples or fewer, the maximum.
func tailOf(xs []float64) (float64, float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}
