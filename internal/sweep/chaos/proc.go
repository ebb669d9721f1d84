package chaos

// proc.go — process-level chaos: kill -9 a worker process at deterministic
// (but varied) uptimes and restart it until its durable work completes. The
// in-process injector above exercises the resilience layer's error paths;
// ProcKiller exercises the one failure no in-process test can — the process
// disappearing between any two instructions — which is exactly what the
// checkpoint/resume discipline (tmp+rename saves, truncate-to-offset
// resume) must survive. Uptimes are drawn from the same splitmix64 mixer as
// the fault injector, so a failing schedule reproduces from its seed.

import (
	"context"
	"fmt"
	"os/exec"
	"time"
)

// ProcKiller repeatedly starts a process, SIGKILLs it after a seeded
// pseudo-random uptime, and restarts it, until the caller reports the work
// done or MaxRounds passes without completion.
type ProcKiller struct {
	// Seed drives the uptime draws; a fixed seed replays the kill schedule.
	Seed int64
	// MinUptime and MaxUptime bound each round's uptime draw. MinUptime
	// should comfortably cover process startup plus at least one checkpoint
	// save, so every round makes durable progress and the loop terminates.
	MinUptime, MaxUptime time.Duration
	// Grow lengthens each round's uptime by Grow*round. Small uptimes keep
	// the early kills landing mid-work on fast machines; the growth
	// guarantees the loop terminates on slow ones (race-instrumented builds,
	// loaded CI runners) without retuning the base window.
	Grow time.Duration
	// MaxRounds caps kill rounds (a liveness backstop, not a target);
	// non-positive means 50.
	MaxRounds int
}

// Uptime returns round r's uptime: MinUptime plus a splitmix64 draw of the
// span plus the linear growth term, a pure function of (Seed, r).
func (k *ProcKiller) Uptime(r int) time.Duration {
	grow := k.Grow * time.Duration(r)
	span := k.MaxUptime - k.MinUptime
	if span <= 0 {
		return k.MinUptime + grow
	}
	x := splitmix64(uint64(k.Seed) ^ uint64(r)*0x9E3779B97F4A7C15)
	return k.MinUptime + time.Duration(x%uint64(span)) + grow
}

// Run drives the kill loop: start launches the process (already started or
// ready to Start — Run calls Start if it has not been), done polls the
// durable completion condition. Each round the process runs for the round's
// uptime (polling done throughout), then is SIGKILLed and restarted. When
// done reports true the current process is killed a final time and Run
// returns the number of kills performed. The final state is whatever the
// durable store says — the caller asserts on that, not on process exit.
// Cancelling ctx kills the current process and returns ctx's error.
//
//bicoop:allow deadexport — the kill -9 loop of the service and sweep/chaos tests
func (k *ProcKiller) Run(ctx context.Context, start func() (*exec.Cmd, error), done func() bool) (kills int, err error) {
	rounds := k.MaxRounds
	if rounds <= 0 {
		rounds = 50
	}
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return kills, err
		}
		cmd, err := start()
		if err != nil {
			return kills, fmt.Errorf("round %d: start: %w", r, err)
		}
		if cmd.Process == nil {
			if err := cmd.Start(); err != nil {
				return kills, fmt.Errorf("round %d: start: %w", r, err)
			}
		}
		deadline := time.Now().Add(k.Uptime(r))
		finished := false
		canceled := false
		for time.Now().Before(deadline) {
			if ctx.Err() != nil {
				canceled = true
				break
			}
			if done() {
				finished = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		// SIGKILL regardless: if the work finished, the kill only tears the
		// now-idle process down; if not, this is the chaos. Wait reaps the
		// child so the next round's start never races a zombie holding the
		// store.
		cmd.Process.Kill()
		cmd.Wait()
		if canceled {
			return kills, ctx.Err()
		}
		if !finished && done() {
			finished = true // completed in the instant before the kill landed
		}
		if finished {
			return kills, nil
		}
		kills++
	}
	return kills, fmt.Errorf("work not done after %d kill rounds (min uptime %s may be too short for one checkpoint)", rounds, k.MinUptime)
}
