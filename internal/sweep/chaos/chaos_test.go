package chaos

import (
	"errors"
	"testing"
)

// TestFaultScheduleDeterministic pins that the delay schedule is a pure
// function of (Seed, chunk start): two injectors with the same seed agree on
// every chunk, and asking again gives the same answer.
func TestFaultScheduleDeterministic(t *testing.T) {
	a := &Injector{Seed: 42, DelayRate: 0.3}
	b := &Injector{Seed: 42, DelayRate: 0.3}
	for lo := 0; lo < 4096; lo += 64 {
		if a.delayed(lo) != b.delayed(lo) || a.delayed(lo) != a.delayed(lo) {
			t.Fatalf("chunk %d: schedules disagree between same-seed draws", lo)
		}
	}
}

// TestFaultRate sanity-checks that the configured rate roughly matches the
// fraction of delayed chunks.
func TestFaultRate(t *testing.T) {
	inj := &Injector{Seed: 1, DelayRate: 0.2}
	delayed := 0
	const chunks = 2000
	for c := 0; c < chunks; c++ {
		if inj.delayed(c * 64) {
			delayed++
		}
	}
	got := float64(delayed) / chunks
	if got < 0.15 || got > 0.25 {
		t.Errorf("delay rate %.3f, want ~0.2", got)
	}
}

// TestSeedVariesSchedule pins that distinct seeds give distinct schedules.
func TestSeedVariesSchedule(t *testing.T) {
	a := &Injector{Seed: 1, DelayRate: 0.5}
	b := &Injector{Seed: 2, DelayRate: 0.5}
	same := true
	for lo := 0; lo < 64*64; lo += 64 {
		if a.delayed(lo) != b.delayed(lo) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical schedules over 64 chunks")
	}
}

// TestWrapPermanent pins that a permanent fault hits every call on its
// chunk and no other chunk.
func TestWrapPermanent(t *testing.T) {
	inj := &Injector{Seed: 3, PermanentStarts: []int{64}}
	do := Wrap(inj, func(_ struct{}, lo, hi int) error { return nil })
	for call := 1; call <= 3; call++ {
		if err := do(struct{}{}, 64, 128); !errors.Is(err, ErrPermanent) {
			t.Fatalf("call %d: err = %v, want ErrPermanent", call, err)
		}
	}
	if err := do(struct{}{}, 0, 64); err != nil {
		t.Errorf("unlisted chunk faulted: %v", err)
	}
}

// TestWrapPanicOnce pins that an injected panic fires once per call on its
// chunk, on every call, and never on an unlisted chunk.
func TestWrapPanicOnce(t *testing.T) {
	inj := &Injector{Seed: 3, PanicStarts: []int{0}}
	do := Wrap(inj, func(_ struct{}, lo, hi int) error { return nil })
	for call := 1; call <= 2; call++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d did not panic", call)
				}
			}()
			_ = do(struct{}{}, 0, 64)
		}()
	}
	if err := do(struct{}{}, 64, 128); err != nil {
		t.Errorf("unlisted chunk: %v, want clean", err)
	}
}
