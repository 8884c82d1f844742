package fault

import (
	"context"
	"testing"
	"time"
)

// TestClockWakesOnlyDueSleepers: Advance wakes exactly the sleepers whose
// deadline it reaches, a sleep of no time does not park, and a sleeper
// whose context ends leaves the clock reporting false.
func TestClockWakesOnlyDueSleepers(t *testing.T) {
	c := NewClock()
	if !c.Sleep(context.Background(), 0) {
		t.Fatal("a zero sleep on a live context reported false")
	}
	woke := make(chan time.Duration, 2)
	for _, d := range []time.Duration{time.Second, 2 * time.Second} {
		go func() {
			if c.Sleep(context.Background(), d) {
				woke <- d
			}
		}()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan bool)
	go func() { cancelled <- c.Sleep(ctx, time.Hour) }()
	if !c.WaitSleepers(3, 10*time.Second) {
		t.Fatal("three sleepers never parked")
	}

	c.Advance(time.Second - 1)
	if c.WaitSleepers(4, 0) || !c.WaitSleepers(3, 0) {
		t.Fatal("an advance short of every deadline changed the parked sleepers")
	}
	c.Advance(1)
	if d := <-woke; d != time.Second {
		t.Fatalf("Advance to 1s woke the %v sleeper", d)
	}
	c.Advance(time.Second)
	if d := <-woke; d != 2*time.Second {
		t.Fatalf("Advance to 2s woke the %v sleeper", d)
	}

	cancel()
	if <-cancelled {
		t.Fatal("a sleep whose context ended reported true")
	}
	c.Advance(time.Hour)
	if c.WaitSleepers(1, 0) {
		t.Fatal("a sleeper whose context ended is still parked")
	}
}
