package sim

import (
	"testing"
	"time"
)

// These tests pin the Event free-list contract: a handle is live until its
// event fires or is cancelled; after that the engine may hand the same
// struct back from a later Schedule, at which point the stale handle
// describes the new incarnation.

func TestEventRecycledAfterFire(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(time.Second, func() {})
	e.Run()
	if !a.Cancelled() {
		t.Fatal("fired event must report Cancelled() = true")
	}
	b := e.Schedule(2*time.Second, func() {})
	if a != b {
		t.Fatal("Schedule after a fire should reuse the expired Event struct")
	}
	// The recycled handle now describes the NEW event: live, rescheduled.
	if a.Cancelled() {
		t.Error("recycled handle reports Cancelled() for the new incarnation")
	}
	if a.At() != 3*time.Second {
		t.Errorf("recycled handle At() = %v, want 3s (new incarnation)", a.At())
	}
	e.Run()
	if !b.Cancelled() {
		t.Error("second incarnation should be expired after firing")
	}
}

func TestEventRecycledAfterCancel(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(time.Second, func() { t.Error("cancelled event fired") })
	e.Cancel(a)
	if !a.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	fired := false
	b := e.Schedule(time.Second, func() { fired = true })
	if a != b {
		t.Fatal("Schedule after a cancel should reuse the Event struct")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestFreeListKeepsOrderingUnderChurn hammers mixed schedule/cancel/fire
// churn and verifies the specialized queue still fires strictly in (time,
// scheduling-order) sequence with recycled structs in play.
func TestFreeListKeepsOrderingUnderChurn(t *testing.T) {
	e := NewEngine(WithSeed(99))
	var fired []time.Duration
	live := make([]*Event, 0, 64)
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			d := time.Duration(1+e.Rand().Intn(1000)) * time.Millisecond
			live = append(live, e.Schedule(d, func() { fired = append(fired, e.Now()) }))
		}
		// Cancel a third of what we scheduled this round.
		for i := 0; i < 6; i++ {
			e.Cancel(live[len(live)-1-i*3])
		}
		e.RunFor(500 * time.Millisecond)
		live = live[:0] // handles are dead after the run; drop them
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire times went backwards at %d: %v then %v", i, fired[i-1], fired[i])
		}
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", e.Pending())
	}
}
