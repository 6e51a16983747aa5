package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupJoinsInVirtualTime: Wait returns at the finish of the slowest
// task, not the sum, and a group with nothing running does not park.
func TestGroupJoinsInVirtualTime(t *testing.T) {
	s := New(1)
	var took time.Duration
	done := 0
	s.Go(func() {
		NewGroup(s).Wait() // empty: returns at once
		g := NewGroup(s)
		for _, d := range []time.Duration{3 * time.Millisecond, 0, 7 * time.Millisecond} {
			g.Go(func() {
				s.Sleep(d)
				done++
			})
		}
		g.Wait()
		took = s.Now().Sub(Epoch)
	})
	s.Run()
	if done != 3 || took != 7*time.Millisecond {
		t.Fatalf("joined %d of 3 tasks after %v, want all after 7ms", done, took)
	}
}

func TestGroupJoinsOnRealClock(t *testing.T) {
	var done atomic.Int32
	g := NewGroup(RealClock{})
	for i := 0; i < 8; i++ {
		g.Go(func() { done.Add(1) })
	}
	g.Wait()
	if done.Load() != 8 {
		t.Fatalf("Wait returned with %d of 8 tasks finished", done.Load())
	}
}
