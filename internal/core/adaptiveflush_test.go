package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
)

func TestAdaptiveFlushTimeoutBounds(t *testing.T) {
	const bt = 40 * time.Millisecond
	cases := []struct {
		name string
		ewma time.Duration
		want time.Duration
	}{
		{"no data yet -> static timeout", 0, bt},
		{"dense burst -> floor", time.Microsecond, bt / 16},
		{"moderate rate -> four gaps", 2 * time.Millisecond, 8 * time.Millisecond},
		{"sparse arrivals -> capped at static", 15 * time.Millisecond, bt},
		{"gap at cap -> capped at static", bt, bt},
	}
	for _, c := range cases {
		if got := adaptiveFlushTimeout(c.ewma, bt); got != c.want {
			t.Errorf("%s: adaptiveFlushTimeout(%v, %v) = %v, want %v",
				c.name, c.ewma, bt, got, c.want)
		}
	}
}

// TestAdaptiveFlushCoalescingBehavior drives the same load through a
// static-timeout master and an adaptive one. Full synchronized waves
// must coalesce identically (adaptation must not cut filled batches
// into timer flushes), while a short wave that arrives just behind a
// full one must commit much sooner under the adaptive timer: the full
// wave's same-instant arrivals push the rate EWMA down, so the short
// wave's flush timer shrinks toward BatchTimeout/16 instead of waiting
// out the full static timeout.
func TestAdaptiveFlushCoalescingBehavior(t *testing.T) {
	run := func(adaptive bool) (full, timer uint64, tailLatency time.Duration) {
		s := sim.New(73)
		o := defaultOpts()
		o.nMasters = 1
		o.params.MaxLatency = 4 * time.Millisecond
		o.params.KeepAliveEvery = 100 * time.Millisecond
		o.batchSize = 16
		o.batchTimeout = 40 * time.Millisecond
		o.batchAdaptive = adaptive
		c := newTestCluster(t, s, o)
		cl := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
		short := c.addClient(t, 1, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
		s.Go(func() {
			s.Sleep(c.warmup())
			if err := cl.Setup(); err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			if err := short.Setup(); err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			wave := func(cl *Client, n int, round int) {
				ops := make([]store.Op, n)
				for j := range ops {
					ops[j] = store.Put{Key: fmt.Sprintf("w/%d-%d", round, j), Value: []byte("v")}
				}
				if _, err := cl.WriteMulti(ops); err != nil {
					t.Errorf("wave %d: %v", round, err)
				}
			}
			// Full waves: must flush full under both timers.
			for r := 0; r < 4; r++ {
				wave(cl, 16, r)
			}
			// Short wave: 8 ops a millisecond behind a full wave wait on
			// the flush timer.
			fullDone := false
			s.Spawn(func() { wave(cl, 16, 4); fullDone = true })
			s.Sleep(time.Millisecond)
			start := s.Now()
			wave(short, 8, 5)
			tailLatency = s.Now().Sub(start)
			for !fullDone {
				s.Sleep(time.Millisecond)
			}
			st := c.masters[0].Stats()
			full, timer = st.BatchFlushFull, st.BatchFlushTimer
		})
		s.RunUntil(sim.Epoch.Add(time.Minute))
		return full, timer, tailLatency
	}

	sFull, sTimer, sLat := run(false)
	aFull, aTimer, aLat := run(true)
	if sFull != 5 || aFull != 5 {
		t.Fatalf("full-batch coalescing changed: static=%d adaptive=%d full flushes, want 5", sFull, aFull)
	}
	if sTimer != 1 || aTimer != 1 {
		t.Fatalf("short wave: static=%d adaptive=%d timer flushes, want 1 each", sTimer, aTimer)
	}
	// The static short wave waits the full 40ms timeout; the adaptive
	// one should flush near the 2.5ms floor. Demand at least half the
	// static timeout back to keep the assertion robust.
	if aLat >= sLat-20*time.Millisecond {
		t.Fatalf("adaptive tail latency %v not meaningfully below static %v", aLat, sLat)
	}
}
