package e2e

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestTCPWriteMultiWavesAndCheckpoint drives the single-frame write-wave
// RPC and the checkpoint machinery together over real TCP, under the
// race detector: concurrent goroutines each ship whole waves through
// WriteMulti, slaves ack their applied versions on keep-alive/update
// replies, and the master's stability checkpoints truncate the op log
// while everything is in flight. Asserts: every wave op commits with a
// unique version and the overall sequence is gapless; the slave
// converges to the master's digest; and after quiescence the retained
// log has been truncated to the master's retain window (64 ops, plus the
// batch that crosses it) rather than growing with total writes.
func TestTCPWriteMultiWavesAndCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	const (
		writers = 4
		waves   = 20
		wave    = 8
		total   = writers * waves * wave
		// The master keeps a 64-op window; allow one wave and one batch
		// beyond it, as the bound allowed beyond a settable window before.
		bound = 64 + 2*wave
	)
	d := deploy(t, 1, nil, func(cfg *core.MasterConfig) {
		cfg.BatchSize = 4
		cfg.BatchTimeout = 5 * time.Millisecond
		cfg.Params.MaxLatency = 10 * time.Millisecond
		cfg.CheckpointEvery = 100 * time.Millisecond
	})
	defer d.close()

	var (
		mu       sync.Mutex
		versions = make(map[uint64]int)
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < waves; i++ {
				ops := make([]store.Op, wave)
				for j := range ops {
					ops[j] = store.Put{
						Key:   workload.CatalogKey(w*waves*wave + i*wave + j),
						Value: []byte{byte(w), byte(i), byte(j)},
					}
				}
				vs, err := d.client.WriteMulti(ops)
				if err != nil {
					t.Errorf("writer %d wave %d: %v", w, i, err)
					return
				}
				mu.Lock()
				for _, v := range vs {
					versions[v]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	base := uint64(1) // deploy starts the content at version 1
	if len(versions) != total {
		t.Fatalf("%d distinct versions for %d wave writes", len(versions), total)
	}
	for v := base + 1; v <= base+total; v++ {
		if versions[v] != 1 {
			t.Fatalf("version %d assigned %d times; gap or duplicate", v, versions[v])
		}
	}

	// Slave convergence through batched updates (and sync if needed).
	deadline := time.Now().Add(5 * time.Second)
	for d.slaves[0].Version() != d.master.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("slave stuck at %d, master at %d", d.slaves[0].Version(), d.master.Version())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got, want := d.slaves[0].StateDigest(), d.master.StateDigest(); !got.Equal(want) {
		t.Fatal("slave digest diverged from master")
	}

	// Quiesce: acks land and a final checkpoint truncates to the window.
	deadline = time.Now().Add(5 * time.Second)
	for d.master.RetainedOps() > bound {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := d.master.RetainedOps(); got > bound {
		t.Fatalf("retained %d ops after %d writes; checkpointing did not bound the log", got, total)
	}
	st := d.master.Stats()
	if st.CheckpointsApplied == 0 || st.OpsTruncated == 0 {
		t.Fatalf("checkpoint machinery idle over TCP: %+v", st)
	}
	if d.master.BaseVersion() <= base {
		t.Fatalf("baseVersion never advanced: %d", d.master.BaseVersion())
	}
}
