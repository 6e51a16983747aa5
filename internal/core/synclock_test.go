package core

import (
	"sync"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestHandleSyncPredatesBaseLockedRead serves sync requests that predate
// the retained base while a checkpoint keeps advancing baseVersion.
// handleSync compares the request against the base, picks the snapshot
// and cuts the batch suffix in one critical section, then signs outside
// it; every reply must still be one consistent, verifiable snapshot-first
// transfer. Regression test for a repllint lockcheck finding (an unlocked
// read of baseVersion); run under -race in `make race`.
func TestHandleSyncPredatesBaseLockedRead(t *testing.T) {
	keys := cryptoutil.DeriveKeyPair("master", 0)
	m := &Master{cfg: MasterConfig{Keys: keys}, rt: sim.RealClock{}, store: store.New(), baseVersion: 5}
	body := wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(1) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.mu.Lock()
			m.baseVersion++ // checkpoint truncation racing the sync
			m.mu.Unlock()
		}
	}()
	for i := 0; i < 200; i++ {
		reply, err := m.handleSync(body)
		if err != nil {
			t.Fatalf("pre-base sync refused: %v", err)
		}
		st, err := decodeStateTransfer(reply, []cryptoutil.PublicKey{keys.Public}, nil)
		if err != nil {
			t.Fatalf("reply does not verify: %v", err)
		}
		if st.snap == nil || len(st.batches) != 0 {
			t.Fatalf("from=1 below the base: snapshot=%v, %d batches; want snapshot-first, none", st.snap != nil, len(st.batches))
		}
	}
	close(stop)
	wg.Wait()
}
