package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestForgedSubmitNeverAcksForeignOps: b.submit is unauthenticated and
// crosses a plaintext wire. While the origin's next batch waits out its
// §3.1 pacing slot, a forger sends the sequencer a b.submit of another op,
// built from the origin's last submit — under an identity of its own, and
// under the origin's next submit identity, which it predicts from the one
// it saw. Whatever the forged slot does, the waiting write is never
// acknowledged at a version that holds someone else's op.
func TestForgedSubmitNeverAcksForeignOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   func(origin, n uint64) (uint64, uint64)
	}{
		{"forger's own identity", func(uint64, uint64) (uint64, uint64) { return 9, 1 }},
		{"origin's next identity", func(origin, n uint64) (uint64, uint64) { return origin, n + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(33)
			o := defaultOpts()
			o.params.DoubleCheckP = 0
			c := newTestCluster(t, s, o)
			var seen []byte // the last b.submit master-1 sent the sequencer
			c.net.Register("master-0", func(from, method string, body []byte) ([]byte, error) {
				if method == broadcast.MethodSubmit && from == "master-1" {
					seen = bytes.Clone(body)
				}
				return c.masters[0].Handle(from, method, body)
			})
			cl := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 1 })
			honest := store.Put{Key: "catalog/001", Value: []byte("honest")}
			forged := store.EncodeOp(store.Put{Key: "catalog/001", Value: []byte("forged")})
			var version uint64
			var werr error
			answered := false
			s.Go(func() {
				s.Sleep(c.warmup())
				if err := cl.Setup(); err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				if _, err := cl.Write(store.Put{Key: "catalog/002", Value: []byte("first")}); err != nil {
					t.Errorf("first write: %v", err)
					return
				}
				s.Spawn(func() {
					version, werr = cl.Write(honest)
					answered = true
				})
				s.Sleep(10 * time.Millisecond) // the honest batch now waits for its pacing slot
				r := wire.NewReader(seen)
				origin, n := tc.id(r.Uvarint(), r.Uvarint())
				body := wire.EncodeFrame(func(w *wire.Writer) {
					w.Uvarint(origin)
					w.Uvarint(n)
					w.Bytes_(encodeBatchMessage([]queuedWave{{ops: [][]byte{forged}}}))
				})
				if _, err := c.net.Dialer("forger").Call("master-0", broadcast.MethodSubmit, body); err != nil {
					t.Errorf("forged submit: %v", err)
				}
			})
			s.RunUntil(sim.Epoch.Add(time.Minute))

			if !answered {
				t.Fatal("the honest write was never answered")
			}
			m := c.masters[1]
			m.mu.Lock()
			defer m.mu.Unlock()
			at := func(v uint64) []byte {
				b := m.log[m.logIndexLocked(v)]
				return b.Ops[v-b.First]
			}
			took := false // the forged op committed: the forgery reached the log
			for v := m.baseVersion + 1; v <= m.store.Version(); v++ {
				took = took || bytes.Equal(at(v), forged)
			}
			if !took {
				t.Fatal("the forged submit never took a slot; the test proves nothing")
			}
			if werr != nil {
				t.Logf("honest write answered: %v", werr)
				return // "not committed" tells nobody a falsehood
			}
			if op := at(version); !bytes.Equal(op, store.EncodeOp(honest)) {
				t.Fatalf("write acknowledged at version %d, which holds %q", version, op)
			}
		})
	}
}
