package broadcast

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// FuzzMemberHandle sends an arbitrary body to one of the five b.* methods
// on the sequencer or a follower of a three-member SimNet cluster that has
// delivered one message. Every master serves these methods on its
// client-facing address, so the invariants are that no body panics the
// member, now or while the cluster runs on, and that a body the member
// refuses leaves Delivered() and ArchiveLen() as they were.
func FuzzMemberHandle(f *testing.F) {
	methods := []string{MethodSubmit, MethodCommit, MethodFetch, MethodStatus, MethodHello}
	// frame is the given uvarints, then an entry when withEntry is set.
	frame := func(withEntry bool, fields ...uint64) []byte {
		w := wire.NewWriter(32)
		for _, v := range fields {
			w.Uvarint(v)
		}
		if withEntry {
			entry{id: submitID{origin: 2, n: 7}, msg: []byte("x")}.encode(w)
		}
		return w.Bytes()
	}
	f.Add(uint8(0), frame(true))                     // b.submit to the sequencer
	f.Add(uint8(5), frame(true))                     // b.submit to a follower
	f.Add(uint8(6), frame(true, 0, 2, 2))            // b.commit of the next slot
	f.Add(uint8(6), frame(true, 0, 1, 1))            // b.commit over a delivered slot
	f.Add(uint8(6), frame(true, 7, 2, 2))            // b.commit from a view outside the peers
	f.Add(uint8(6), frame(true, 0, 1<<62, 0))        // b.commit parked far ahead
	f.Add(uint8(2), frame(false, 1, math.MaxUint64)) // b.fetch of every slot
	f.Add(uint8(3), frame(false))                    // b.status
	f.Add(uint8(9), frame(false, 0, 1<<40, 1))       // b.hello announcing slots nobody has
	f.Add(uint8(9), frame(false, 2, 1, 1))           // b.hello from another view
	f.Add(uint8(6), []byte{0x00, 0x02, 0x02, 0x81})  // b.commit cut short

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		s := sim.New(1)
		c := newCluster(t, s, 3)
		s.Go(func() { c.members[0].Broadcast([]byte("a"), nil) })
		c.run(time.Second)
		m := c.members[int(which/5)%2]
		s.Go(func() {
			delivered, held := m.Delivered(), m.ArchiveLen()
			if _, err := m.Handle("m2", methods[which%5], body); err != nil &&
				(m.Delivered() != delivered || m.ArchiveLen() != held) {
				t.Errorf("refused %s body changed the member: delivered %d -> %d, held %d -> %d",
					methods[which%5], delivered, m.Delivered(), held, m.ArchiveLen())
			}
		})
		c.run(3 * time.Second)
	})
}
