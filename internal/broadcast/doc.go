// Package broadcast implements the reliable, totally-ordered broadcast
// protocol that the master set runs (§3 of the paper, which defers the
// protocol itself to Kaashoek et al.'s sequencer design [8]).
//
// The design follows the cited protocol's architecture: one member — the
// sequencer — assigns a global sequence number to every message and
// replicates it to all members; members deliver messages strictly in
// sequence order and fetch any gaps. The master set is trusted, so the
// protocol tolerates only benign (crash) failures: when the sequencer
// stops responding, the next member in the fixed priority order syncs the
// log from every reachable member and takes over.
//
// Guarantees (under crash failures and a fair-lossless network):
//
//	Agreement   — every running member delivers the same messages.
//	Total order — deliveries happen in one global sequence.
//	Validity    — a Broadcast that returns nil was assigned a slot and is
//	              held in the log of every member not suspected as crashed.
//	Exactly once — a Broadcast takes one slot however often its b.submit
//	              is retried, delayed or redirected to a new sequencer.
//
// The commit round. The sequencer assigns the slot and sends b.commit to
// every non-suspected member at the same time (one task per peer, two
// tries each, then the peer is suspected). A member answers b.commit as
// soon as the entry is in its log — the answer is a receipt, "held", not
// "applied" — and its handler makes no call of its own: delivery and gap
// repair belong to the member's one drainer task, which hands entries to
// Deliver strictly in slot order and never concurrently with itself.
// Broadcast (and the b.submit reply) returns when every receipt is in, so
// it contains nobody's apply.
//
// The sequencer's own delivery of a slot starts only after every
// non-suspected member has acknowledged that slot. This is the safety
// condition of the round and must not be relaxed: a sequencer that
// applied (and made durable) a slot no other member holds would, after a
// crash and a takeover, come back with a slot its successor has since
// given to a different message, and nothing downstream can detect that.
// The other direction is safe: a member's log high-water mark (b.status)
// counts received-but-undelivered entries, so a successor always learns
// an acknowledged slot. The members therefore apply a slot concurrently,
// and a caller waits for one receipt round plus one apply. Rounds
// overlap: slot n+1 may be collecting receipts, or already have them,
// while slot n is still open; delivery waits for n.
//
// Every b.commit carries the sequencer's closed mark — the highest slot
// such that it and everything below has finished its round — and so does
// b.hello (the sequencer's delivered mark). A member missing a slot at or
// below the mark will not be sent it again and fetches it from the
// sequencer; a missing slot above the mark has merely been overtaken on
// the wire and is waited for.
//
// Exactly-once submit. Every Broadcast call has an identity, (origin's
// index in Peers, origin's call count), which travels inside the
// sequenced entry: in b.submit, b.commit, b.fetch and every member's
// log. Each member indexes the entries it holds by identity, so whoever
// is sequencer — including a successor whose takeover fetched the entry
// — answers a submit it has seen before by running the receipt round
// again for the slot that submit already has, instead of assigning a new
// one. The index covers exactly the log and the archive and is truncated
// with them, which needs every live member to have reported the slot
// delivered (a heartbeat round trip) and the host to have truncated it;
// an origin gives up on a sequencer after three call timeouts. A member
// that resumed from durable state (ResumeAt) knows the identities of the
// slots it has fetched since, not of those it resumed above. Call counts
// start at the member's clock reading, so a restarted member never
// reuses an identity of its previous life.
//
// The origin's local value. Broadcast(msg, local) keeps local on the
// origin member, under the call's submit number; it never travels.
// Deliver receives it with the slot that carries that identity — nil on
// every other member, and on the origin after a restart. For a non-nil
// local exactly one of two things happens: Deliver receives it, or
// Broadcast returns an error. A Broadcast whose message this member has
// already delivered returns nil, whatever its last try met, so a caller
// that answers waiters on an error answers them once. A core.Master passes
// the write waves a batch answers; control messages pass nil.
//
// Delivered messages are archived (still keyed by sequence number) so
// lagging members can fetch them; the hosting node bounds the archive by
// calling TruncateBelow once history has become stable — in this system,
// a core.Master below its own slaves' stable point, a core.Auditor below
// each slot it delivers. A member that was
// partitioned across a truncation cannot fetch the gap back and needs a
// full state transfer.
//
// Untrusted senders. A master serves b.* on the address its clients
// reach, so a handler never sizes its work by a count or range off the
// wire: b.fetch walks the entries the log holds, not the slots it names.
// Nothing authenticates the sequencer, though: a forged b.commit that
// reaches a member before the sequencer's takes the slot there, and that
// member delivers it (an open hole; the repository's ROADMAP, item 24).
// Nor does anything authenticate a submit identity, and an origin's rise
// by one: a forged b.submit that predicts an origin's next identity takes
// that Broadcast's slot, and the sequencer answers the real submit as a
// replay of it. The origin's local then comes back with the forged
// message, so a caller compares msg with what it sent (a core.Master
// answers the batch's waves 0). An identity that is delivered before its
// origin has issued it is never issued: the origin's count moves past it.
//
// Operational note: the hosting master wires Config.CallTimeout to
// Params.KeepAliveEvery, so KeepAliveEvery doubles as the broadcast RPC
// timeout — keep one-way link latency well under half of it or every
// commit replication times out and peers get falsely suspected.
package broadcast
