// Package core implements the paper's replication protocol — the roles,
// signed evidence, and message flows of "Enforcing Fair Sharing of
// Peer-to-Peer Resources"-era secure content replication (Popescu,
// Crispo, Tanenbaum, HotOS 2003): trusted master servers order and
// execute writes, marginally trusted slave servers execute arbitrary
// read queries under signed "pledges", clients probabilistically
// double-check answers against masters, and a background auditor
// re-executes every pledged read so any slave returning a wrong answer
// is eventually caught red-handed and excluded from the system.
//
// Map from paper sections to the implementation:
//
//	§2   (system model)      — ACL, DirectoryService, pki certificates;
//	                           Client.Setup reads the shard table and
//	                           every certificate from the untrusted
//	                           directory in one call, verifies each
//	                           under the content key, and obtains slave
//	                           assignments in every group (an unsharded
//	                           deployment is one full-range group).
//	                           Client routes each write and point read
//	                           to the group owning the key.
//	§3.1 (writes)            — Master.handleWriteMulti orders writes
//	                           through the master-set broadcast;
//	                           VersionStamp is the signed, time-stamped
//	                           content version pushed to slaves via
//	                           updates and keep-alives; max_latency
//	                           paces commits and bounds staleness.
//	§3.2 (reads)             — Slave.handleRead answers with a Pledge
//	                           (query copy, result hash, latest stamp);
//	                           Client.checkReply rebuilds it from the
//	                           query asked and the payload received and
//	                           checks the stamp and its freshness;
//	                           Client.verifyPledges checks the slave's
//	                           signature unless the auditor vouches.
//	§3.3 (double-checking)   — Client.doubleCheck, the master's greedy-
//	                           client throttling (greedyTracker).
//	§3.4 (auditing)          — Auditor re-executes pledged reads on
//	                           the content at each read's version and
//	                           checks a signature only on a pledge that
//	                           disagrees with it;
//	                           batched commits amortize the master's
//	                           dominant signing cost (SignBatchStamp
//	                           over a merkle root).
//	§3.5 (recovery)          — handleReport/applyExclude convict and
//	                           exclude liars (a bcExclude acts only
//	                           under a certified master's signature);
//	                           ReadmitSlave brings a
//	                           recovered slave back; Bootstrap performs
//	                           the verified full state transfer
//	                           (statetransfer.go, shared with slave
//	                           sync and master catch-up).
//	§4   (refinements)       — KSlaves multi-slave reads, ReadSensitive
//	                           trusted-host execution, ReadAtLevel.
//
// Wire formats (wire package encoding; "bytes" and "string" are
// length-prefixed). Each verb has one frame: a single write is a wave of
// one, and a commit of one op is a batch of one — a one-leaf merkle tree
// under the same batch stamp. What the receiver can compute is not sent:
// s.updatebatch carries no membership proof for ops the slave holds whole,
// and the s.read reply neither the client's own query, nor the hash of the
// payload beside it, nor the key of the slave the client asked.
//
//	s.read       bytes query. Reply: bytes payload ‖ stamp ‖ bytes sig ‖
//	             bool xlie (ReadReply) — the slave's pledge signature
//	             beside the master's stamp, and nothing the client
//	             already has: it rebuilds the pledge from its own query,
//	             the hash of the payload and the key of the slave it
//	             asked (Client.checkReply), so a reply that is not the
//	             answer to that query, from that slave, fails the one
//	             signature check. xlie is instrumentation only.
//	evidence     bytes query ‖ bytes result hash ‖ uvarint version ‖
//	             bytes slavePub ‖ bytes sig (Pledge.Encode) — exactly
//	             the statement the slave signed (after its "pledge.v2"
//	             tag) and the signature, no byte of the master's stamp:
//	             nothing that holds a pledge as evidence reads more than
//	             its version. The m.report pledge field, the bcExclude
//	             body and pki.Exclusion.Evidence.
//	a.pledge     one or more evidence frames back to back, one per
//	             slave of an accepted read: each is length-prefixed
//	             field by field, so they need no separator, and a
//	             one-slave read sends exactly one. The auditor decodes
//	             every frame before it admits any, in frame order, so a
//	             body is admitted or refused whole. Reply: the one byte
//	             0x01 (pledgeVouch) when every frame's result hash is the
//	             auditor's answer at the frame's version — a batch
//	             boundary whose window is open — else empty.
//	bcExclude    kind byte ‖ bytes evidence ‖ bytes originPub ‖ bytes
//	             sig — sig by the master that convicted the slave, over
//	             "exclude.v1" ‖ evidence; every master acts on it only if
//	             originPub is a certified master's key and sig verifies
//	             (b.submit takes frames from anyone).
//
//	m.writemulti bytes clientPub ‖ uvarint n ‖ n × bytes op ‖ bytes sig —
//	             ONE sig over "wave.v1" ‖ clientPub ‖ n ‖ every op
//	             (WriteWave); the only layout accepted, admitted or
//	             refused whole, and committed whole in one batch or not
//	             at all. Reply: uvarint first — the version of the
//	             wave's first op, the rest following contiguously; 0
//	             means not committed.
//	bcBatch      kind byte ‖ uvarint n ‖ n × bytes op — every queued
//	             wave's ops in order, with no client key or signature
//	             (nothing reads them after admission), no wave boundary,
//	             no per-op id and no origin: the origin's waiting waves
//	             come back from its own broadcast member with the slot
//	             (Broadcast's local), and are acknowledged only if the
//	             slot holds the very frame it sent, byte for byte, else
//	             answered 0 (MasterStats.BatchesDisplaced).
//	s.updatebatch uvarint first ‖ uvarint n ‖ n × bytes op ‖ stamp ‖
//	             string masterAddr (BatchUpdate) — no membership
//	             proofs: the slave rebuilds the merkle root over all n
//	             leaves and compares it with the stamp's. Reply:
//	             uvarint applied version.
//	m.sync       uvarint from (0: everything). Reply: mode byte ‖
//	             [bytes snapshot ‖ stamp] ‖ uvarint n ‖ n × (uvarint
//	             first ‖ uvarint k ‖ k × bytes op ‖ stamp) ‖ closing
//	             stamp ‖ uvarint anchor — mode 1 (snapshot first) when
//	             from is at or below the retained log's base, else mode
//	             0. A mode-1 reply carries the master's current state,
//	             signed when asked, and no batches; the decoder still
//	             checks any that follow. Each entry is a whole logged
//	             batch, the s.updatebatch shape without the master
//	             address, and is checked like a push (VerifyMembers): one
//	             stamp per batch, no membership proofs; a request from
//	             inside a batch gets all of it. Slave sync,
//	             Slave.Bootstrap, a restarted master's catch-up and its
//	             snapshot file all read it through decodeStateTransfer,
//	             which verifies every part before returning any.
//
// Committed history has that one shape everywhere: the master's op log
// is a list of these batches, its WAL record is one of them after its
// broadcast slot, and truncation cuts the log only between batches.
//
// Beyond the paper, the package adds two scaling mechanisms the 2003
// design defers: batched, pipelined commits (one signature per batch,
// see types.go) and stability-driven truncation (checkpoint.go) — slaves
// acknowledge applied versions on every keep-alive/update reply, and each
// master, after delivering any message but a write batch and at most once
// per CheckpointEvery, truncates its op log and broadcast archive below
// its own slaves' stable version.
// Masters are trusted (§3), so that is a local decision: no record is
// signed or broadcast for it, and the auditor drops its archive below
// each slot it delivers. Slaves that fell behind a truncation recover
// through snapshot-first sync instead of unbounded history replay. A
// master keeps no snapshot for that: it encodes and signs its current
// state when such a sync arrives.
//
// Signatures on the read path are paid once per distinct piece of
// evidence (sigcache.go has the safety argument). A pledge's signature
// covers pledge.v2 ‖ query ‖ result hash ‖ Stamp.Version ‖ slave key, the
// slave's claim about one version; the timestamp need not be under it,
// because that the version is current is the master's claim, carried beside
// it by the master-signed stamp. So a repeated query at one version gets
// the same slave signature under every keep-alive, and slave, clients and
// auditor remember signatures made or verified in one bounded memo type
// (sigCache) that is never cleared, each sized for its use: 256 entries
// for stamps, 32 768 at a pledge verifier, 8192 at the slave's signer. The
// client builds the signed body from the query it asked, the hash of the
// payload it got and its assigned slave's key, so a reply for another
// query, with another payload or from another slave misses the memo, fails
// the signature and takes no slot. Run on every reply, hit or miss, in
// this order: the hash of the payload, stamp for the signed version from a
// certified master under its signature, freshness.
//
// The auditor answers at the read's own version (auditor.go, client.go).
// A client checks a slave's pledge signature so that a lie it accepts can
// be pinned on the signer (§3.2, §3.4). The auditor keeps the content at
// every batch boundary as a view — an O(1) copy-on-write store.Clone with
// its own answer cache — until MaxLatency + AuditorSlack after the next
// batch was delivered, when no client can still accept a read there.
// deliver only holds batches; they are applied up to the version a frame
// needs, by the a.pledge handler or by the once-per-keep-alive apply loop.
// Auditor.handlePledge settles every frame of a body in one critical
// section, as exactly one of: sampled out; waiting, when its version V is
// above masterV, the last version delivered (pending holds only these);
// late, when no view is at exactly V; audited and right, when the answer
// at V is the frame's result hash; convicted otherwise. The reply is the
// one byte 0x01 exactly when every frame was audited and right. Why "no
// view at V" means "no honest client reads at V": every replica applies a
// delivered batch whole (deliver mirrors the masters' skip of undecodable
// ops, so versions are numbered alike) and every stamp a master signs
// names the version after a whole batch, so an honest read is always at a
// batch boundary. The client accepts a read only when the stamp checks
// pass and either the slave's signature verifies or the auditor vouched.
// It verifies first before a drawn double-check and before a K-slave
// disagreement, so a report always carries a verified pledge; otherwise
// it forwards first and verifies only when the ack is not exactly the
// vouch. A vouched answer is correct — the trusted auditor found the same
// hash at that signed, fresh version — so there is no lie to pin on
// anyone; a lie's hash is never the auditor's answer, so a lie is never
// vouched. The vouch is not authenticated: whoever can forge the
// auditor's one-byte reply on the wire can make a client skip its verify,
// the same hole as the forged §3.4 ack through which a signed lie skips
// the audit; ROADMAP item 13(a) tags the reply. A cache miss runs on the
// handler, so a forged pledge buys one scan per distinct query per
// version there; bounding it is ROADMAP item 7's job.
//
// On the real-clock benchmark (seed 1, 8 s runs, before the vouch) the
// memos missed, per accepted read, 0.41 client verifies and 0.56 slave
// signs on read-scan, 0.10 and 0.11 on read-point, 0.96 and 0.96 on mixed,
// whose uniform keys do not repeat between commits. With the vouch at the
// auditor's own version, 78 % of read-scan's reads and 94 % of
// read-point's were vouched for, and their client verifies fell to about
// 0.22 and 0.06; mixed reads at versions a lagging auditor had not
// applied yet, so almost none was. Answering at the read's own version
// takes mixed's client verifies to about DoubleCheckP (0.05), the
// double-checks that verify first; TestClusterVouchAheadVerifyRatio pins
// that shape in the simulator. TestPledgeMemoHitRatio pins the memos alone on one-kind
// catalogs (Zipf Gets, uniform ten-key Ranges), not these mixes.
//
// Scan once per version (resultmemo.go). Slaves exist for arbitrary dynamic
// queries (§3.2), and a dynamic query is a walk over the content.
// Slave.handleRead and Master.handleCheck each keep a resultMemo from
// encoded query to honest payload: the first Count or Sum after a commit
// pays the walk, every repeat until the next commit a map probe. The memo
// belongs to one replica (the *store.Store, by identity) at one version and
// starts over when asked about any other pair, so a pushed batch, a sync,
// an installed snapshot and a Bootstrap onto other content at the same
// version number all miss. A hit is safe because execute runs inside the
// critical section that checks the stamp against the replica's version
// (slave) or reads the version reported (master): the payload is the one
// Execute would return at that instant — the same section keeps a batch
// from landing between a read's stamp and its scan. A hit decides nothing
// about what is served: the memo holds honest payloads only and is
// consulted before Behavior.Corrupt, which still runs, draws its randomness
// and counts on every read; a lie is made from the honest payload, never
// stored, and hashed and signed as its own evidence. In virtual time a hit
// charges Costs.CacheLookup where a miss charges QueryCost(Scanned); the
// payload is hashed, and HashCost charged, either way. Admission is by
// what the scan cost against what it returned, not by query kind, so
// point-read workloads pay one failed probe of a nil map; the bounds are
// constants and there is no knob. The auditor's per-view answer cache
// (§3.4's mechanism, the auditor.cache_hit_ratio metric) is deliberately
// another type: it keeps a
// 20-byte hash of every audited query, cheap ones included, because a hash
// is all an audit compares; this memo retains whole payloads to serve,
// worth the memory only where the scan dwarfs the answer.
//
// The auditor audits by hash and verifies on evidence (auditor.go).
// settleLocked compares a pledge's result hash with the answer at its
// version — from the view's cache or by re-execution — and is done when
// they agree: an honest pledge is never presented to anyone, so the
// auditor, the scarce trusted host of §3.4, does not check who signed it.
// Only a pledge that disagrees (wrong hash, undecodable or unexecutable
// query) has its slave signature verified, on the handler: a forged
// pledge is counted (PledgesBadSig) and dropped, a signed one is a lie
// (Mismatches). The check and the mark of the slave as detected are one
// critical section, so the first lie from each slave is reported once;
// only the m.report RPC runs on a task of its own, so no ack waits on it.
// The invariant is: no report without a verified signature, at
// the auditor and again at the master. Auditor.report accepts only a
// provenPledge, which only settleLocked constructs, and Master.handleReport
// verifies the pledge itself before it excludes anyone, whoever vouches
// for it; it then signs the bcExclude it broadcasts, and applyExclude
// acts on no other. Known and accepted: a forged pledge naming an expensive scan
// costs the auditor the scan before the verify rejects it, where a
// verify-first auditor paid the verify alone. Any client can buy the same
// scan with a real read, and a.pledge has no admission bound either way;
// bounding it is admission control's job (ROADMAP, "Bounded under
// overload"), not the signature check's. Every received pledge ends in
// exactly one of PledgesAudited (lies included), PledgesSampled,
// PledgesLate and PledgesBadSig.
//
// Masters can additionally be made durable (durable.go): with
// MasterConfig.DataDir set, every committed batch — its ops and signed
// stamp — is appended to a write-ahead log and fsynced before the client
// ack, and every truncation atomically persists a signed snapshot file
// and truncates the WAL below it. The file is an m.sync reply (a
// snapshot and no batches), read back through decodeStateTransfer under
// the master's own key. A restarting master loads the
// snapshot, replays the WAL suffix (verifying every stamp; a torn final
// record — a crash mid-append — is dropped, any other corruption refuses
// to start), resumes its broadcast slot, and closes the remaining gap
// from a peer: by ordinary record fetch when the archive still holds its
// slots, or one snapshot-first recovery sync when truncation outran the
// outage. Without DataDir nothing touches the filesystem.
package core
