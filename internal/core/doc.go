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
//	                           Client.Setup obtains the certified master
//	                           set and slave assignments.
//	§3.1 (writes)            — Master.handleWriteMulti orders writes
//	                           through the master-set broadcast;
//	                           VersionStamp is the signed, time-stamped
//	                           content version pushed to slaves via
//	                           updates and keep-alives; max_latency
//	                           paces commits and bounds staleness.
//	§3.2 (reads)             — Slave.handleRead answers with a Pledge
//	                           (query copy, result hash, latest stamp);
//	                           Client.verifyReply enforces freshness.
//	§3.3 (double-checking)   — Client.doubleCheck, the master's greedy-
//	                           client throttling (greedyTracker).
//	§3.4 (auditing)          — Auditor re-executes pledged reads on a
//	                           lagging replica and checks a signature
//	                           only on a pledge that disagrees with it;
//	                           batched commits amortize the master's
//	                           dominant signing cost (SignBatchStamp
//	                           over a merkle root).
//	§3.5 (recovery)          — handleReport/applyExclude convict and
//	                           exclude liars; ReadmitSlave brings a
//	                           recovered slave back; Bootstrap performs
//	                           the verified full state transfer
//	                           (statetransfer.go, shared with slave
//	                           sync and master catch-up).
//	§4   (refinements)       — KSlaves multi-slave reads, ReadSensitive
//	                           trusted-host execution, ReadAtLevel.
//
// Write-path and state-transfer wire formats (wire package encoding;
// "bytes" and "string" are length-prefixed). Each verb has one frame: a
// single write is a wave of one, and a commit of one op is a batch of one
// — a one-leaf merkle tree under the same batch stamp.
//
//	m.writemulti bytes clientPub ‖ uvarint n ‖ n × bytes op ‖ bytes sig —
//	             ONE sig over "wave.v1" ‖ clientPub ‖ n ‖ every op
//	             (WriteWave); the only layout accepted, admitted or
//	             refused whole. Reply: uvarint n ‖ n × uvarint version.
//	bcBatch      kind byte ‖ string origin ‖ uvarint batchNo ‖ uvarint n
//	             ‖ n × bytes op — no client key or signature (nothing
//	             reads them after admission) and no per-op id: the
//	             origin finds its waiters by batchNo and resolves them
//	             by position, every other member ignores both fields.
//	s.updatebatch uvarint first ‖ uvarint n ‖ n × bytes op ‖ stamp ‖
//	             string masterAddr (BatchUpdate) — no membership
//	             proofs: the slave rebuilds the merkle root over all n
//	             leaves and compares it with the stamp's. Reply:
//	             uvarint applied version.
//	m.sync       uvarint from (0: everything). Reply: mode byte ‖
//	             [bytes snapshot ‖ stamp] ‖ uvarint n ‖ n × OpRecord ‖
//	             closing stamp ‖ uvarint anchor — mode 1 (snapshot
//	             first) when from is at or below the retained log's
//	             base, else mode 0. Slave sync, Slave.Bootstrap and a
//	             restarted master's catch-up all read it through
//	             decodeStateTransfer, which verifies every part
//	             before returning any.
//
// Beyond the paper, the package adds two scaling mechanisms the 2003
// design defers: batched, pipelined commits (one signature per batch,
// see types.go) and stability-driven checkpointing (checkpoint.go) —
// slaves acknowledge applied versions on every keep-alive/update reply,
// masters truncate the op log and broadcast archive below the stable
// version, and slaves that fell behind a checkpoint recover through
// snapshot-first sync instead of unbounded history replay.
//
// Signatures on the read path are paid once per distinct piece of
// evidence (sigcache.go has the safety argument). A pledge's signature
// covers pledge.v2 ‖ query ‖ result hash ‖ Stamp.Version ‖ slave key, the
// slave's claim about one version; the timestamp need not be under it,
// because that the version is current is the master's claim, carried beside
// it by the master-signed stamp. So a repeated query at one version gets
// the same slave signature under every keep-alive, and slave, clients and
// auditor remember signatures made or verified in one bounded memo type
// (sigCache) that is never cleared. Run on every message, hit or miss:
// payload hash, assigned slave, query asked, stamp for the signed version
// from a certified master under its signature, freshness. On the
// benchmark's Zipf(1.1) reads over 20 000 keys a slave signs and a client
// verifies 14 % of reads (41 % when each keep-alive re-keyed the pledges);
// under uniform keys with a commit every 300 ms, nearly all.
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
// constants and there is no knob. Auditor.cache (§3.4's mechanism, the
// auditor.cache_hit_ratio metric) is deliberately another type: it keeps a
// 20-byte hash of every audited query, cheap ones included, because a hash
// is all an audit compares; this memo retains whole payloads to serve,
// worth the memory only where the scan dwarfs the answer.
//
// The auditor audits by hash and verifies on evidence (auditor.go).
// Auditor.auditOne compares a pledge's result hash with the replica's —
// from the per-version query cache or by re-execution — and is done when
// they agree: an honest pledge is never presented to anyone, so the
// auditor, the scarce trusted host of §3.4, does not check who signed it.
// A pledge that disagrees (wrong hash, undecodable or unexecutable query)
// goes to Auditor.convict, the one place the auditor verifies a slave
// signature: a forged pledge is counted (PledgesBadSig) and dropped, a
// signed one is a lie (Mismatches) and the first from each slave is
// reported. The invariant is: no report without a verified signature, at
// the auditor and again at the master. Auditor.report accepts only a
// provenPledge, which only convict constructs, and Master.handleReport
// verifies the pledge itself before it excludes anyone, whoever vouches
// for it. Known and accepted: a forged pledge naming an expensive scan
// costs the auditor the scan before the verify rejects it, where a
// verify-first auditor paid the verify alone. Any client can buy the same
// scan with a real read, and a.pledge has no admission bound either way;
// bounding it is admission control's job (ROADMAP, "Bounded under
// overload"), not the signature check's. Every received pledge ends in
// exactly one of PledgesAudited (lies included), PledgesSampled,
// PledgesLate and PledgesBadSig.
//
// Masters can additionally be made durable (durable.go): with
// MasterConfig.DataDir set, every committed batch's op records and
// signed stamp are appended to a write-ahead log and fsynced before the
// client ack (or group-committed on a WALSyncEvery interval), and every
// applied checkpoint atomically persists a signed snapshot file and
// truncates the WAL below it. A restarting master loads the snapshot,
// replays the WAL suffix (verifying every stamp; a torn final record —
// a crash mid-append — is dropped, any other corruption refuses to
// start), resumes its broadcast slot, and closes the remaining gap from
// a peer: by ordinary record fetch when the archive still holds its
// slots, or one snapshot-first recovery sync when checkpoint truncation
// outran the outage. Without DataDir nothing touches the filesystem.
package core
