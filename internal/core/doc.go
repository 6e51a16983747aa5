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
//	                           to the group owning the key. That one
//	                           read (ShardMap) is also the only one a
//	                           master makes; the other two
//	                           DirectoryService calls record an
//	                           exclusion and retract a record.
//	§3.1 (writes)            — Master.handleWriteMulti orders writes
//	                           through the master-set broadcast;
//	                           VersionStamp is the signed, time-stamped
//	                           content version sent to slaves on
//	                           keep-alives, each batch announced by its
//	                           own stamp and fetched through m.sync;
//	                           max_latency paces commits and bounds
//	                           staleness.
//	§3.2 (reads)             — Slave.handleRead answers with a Pledge
//	                           (query copy, result hash, latest stamp),
//	                           signed when the client asks (the s.read
//	                           sign flag, or s.sign afterwards);
//	                           Client.checkReply rebuilds it from the
//	                           query asked, the payload received and the
//	                           stamp held from that slave when the reply
//	                           leaves it out, and checks the stamp and
//	                           its freshness
//	                           against the client's own
//	                           Params.MaxLatency (a client on a slow
//	                           link sets a looser one);
//	                           Client.verifyPledge fetches and checks
//	                           the slave's signature unless the
//	                           auditor vouches, and before any report.
//	§3.3 (double-checking)   — Client.doubleCheck at the client's own
//	                           Params.DoubleCheckP (a greedy client's
//	                           is 1), the master's greedy-client
//	                           throttling (greedyTracker; a flagged
//	                           client loses greedyDropFrac of its
//	                           checks).
//	§3.4 (auditing)          — Auditor re-executes pledged reads on
//	                           the content at each read's version and
//	                           checks a signature only on a pledge that
//	                           disagrees with it;
//	                           batched commits amortize the master's
//	                           dominant signing cost (SignBatchStamp
//	                           over the hash of the batch's bytes).
//	§3.5 (recovery)          — handleReport/applyExclude convict and
//	                           exclude liars (a bcExclude acts only
//	                           under a certified master's signature;
//	                           a liar that will not sign is refused,
//	                           see "Signing on demand");
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
// one, and a commit of one op is a batch of one under the same batch
// stamp. What the receiver can compute is not sent: an m.sync entry
// carries nothing per op beyond the op, which the slave holds whole, and the
// s.read reply neither the client's own query, nor the hash of the
// payload beside it, nor the key of the slave the client asked, nor a
// stamp the client already holds; and no key of a sorted run beyond what
// it does not share with the key before it, which the receiver has just
// read (wire's KeyAfter: uvarint shared ‖ string suffix, "key" below).
// What the receiver does not read is sent only when it asks: a.pledge
// carries a read's statement, and the slave's key and signature follow
// only when the auditor answers pledgeEvidence; an s.read reply carries
// the slave's signature only when the request asks for it.
//
//	s.read       bytes query ‖ bytes ref ‖ bool sign — ref is empty or
//	             the first 8 bytes (stampRefLen) of the master signature
//	             on the stamp the client holds from that slave; any other
//	             length is refused. Reply: bytes payload ‖ bool full ‖
//	             [stamp] ‖ bytes sig ‖ bool xlie (ReadReply) — the stamp
//	             left out exactly when ref names the one the pledge is
//	             made against, sig empty unless sign is set or the
//	             stamp goes whole, and nothing
//	             else the client already has: it rebuilds the pledge from
//	             its own query, the hash of the payload, the key of the
//	             slave it asked and the stamp (Client.checkReply), so a
//	             reply that is not the answer to that query, from that
//	             slave, at that stamp's version, fails the one signature
//	             check; one without a stamp to a request that named none
//	             is refused. 35 B both ways on read-point (221 B with the
//	             stamp whole, which comes signed; 98 B while every reply
//	             was signed). xlie is instrumentation only. The payload
//	             is Execute's, by
//	             query kind (package query): Get bool found ‖ [bytes
//	             value]; Range uvarint n ‖ n × (key ‖ bytes value);
//	             Prefix uvarint n ‖ n × key; Count uvarint; Sum varint;
//	             Grep uvarint n ‖ n × (key path ‖ uvarint line ‖ string
//	             text), a path repeated for its next matching line
//	             costing 2 B. A ten-row Range over catalog keys is ≈ 83 B
//	             (181 B with every key whole).
//	s.sign       statement — one statement frame. Reply: bytes sig, the
//	             slave's signature on it (the signed body adds its
//	             "pledge.v2" tag and the slave's key), given only for a
//	             statement the slave served and its pledge table still
//	             holds (Slave.handleSign): any other is refused, so the
//	             slave signs nothing it did not state. A client asks when
//	             a signature is needed and the reply came without one:
//	             the auditor asked for evidence, the forward was not
//	             vouched, or a report is about to be filed.
//	statement    bytes query ‖ bytes result hash ‖ uvarint version
//	             (Pledge.appendStatement) — what the slave states about
//	             a read, without its key or signature.
//	evidence     statement ‖ bytes slavePub ‖ bytes sig (Pledge.Encode) —
//	             exactly what the slave signed (after its "pledge.v2"
//	             tag) and the signature, no byte of the master's stamp:
//	             nothing that holds a pledge as evidence reads more than
//	             its version. The m.report pledge field, the bcExclude
//	             body and pki.Exclusion.Evidence.
//	a.pledge     byte form ‖ one or more frames back to back, one per
//	             slave of an accepted read: each is length-prefixed
//	             field by field, so they need no separator. Form 0
//	             (pledgeFormStatement) carries statement frames, and is
//	             what a client sends first: 42 B both ways on read-point,
//	             the vouch included (139 B with the evidence). Form 1
//	             (pledgeFormEvidence) carries the same read's evidence
//	             frames, sent once, only when the auditor asks, each
//	             followed by the master stamp for its version; under
//	             full audit a read whose replies came signed, one at a
//	             version newer than any its auditor vouched for the
//	             client, sends this form first. The
//	             auditor decodes every frame before it admits any, in
//	             frame order, so a body is admitted or refused whole.
//	             Reply: the one byte 0x01 (pledgeVouch) when every
//	             frame's result hash is the auditor's answer at the
//	             frame's version — a batch boundary whose window is open;
//	             to a statement body, the one byte 0x02 (pledgeEvidence)
//	             when a frame disagrees with that answer or is ahead of
//	             delivery, the frames a key and a signature are read for;
//	             else empty.
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
//	             answered 0 (MasterStats.BatchesDisplaced). A body
//	             without ops or with an op that does not decode is
//	             applied by no master and not by the auditor, and
//	             its origin's waves are answered 0 (decodeBatchMessage).
//	s.keepalive  stamp ‖ string masterAddr — the periodic keep-alive,
//	             and each batch's announce: the batch's own stamp, sent
//	             once the batch is durable and its writers are answered,
//	             so an announce costs no signature. A stamp at or below
//	             the replica's version is adopted; one ahead of it is kept
//	             aside and starts the single-flight fetch (m.sync from the
//	             replica's next version), and the slave serves on at its
//	             own version under the stamp it holds until the fetch
//	             lands with the batch's stamp (or the newer one kept
//	             aside). A periodic keep-alive's stamp is of the
//	             keep-alive kind, its digest the hash of masterAddr, and
//	             the slave moves its fetch source to masterAddr only under
//	             such a stamp newer than every stamp it holds: a rewritten
//	             or replayed address moves nothing, and a survivor moves a
//	             slave it adopted once it is past the slave's newest
//	             version, or at it and signed later. Reply: uvarint
//	             applied version, at once.
//	m.sync       uvarint from (0: everything). Reply: mode byte ‖
//	             [bytes snapshot ‖ stamp] ‖ uvarint n ‖ n × (uvarint
//	             first ‖ uvarint k ‖ k × bytes op ‖ stamp) ‖ uvarint
//	             anchor — the snapshot is store.WriteSnapshot's
//	             string "snap.v2" ‖ uvarint version ‖ uvarint n ‖ n ×
//	             (key ‖ bytes value) in key order (172 279 B for the
//	             benchmark's 20 000 catalog keys, 390 237 B in the
//	             snap.v1 layout with every key whole, which
//	             store.ReadSnapshot refuses by its magic) — mode 1
//	             (snapshot first) when
//	             from is at or below the retained log's base, else mode
//	             0. A mode-1 reply carries the master's current state,
//	             signed when asked, and no batches; the decoder still
//	             checks any that follow. Each entry is a whole logged
//	             batch, uvarint first ‖ uvarint n ‖ n × bytes op ‖ stamp,
//	             whose stamp's digest is the hash of the bytes in front
//	             of it (BatchDigest), and is opened by the one rule
//	             (openBatch): one stamp and one hash per batch; a request from
//	             inside a batch gets all of it. Its newest stamp (the
//	             last batch's, else the snapshot's) names the version
//	             it brings a replica to; nothing closes it. Slave sync,
//	             Slave.Bootstrap, a restarted master's catch-up and its
//	             snapshot file all read it through decodeStateTransfer,
//	             which verifies every part before returning any.
//
// Committed history has that one shape everywhere: the master's op log
// is a list of these batches, its WAL record is one of them after its
// broadcast slot, and truncation cuts the log only between batches. It
// has one reader: every batch a replica takes — fetched or replayed — is
// opened by openBatch and applied by its applyTo — and one ingest per
// replica (adoptTransferLocked) adopts it as a state transfer: a WAL
// record or the master's own commit (applyBatch, once the batch's WAL
// record is synced) is one of one batch, a keep-alive one of none. A
// slave takes history one way, through m.sync: an announce, a lost
// announce that a later keep-alive repeats and Bootstrap all end in a
// fetch. It adopts a stamp only together with the state it names (see
// s.keepalive), so a batch in flight never stops its reads; an announce
// that arrives while a fetch is out is skipped by the single-flight guard
// and fetched by one more round if the landing fetch applied something
// and stopped below it.
//
// Beyond the paper, the package adds two scaling mechanisms the 2003
// design defers: batched, pipelined commits (one signature per batch,
// see types.go) and stability-driven truncation (checkpoint.go) — slaves
// acknowledge applied versions on every keep-alive reply, into
// their entry of the master's slave set (one table: each address once,
// each entry its certificate and its ack), and each master, after delivering any message but a write batch and at most once
// per CheckpointEvery, truncates its op log and broadcast archive below
// its own slaves' stable version, keeping checkpointMinRetain (64) ops. A
// slave silent for checkpointMaxLag (4) keep-alive intervals, or acking
// more than maxAckBehind (512) versions behind, stops gating it. The
// three are constants: no deployment or experiment needs other values.
// Masters are trusted (§3), so that is a local decision: no record is
// signed or broadcast for it, and the auditor drops its archive below
// each slot it delivers. Slaves that fell behind a truncation recover
// through snapshot-first sync instead of unbounded history replay. A
// master keeps no snapshot for that: it encodes and signs its current
// state when such a sync arrives.
//
// Signatures on the read path. sigcache.go says what a pledge's
// signature covers — the slave's claim about one version, not the stamp
// that rides beside it — and why a memo hit is safe. The client builds the
// signed body from the query it asked, the hash of the payload it got and
// its assigned slave's key, and on every reply checks, in this order: the
// hash of the payload, stamp for the signed version from a certified
// master, freshness. A stamp that arrives whole is signature-checked then,
// once per stamp received, before its first use, and becomes the stamp the
// client holds from that slave (on its slaveAssignment, dropped with the
// assignment and when a reply completed from it fails a check); a reply
// that leaves the stamp out is completed from the copy the request named,
// captured before the call, so its signature was checked when it arrived.
// Leaving the stamp out grants a slave nothing: it could as well have sent
// that stamp whole again.
//
// One verify rule. A client checks a slave's pledge signature so that a
// lie it accepts can be pinned on the signer (§3.2, §3.4), and it checks
// it in exactly two places: before it accepts an answer the auditor did
// not vouch for, and in reportPledge, before any report is filed. Where
// the reply came without the signature, it is fetched there (s.sign), and
// before evidence frames go to the auditor. A drawn
// double-check runs m.check, then the a.pledge forward, and verifies only
// when the ack is not the vouch; a K-slave disagreement verifies a reply
// only as it reports it. So every reply passes the stamp checks and then
// needs a verified signature or the vouch, and every report carries a
// verified pledge. The auditor verifies one in two places too, both on an
// evidence frame: one whose hash disagrees with its view, before it
// convicts, and one ahead of delivery, after its master stamp and before
// it holds it in pending. A frame no slave signed, or ahead under a stamp
// no master made, is dropped (PledgesBadSig), so nobody can make the
// auditor hold a frame at a version no master stamped. A vouched answer
// is correct — the trusted auditor found
// the same hash at that signed, fresh version — so there is no lie to pin
// on anyone; a lie's hash is never the auditor's answer, so a lie is never
// vouched. The vouch is not authenticated: whoever can forge the
// auditor's one-byte reply on the wire can make a client skip its verify,
// the same hole as the forged §3.4 ack through which a signed lie skips
// the audit; ROADMAP item 13(a) tags the reply.
//
// Signing on demand (§3.5). The paper's slave signs a pledge for every
// answer so that a lie it serves can be pinned on it. Under the rule above
// nobody checks the signature on an answer the auditor vouches for, so the
// slave signs only when asked: in the s.read request (the sign flag) or
// afterwards (s.sign), and only for a statement it served — every served
// statement is kept in its bounded pledge table, and s.sign refuses any
// other, so the slave is no signing oracle. A client asks up front only
// when it may accept the answer without the vouch for a reason other than
// a lie: under sampling (AuditSampleP < 1), and when its held stamp is
// newer than the newest version its auditor vouched for, so the read may
// be ahead of delivery (asksSignature). A request whose ref names no stamp
// the slave still answers under asks too: the reply brings the stamp
// whole, at a version the client could not place when it asked, and comes
// signed, so a slave signs at most once per reader per stamp it moves to.
// Everywhere else the client fetches the signature where one is checked. A
// liar can now refuse to sign — refuse s.sign, or leave the signature out
// when asked — and that opens no escape a signature it garbles did not
// already open: a lie under a garbage signature is refused and convicts
// nobody (the auditor drops it as PledgesBadSig, the client retries as
// ErrBadPledge), and a refused s.sign ends the same way — ErrBadPledge, no
// read accepted, no report, no exclusion
// (TestLiarRefusingToSignEndsLikeGarbage). A refusal shields no other
// liar: when K slaves tell one lie and one refuses, the evidence still
// goes out with that frame unsigned, the auditor drops it as a bad
// signature and convicts each slave that signed, as beside a garbage
// signature (TestAgreeingLiarRefusingToSignLeavesTheSignerConvicted).
// Either way a lie is accepted
// only under a verified signature, so every accepted lie stays provable;
// what a slave that will not sign buys is a failed read, which a slave
// could always buy by not answering. An honest slave refuses only a
// statement its table has dropped (8192 entries, far more than the reads
// in flight), and the client retries that read.
//
// The hash decides whether a lie is caught. A pledge names its answer by
// hash, a batch stamp its ops by BatchDigest, and the client check, the
// vouch, the double-check and the audit all compare hashes, never
// payloads. So a hash with practical collisions lets a writer and a slave
// in collusion lie unseen: the writer commits a value V1 crafted to
// collide with V2, the slave serves V2, and all four checks agree with it
// — nobody is convicted. Chosen-prefix collisions are practical for SHA-1
// (Leurent and Peyrin, "SHA-1 is a Shambles", 2020), so every digest here
// is SHA-256 (cryptoutil.HashBytes). It is truncated to the 20 bytes SHA-1
// had: that keeps 80-bit generic collision resistance (a birthday search
// over 2^160), beyond any collusion's budget, and every frame, WAL record
// and snapshot keeps its length. A data directory written under SHA-1
// digests is refused at start (durable.go).
//
// Every memo is kept for traffic measured through it (replbench, seed 1,
// 6–8 s runs):
//
//	Slave.stamps (256)    every batch's stamp is verified on its
//	                      announce and met again in the fetch: a 0.21 hit
//	                      ratio on traced write-waves, one ed25519 verify
//	                      per batch; a resync re-verifies the stamps of
//	                      batches it dropped (the lying-slave cell's
//	                      read_p99_ms: 66 → 95 without it)
//	Slave.pledges (8192)  every served statement, so s.sign can sign it
//	                      later; a signature asked for is made once per
//	                      distinct statement (hits per asked read: 0.91
//	                      read-point, 0.45 read-scan, 0.065 mixed while
//	                      every read asked)
//	resultMemo            20 % hits on read-scan, none elsewhere
//	Auditor.stamps (256)  stamps on frames ahead of delivery; only the
//	                      matrix's latency-spike cells send any
//
// No pledge verify has a memo. With the rule above a client verifies no
// pledge on read-point, read-scan or mixed (0.048 per accepted read when
// it verified before each drawn double-check, all of them there); the
// auditor verifies only a pledge its content contradicts, which no
// benchmark workload has; and a master's catch-up verifies each stamp
// once. TestClusterVouchAheadVerifyRatio pins the rule on the simulated
// mixed shape (no verify when the auditor vouched for every pledge), and
// TestPledgeMemoHitRatio pins the signer (every read asking) and the held
// stamp (one whole stamp per keep-alive) on one-kind catalogs (Zipf Gets,
// uniform ten-key Ranges). A client keeps no memo: the stamp it holds from each slave
// stands in for one (99.9 % of read-point replies leave it out).
//
// The auditor answers at the read's own version (auditor.go). The auditor
// keeps the content at every batch boundary as a view — an O(1)
// copy-on-write store.Clone with its own answer cache — until MaxLatency +
// AuditorSlack after the next batch was delivered, when no client can
// still accept a read there. Delivery is the auditor's only clock; it runs
// no loop of its own. deliver drops the views whose window has closed,
// applies each batch onto a clone of the newest view, so Auditor.Version()
// is the last version delivered (the auditor "is allowed to lag behind
// when executing write requests", §3.4, only as far as its broadcast
// delivery lags), and settles in arrival order the waiting frames that
// version reached. Auditor.handlePledge answers a body in one critical
// section. A statement body draws each frame's sampling coin and judges
// the rest at their versions; when a frame's version V is above the last
// version delivered, or the answer at V is not its result hash, the reply
// is pledgeEvidence and nothing is counted. Otherwise, and for every
// evidence body (no coin), each frame is settled as exactly one of:
// sampled out; waiting, when V is above the last version delivered and the
// frame's master stamp for V and then its slave signature verify, until V
// is delivered however late (pending holds only these, at most
// maxHeldFrames); late, when no view is at exactly V, or when V is ahead
// and the backlog is full; audited and right, when the answer at V is the
// frame's result hash; convicted otherwise. The reply is the one byte 0x01
// exactly when every frame was audited and right. What a flood can buy at
// the cap: anyone can mint slave keys and sign frames at a version the
// masters stamped and the auditor has not delivered, under a copy of the
// real stamp, and while they fill the backlog every other frame ahead of
// delivery is late, a real lie among them. That lasts only while the
// auditor lags: V's delivery settles every held frame, and the flooder
// must send 4096 frames again for the next version, each costing the
// auditor a signature verify (the stamp's is memoised) and the flooder
// only bytes. A held frame aliases its a.pledge body, so the cap bounds
// frames, not bytes. Why "no view at V" means "no honest client reads at
// V": every replica applies a delivered batch whole or not at all, under
// one rule (decodeBatchMessage), so versions are numbered alike, and every
// stamp a master signs names the version after a whole batch, so an honest
// read is always at a batch boundary. A cache miss runs on the handler, so
// a forged pledge buys one scan per distinct query per version there;
// bounding it is ROADMAP item 7's job.
//
// Scan once per version (resultmemo.go). Slaves exist for arbitrary dynamic
// queries (§3.2), and a dynamic query is a walk over the content.
// Slave.handleRead and Master.handleCheck each keep a resultMemo from
// encoded query to honest payload: the first Count or Sum after a commit
// pays the walk, every repeat until the next commit a map probe. The memo
// belongs to one replica (the *store.Store, by identity) at one version and
// starts over when asked about any other pair, so a fetched batch, a sync,
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
// is priced as a memo lookup where a miss is priced by its scan; the
// payload is hashed, and the hash priced, either way. Admission is by
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
// query) has its slave signature verified, on the handler, from the
// evidence the client sends when asked: a forged pledge is counted
// (PledgesBadSig) and dropped, a signed one is a lie (Mismatches). A
// frame ahead of delivery is verified before it is held, and not again. The check and the mark of the slave as detected are one
// critical section, so the first lie from each slave is reported once;
// only the m.report RPC runs on a task of its own, so no ack waits on it.
// A report no master accepts clears the mark, so the slave's next lie is
// reported again.
// The invariant is: no report without a verified signature, at
// the auditor and again at the master. Auditor.report accepts only a
// provenPledge, which only settleLocked constructs, and Master.handleReport
// verifies the pledge itself, once and outside its lock, before it
// excludes anyone, whoever vouches for it; it then compares versions and
// re-executes in one critical section (a version that moved falls through
// to the auditor's signature), signs the bcExclude it broadcasts, and
// applyExclude acts on no other. Known and accepted: a forged pledge naming an expensive scan
// costs the auditor the scan before the verify rejects it, where a
// verify-first auditor paid the verify alone. Any client can buy the same
// scan with a real read, and a.pledge has no admission bound either way;
// bounding it is admission control's job (ROADMAP, "Bounded under
// overload"), not the signature check's. Every received pledge ends in
// exactly one of PledgesAudited (lies included), PledgesSampled,
// PledgesLate and PledgesBadSig.
//
// What work costs (simulation only). Each node prices its work on one
// cryptoutil.Meter (its CPU and Params.Costs) by kind — sign, verify,
// hash, query, memo hit, op applied, reply — and nothing else here reads
// the cost model (TestWorkIsPricedOnlyByTheMeter); the memos and openBatch
// price what they do. A charge parks the task, so none is made under a
// node mutex: such work is priced after the unlock, or on a Tab paid
// there. WAL replay runs before any sim task, with a nil meter. A master
// pays per batch a signature, the ops' hash and an apply per op, and a
// signature per keep-alive; a slave a verify per keep-alive (and the
// address's hash when one would move its source), and per batch a memo
// hit and the entry's hash; per read the query, the payload's hash, a
// memo lookup for the pledge (a signature instead when the client asked
// for one the slave had not made before, by the sign flag or by a stamp
// reference the slave no longer answers under) and the reply, per s.sign
// a memo lookup or that signature and the reply, and the auditor the
// answer at the read's version. A re-execution that checks an answer
// (the auditor's, or a master's of a reported pledge) costs the scan
// plus the payload's hash (executeQuery). A client pays nothing.
//
// Masters can additionally be made durable (durable.go): with
// MasterConfig.DataDir set, every committed batch — its ops and signed
// stamp — is appended to a write-ahead log and fsynced before the store
// shows it, so before the client ack and before any keep-alive, m.check
// or m.sync names its version, and every truncation atomically persists a signed snapshot file
// and truncates the WAL below it. The file is an m.sync reply (a
// snapshot and no batches), read back through decodeStateTransfer under
// the master's own key. A restarting master loads the snapshot, replays
// the WAL suffix (each record a one-batch transfer; a torn final record —
// a crash mid-append — is dropped, any other corruption refuses to
// start), resumes its broadcast slot, and closes the remaining gap from a
// peer: by ordinary record fetch when the archive still holds its slots,
// or one snapshot-first recovery sync when truncation outran the outage.
// Without DataDir nothing touches the filesystem.
package core
