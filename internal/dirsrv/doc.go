// Package dirsrv is the directory plane of the deployment: the public
// directory of §2 exposed over RPC, promoted from a flat master list to
// the shard routing service of the multi-group deployment.
//
// # What the directory serves
//
// For one content key the directory holds three kinds of state, all of
// it verifiable by clients and none of it trusted:
//
//   - Certificates (pki.Certificate) binding master, auditor, and slave
//     identities to contact addresses and — in a sharded deployment — to
//     a shard id. Each is signed by the content owner, and the shard id
//     is inside the signature, so the directory cannot remap a master
//     into another group's key range.
//   - The shard table (pki.ShardTable): the owner-signed, epoch-numbered
//     partition of the keyspace into contiguous ranges, each owned by
//     one master group. MethodShardMap serves the table plus all
//     certificates in one round trip — what every client sets up from,
//     and the one read masters make too: they check catch-up replies,
//     exclusion origins and takeover withdrawals against its master
//     certificates. (MethodMasters names a method no server answers any
//     more; the benchmark's counters still list it.)
//   - Exclusions (pki.Exclusion) revoking slaves proven malicious.
//
// A master's certificate leaves the directory, and a slave's exclusion is
// lifted, only by a retraction (pki.Retraction) sent as MethodWithdraw or
// MethodReinstate.
//
// # Verify before store
//
// The server refuses every mutation that does not verify: certificates
// of any role must verify under the content key, shard tables must be
// signed, well-formed (contiguous, total, unique ids), and not older
// than the stored epoch, and exclusions and retractions must be signed by
// a currently certified master. A retraction is dated and drops nothing
// issued or recorded after it, so a replayed one cannot withdraw a
// re-issued certificate or lift a newer exclusion. The directory stays
// untrusted — clients and masters
// re-verify everything they receive under the content key — but it never
// stores or serves garbage.
//
// # The redirect/retry protocol
//
// A core.Client verifies the table and every certificate under the
// content key at setup and routes each write and point read to the owning
// group's masters. A master asked to write a key outside its configured
// range rejects the wave at admission with a wrong-shard error. The
// client reacts by re-reading the signed table from the directory and
// re-sending that group's part — bounded, and safe against duplicates
// because the rejection happens before anything is committed. The range
// named in the error text is unsigned and only for logs: routing follows
// the owner-signed table alone. This is how every client converges after
// a range move without coordination.
//
// # Fail-closed exclusion semantics
//
// Client.IsExcluded propagates RPC failure instead of defaulting to
// "not excluded": the paper's threat model assumes replicas will be
// compromised and must stay excluded, so a partitioned or crashed
// directory must surface as an error a caller can act on, never as a
// silent reinstatement. Publish, RecordExclusion and Retract equally
// return the transport error, so a master knows whether the directory
// actually heard it. Every Client call waits at most callTimeout (5 s):
// masters call the directory on their broadcast delivery path, which a
// directory that accepts a request and never answers must not stop.
package dirsrv
