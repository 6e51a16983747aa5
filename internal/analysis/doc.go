// Package analysis is repllint: a self-contained, dependency-free
// mirror of the golang.org/x/tools/go/analysis API surface plus the
// two analyzers that mechanically enforce this repository's locking and
// verify-before-trust invariants. It ships its own
// Analyzer/Pass/Diagnostic shape, a module-aware package loader built
// on the standard library's source importer, and suppression handling,
// so the suite builds with no external modules. Run it with
//
//	go run ./cmd/repllint ./...
//
// or `make lint`, which the `verify` target depends on.
//
// # Analyzers
//
// lockcheck enforces the `guarded by` annotation convention. A struct
// field whose comment contains
//
//	// guarded by mu
//
// (any trailing prose after the mutex name is fine) may only be read
// or written while that mutex — resolved against the same base value,
// e.g. m.mu for m.field — is statically held. Held-ness is tracked
// through Lock/Unlock/RLock/RUnlock calls branch by branch; paths are
// joined by intersection, so a lock released on one arm of an if is
// not considered held after the join. Two escape hatches exist:
// methods whose name ends in "Locked" document a held-on-entry
// contract and are exempt, and constructor-time access can be
// suppressed with a //lint:ignore directive (see below).
//
// trustcheck enforces verify-before-trust on the replication ingest
// paths. Values produced by the wire decoders (DecodeStamp,
// DecodePledge, decodeBatchEntry, DecodeWriteRequest, DecodeWriteWave,
// DecodeProof, ...) are tainted until
// they flow through a verification call (Verify, VerifySig,
// VerifyMembers, ValidateOp, AuthenticatesOp, ...). Taint follows data
// through assignments, field reads, indexing, arithmetic and call
// results. A check of one field (verifyStamp(&bu.Stamp)) clears that
// field and nothing else; VerifyMembers clears a batch only once its
// stamp is clear — the ops are only as good as the digest they are
// checked against (§3.1). A tainted value must not reach a sink —
// Apply/ApplyAt, an opened batch's applyTo (as its receiver),
// adoptTransferLocked (a master's and a slave's one ingest share that
// name, so one sink covers both) — or be stored into long-lived replica
// state (fields of a receiver or parameter, or package-level variables);
// assembling decoded values in function-local scratch is fine and merely
// propagates the taint. A verifying decoder is the converse: its callers use what it returns as verified, so inside it
// a return of a still-tainted value is reported. The replica ingest paths
// are its three verifying decoders: openBatch, the one rule every batch a
// replica takes passes (each entry of an m.sync reply or snapshot file,
// a WAL record); decodeStateTransfer, which adds
// the snapshot and the batches' contiguity; and decodeBatchMessage, which
// refuses a delivered bcBatch body with an op that does not decode.
//
// # Suppression
//
// A finding that is intentional is silenced with the staticcheck-style
// directive
//
//	//lint:ignore <analyzer> <reason>
//
// where <analyzer> is lockcheck, trustcheck, or * for any, and <reason>
// is mandatory prose. On its
// own line the directive covers that line and the next; in the doc
// comment of a function declaration it covers the whole function.
// Example from the durable-recovery path, which runs strictly before
// any goroutine is spawned:
//
//	//lint:ignore lockcheck runs in NewMaster before any concurrency starts
//	func (m *Master) openDurable() error { ... }
//
// # Testing
//
// Each analyzer has golden tests under testdata/src/<name>/ driven by
// the analysistest subpackage: `// want "regexp"` comments mark
// expected diagnostics, and every file pairs true positives with
// near-miss code that must stay silent. realtree_test.go holds each
// analyzer to its purpose on the real code: it seeds one bug per row —
// a dropped lock around a guarded Master or Slave field, a dropped
// VerifyMembers or stamp check on each batch ingest path — into a copy of
// the module and requires a report at the seeded line. The suite itself
// must run clean on this repository; `make lint` enforces that.
package analysis
