// Package analysis is repllint: a self-contained, dependency-free
// mirror of the golang.org/x/tools/go/analysis API surface plus the
// four analyzers that mechanically enforce this repository's pooling,
// locking, and verify-before-trust invariants. It ships its own
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
// poolcheck enforces wire-buffer ownership. Every writer or reader
// obtained from wire.GetWriter / wire.GetReader must be returned with
// wire.PutWriter / wire.PutReader on every path out of the function
// (a deferred Put, including inside a deferred func literal, counts).
// A pooled value must not be used after it is released, must not be
// released twice, and any view that aliases pooled memory —
// Writer.Bytes, Reader.BytesView, Reader.BytesSliceView — must not be
// stored, returned, or sent on a channel once the owning buffer has
// been (or is deferred to be) released. Passing a view as a call
// argument is allowed: the callee sees it only for the duration of the
// call. Writer.Detach transfers ownership of the backing array and
// ends tracking; Reader.Bytes copies and is always safe to retain.
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
// DecodePledge, decodeBatchEntry, DecodeBatchUpdate, DecodeWriteRequest,
// DecodeWriteWave, DecodeProof, ...) are tainted until
// they flow through a verification call (Verify, VerifySig,
// VerifyMembers, ValidateOp, AuthenticatesOp, ...). A
// tainted value must not reach an Apply/ApplyAt sink or be stored into
// long-lived replica state (fields of a receiver or parameter, or
// package-level variables); assembling decoded values in function-local
// scratch is fine and merely propagates the taint. A verifying decoder
// (decodeStateTransfer) is the converse: its callers use what it returns
// as verified, so inside it a return of a still-tainted value is reported.
//
// timercheck flags the two timer leaks that matter in long-lived
// loops: time.After inside a for/range body (each iteration leaks a
// timer until it fires — use a reusable time.NewTimer with Stop/Reset)
// and time.NewTimer/time.NewTicker values with no reachable Stop that
// do not escape the function.
//
// # Suppression
//
// A finding that is intentional is silenced with the staticcheck-style
// directive
//
//	//lint:ignore <analyzer> <reason>
//
// where <analyzer> is one of poolcheck, lockcheck, trustcheck,
// timercheck, or * for any, and <reason> is mandatory prose. On its
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
// near-miss code that must stay silent. The suite itself must run
// clean on this repository; `make lint` enforces that.
package analysis
