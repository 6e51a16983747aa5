// Package wire implements the hand-rolled binary encoding used
// everywhere a byte-exact representation matters: RPC frames, signed
// pledge packets (§3.2), version stamps (§3.1), batch frames, and result
// hashing.
//
// The format is deliberately simple and fully deterministic:
//
//	uvarint  — unsigned LEB128, at most 10 bytes
//	varint   — zig-zag encoded uvarint
//	bytes    — uvarint length prefix followed by raw bytes
//	string   — same as bytes
//	time     — varint Unix nanoseconds (UTC)
//	slices   — uvarint count prefix, then elements
//
// Determinism matters because two replicas must produce the identical
// encoding of the identical logical value: the paper's whole enforcement
// story (§3.3–§3.5) rests on result hashes and signatures computed over
// these bytes matching across the slave that answered, the master that
// double-checks, and the auditor that re-executes. Decoding is hostile-
// input safe: length prefixes are capped (MaxBytesLen, MaxBatchItems),
// an element count is read with Reader.Count, which refuses one larger
// than the bytes that remain before anything is sized by it, and the
// Reader latches the first error so call sites check once.
//
// The encode/decode hot path is pooled and zero-copy: writers come from
// a private sync.Pool through exactly two helpers — EncodeFrame for
// frames that are kept (one exact-size allocation) and Borrow for bytes
// used on the spot (none) — a Reader that does not escape lives on the
// stack, and the BytesView/BytesSliceView accessors return slices
// aliasing the decoded buffer. The two-helper rule lives in pool.go and
// the README's pooled-buffer section; alloc_test.go pins the steady
// state at zero allocations.
package wire
