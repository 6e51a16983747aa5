package store_test

import (
	"testing"

	"repro/internal/workload"
)

// TestSnapshotBytesOfTheBenchContent pins the size of the snapshot of the
// benchmark's content (20 000 catalog keys, 20 documents): every
// checkpoint hashes and fsyncs it, and a snapshot-first m.sync ships it.
// Front-coded it is 172 279 bytes; with every key whole (snap.v1) it was 390 237.
func TestSnapshotBytesOfTheBenchContent(t *testing.T) {
	const max = 180_000
	if got := len(workload.BuildContent(20000, 20).EncodeSnapshot()); got > max {
		t.Fatalf("20 000-key snapshot is %d bytes, want <= %d", got, max)
	}
}

// TestSnapshotIsExactSize: the encoded snapshot of the benchmark's
// content holds no spare capacity. Every copy a checkpoint keeps or an
// m.sync reply carries is as large as its bytes, not as the content's raw
// bytes (350 247 for these 172 279 when the buffer was sized by them).
func TestSnapshotIsExactSize(t *testing.T) {
	b := workload.BuildContent(20000, 20).EncodeSnapshot()
	if cap(b) != len(b) {
		t.Fatalf("snapshot of %d bytes has capacity %d", len(b), cap(b))
	}
}
