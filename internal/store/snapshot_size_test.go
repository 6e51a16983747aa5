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
