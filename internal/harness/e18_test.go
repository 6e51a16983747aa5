package harness

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// TestE18ShapeHotPath asserts the PR's acceptance criteria on the E18
// experiment at test scale: the hot-path configuration (write waves over
// the pooled-frame plumbing) must
// commit at least 2x the writes/s of the E15-equivalent reference
// configuration, and on the read path — where stamps repeat between
// updates — the verified-stamp cache must absorb the repeat
// verifications (hits > 0 and hits > misses).
func TestE18ShapeHotPath(t *testing.T) {
	dur := 1250 * time.Millisecond // scale-8 equivalent of the benchmark run

	ref := runWrites(7, dur, cryptoutil.ModernCosts(), 16, 0)
	hot := runWrites(7, dur, cryptoutil.ModernCosts(), 16, 16)
	if ref.committed == 0 || hot.committed == 0 {
		t.Fatalf("no write load ran (ref=%d hot=%d)", ref.committed, hot.committed)
	}
	if ref.tput <= 0 || hot.tput <= 0 {
		t.Fatalf("throughput not measured (ref=%.0f hot=%.0f)", ref.tput, hot.tput)
	}
	if hot.tput < 2*ref.tput {
		t.Fatalf("hot path %.0f writes/s < 2x reference %.0f writes/s", hot.tput, ref.tput)
	}

	rr := runE18Reads(7, dur)
	if rr.reads == 0 {
		t.Fatalf("no read load ran")
	}
	if rr.stampHits == 0 {
		t.Fatalf("no stamp-cache hits despite a repeated-stamp read load")
	}
	if rr.stampHits <= rr.stampMisses {
		t.Fatalf("stamp cache not amortizing: hits=%d misses=%d", rr.stampHits, rr.stampMisses)
	}
}
