package wire

import (
	"testing"
	"time"
)

// These guards pin the pooled encode/decode path's steady-state
// allocation budget so a regression (a dropped Reset, a view replaced
// by a copy) fails the suite rather than silently re-inflating the
// per-frame cost.

func TestPooledEncodeDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only meaningful without -race")
	}
	payload := []byte("payload bytes here")
	avg := testing.AllocsPerRun(100, func() {
		Borrow(func(w *Writer) {
			w.Uvarint(42)
			w.String_("catalog/00042")
			w.Bytes_(payload)
			w.Time(time.Unix(1000, 0).UTC())
		}, func(b []byte) {
			r := NewReader(b)
			r.Uvarint()
			_ = r.BytesView() // the string field: same length-prefixed layout
			_ = r.BytesView()
			r.Time()
			if r.Done() != nil {
				t.Fatal("codec round trip failed")
			}
		})
	})
	if avg > 0 {
		t.Fatalf("pooled encode/decode round trip allocates %.1f times per run, want 0", avg)
	}
}

// EncodeFrame's contract is "one allocation, the detached frame".
func TestEncodeFrameSingleAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only meaningful without -race")
	}
	avg := testing.AllocsPerRun(100, func() {
		frame := EncodeFrame(func(w *Writer) {
			w.Uvarint(7)
			w.String_("k")
		})
		if len(frame) == 0 {
			t.Fatal("empty frame")
		}
	})
	if avg > 1 {
		t.Fatalf("EncodeFrame allocates %.1f times per run, want 1 (the detached frame)", avg)
	}
}
