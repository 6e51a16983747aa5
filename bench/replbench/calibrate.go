package main

import (
	"crypto/ed25519"
	"crypto/sha1"
	"time"
)

// The shared build machine does not run at one speed. A neighbour on the
// same physical core slows every instruction for seconds or minutes at a
// time (the guest sees no steal time; its own CPU time per operation just
// grows), and ten runs of one binary then spread by 0.1 to 0.3 of their
// median. The calibrator measures that speed while the workload runs: a
// fixed burst of standard-library work every calEvery, timed. The mean
// burst time of a slice over calNominal is the slice's slowdown, and the
// end-to-end timings of the slice are divided by it, so they read as on a
// host where the burst takes calNominal. The burst calls crypto/ed25519
// and crypto/sha1 directly, never the repository's code: a change to the
// program cannot move the ruler.
const (
	calEvery   = 25 * time.Millisecond
	calSigns   = 40               // ed25519 signatures per burst, ≈ 1 ms with the hash below
	calNominal = time.Millisecond // burst time on the reference host: this build machine left alone
)

type calSample struct{ at, dur int64 } // recorder time, ns

type calibrator struct {
	key     ed25519.PrivateKey
	buf     []byte
	samples []calSample
}

func newCalibrator(runFor time.Duration) *calibrator {
	return &calibrator{
		key:     ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)),
		buf:     make([]byte, 64<<10),
		samples: make([]calSample, 0, int(runFor/calEvery)+16),
	}
}

// burst is the fixed work: signatures chained through the buffer so none
// can be skipped, then one hash over 64 KiB.
func (c *calibrator) burst() {
	for i := 0; i < calSigns; i++ {
		sig := ed25519.Sign(c.key, c.buf[:32])
		copy(c.buf, sig[:32])
	}
	h := sha1.Sum(c.buf)
	copy(c.buf, h[:])
}

func (c *calibrator) run(rec *recorder, stopAt int64) {
	for {
		start := rec.now()
		if start >= stopAt {
			return
		}
		c.burst()
		c.samples = append(c.samples, calSample{at: start, dur: rec.now() - start})
		time.Sleep(calEvery)
	}
}

// slowdown is the mean burst time of the bursts begun in [from, to) over
// calNominal; 0 when there were none.
func (c *calibrator) slowdown(from, to int64) float64 {
	var sum, n int64
	for _, s := range c.samples {
		if s.at >= from && s.at < to {
			sum += s.dur
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(calNominal)
}
