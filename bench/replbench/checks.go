package main

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/store"
	"repro/internal/workload"
)

// Output checks. The system under test does not grade itself: these run
// on what the benchmark observed from outside (acked versions, accepted
// payloads, final digests) and on its own copy of the content. Any
// violation fails the run with the evidence; it is never folded into a
// failure count.
func (rd *runData) check() error {
	d := rd.dep
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	// Replicas agree.
	version := d.masters[0].Version()
	digest := d.masters[0].StateDigest()
	for i := range d.masters {
		if v := d.masters[i].Version(); v != version {
			fail("master %d at version %d, master 0 at %d", i, v, version)
		}
		if !d.masters[i].StateDigest().Equal(digest) {
			fail("master %d state digest differs from master 0", i)
		}
		if v := d.slaves[i].Version(); v != version {
			fail("slave %d at version %d, masters at %d", i, v, version)
		}
		if !d.slaves[i].StateDigest().Equal(digest) {
			fail("slave %d state digest differs from the masters'", i)
		}
	}
	if v := d.auditor.Version(); v != version {
		fail("auditor at version %d, masters at %d", v, version)
	}

	// Nothing lost, nothing duplicated: every acked version is non-zero,
	// unique and inside the committed history, and the masters applied
	// exactly as many writes as were acked.
	var acked uint64
	if rd.writer != nil {
		seen := make(map[uint64]int)
		for k := range rd.writer.waves {
			w := &rd.writer.waves[k]
			for _, v := range w.versions {
				if v == 0 {
					continue // counted as failed, not as acked
				}
				acked++
				if prev, dup := seen[v]; dup {
					fail("version %d acked twice (waves %d and %d)", v, prev, k)
				}
				seen[v] = k
				if v > version {
					fail("wave %d acked version %d beyond the masters' final version %d", k, v, version)
				}
			}
		}
	}
	for i, m := range rd.final.masters {
		if m.WritesApplied != acked {
			fail("master %d applied %d writes, clients hold %d acks", i, m.WritesApplied, acked)
		}
		if m.Exclusions != 0 {
			fail("master %d excluded %d slaves in a fault-free run", i, m.Exclusions)
		}
		if m.DirectoryErrors != 0 {
			fail("master %d saw %d directory errors", i, m.DirectoryErrors)
		}
	}
	for i, c := range rd.final.clients {
		if c.LiesAccepted != 0 {
			fail("client %d accepted %d falsified answers", i, c.LiesAccepted)
		}
	}
	if n := rd.final.auditor.Mismatches; n != 0 {
		fail("auditor found %d mismatching pledges among honest slaves", n)
	}

	// Read-only workloads: re-execute one accepted read in 64 on the
	// benchmark's own copy of the content; payloads must match exactly.
	if rd.cfg.spec.readOnly() {
		oracle := d.content
		if rd.cfg.corruptOracle {
			oracle = oracle.Clone()
			for i := 0; i < nCatalog; i++ {
				if err := oracle.Apply(store.Put{Key: workload.CatalogKey(i), Value: []byte("corrupt")}); err != nil {
					return err
				}
			}
		}
		checked := 0
		for _, r := range rd.readers {
			for _, s := range r.oracle {
				res, err := s.q.Execute(oracle)
				if err != nil {
					fail("oracle could not execute %v: %v", s.q, err)
					continue
				}
				checked++
				if !bytes.Equal(res.Payload, s.payload) {
					fail("accepted answer to %v differs from the oracle's (%d vs %d bytes)", s.q, len(s.payload), len(res.Payload))
					if len(errs) > 20 {
						return errors.Join(errs...)
					}
				}
			}
		}
		if checked == 0 {
			fail("read-only workload kept no accepted reads to check")
		}
	}
	if len(errs) > 0 {
		// Transport trouble is the usual cause (a retried b.submit is
		// sequenced twice); name the calls that failed.
		for r := range rd.final.dial {
			for m, c := range rd.final.dial[r] {
				if c.errs > 0 {
					fail("evidence: %s → %s: %d of %d calls failed (%d timeouts)", roleNames[r], methodNames[m], c.errs, c.calls, c.timeouts)
				}
			}
		}
	}
	return errors.Join(errs...)
}
