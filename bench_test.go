// Package repro's top-level benchmarks regenerate every experiment table
// (E1–E19; `go run ./cmd/replsim -list` names the paper claim each one
// validates, README.md "Performance trajectory" the mechanisms) plus
// micro-benchmarks of the underlying primitives. Everything here runs in
// the simulator's virtual time; the real-clock benchmark is bench/. Experiment benches run the identical harness
// code that cmd/replsim -all runs, at a reduced scale per iteration; the
// table output is suppressed, the work is real.
//
//	go test -bench=. -benchmem
package repro

import (
	"crypto/sha1"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/harness"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
)

// benchScale keeps each experiment iteration around a second of wall
// time; cmd/replsim runs the full-size versions.
const benchScale = harness.Scale(8)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := harness.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(int64(i)+1, benchScale)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

func BenchmarkE1ReadCost(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Detection(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3MasterLoad(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4Audit(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5Auditor(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Freshness(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7WriteCap(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8KSlave(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9Greedy(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10MasterCrash(b *testing.B)  { benchExperiment(b, "E10") }
func BenchmarkE11Sensitive(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12StateSign(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13CostAblation(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE14Recovery(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15Batch(b *testing.B)        { benchExperiment(b, "E15") }
func BenchmarkE16Checkpoint(b *testing.B)   { benchExperiment(b, "E16") }
func BenchmarkE17Recovery(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE18HotPath(b *testing.B)      { benchExperiment(b, "E18") }
func BenchmarkE19Sharding(b *testing.B)     { benchExperiment(b, "E19") }

// batchUpdate builds the batch an honest master commits for n catalogue
// puts at first, first+1, ….
func batchUpdate(master *cryptoutil.KeyPair, first uint64, n int) core.BatchUpdate {
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = store.EncodeOp(store.Put{Key: workload.CatalogKey(i), Value: []byte("value")})
	}
	stamp := core.SignBatchStamp(master, first+uint64(n)-1, time.Unix(0, 0).UTC(), core.BatchDigest(first, ops))
	return core.BatchUpdate{First: first, Ops: ops, Stamp: stamp}
}

// BenchmarkBatchUpdateVerify measures the slave-side check of one batched
// commit: one signature verification (uncached) plus one hash over the
// batch's bytes — the ledger's core.batchupdate_verify256_us times the
// same call.
func BenchmarkBatchUpdateVerify(b *testing.B) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	trusted := []cryptoutil.PublicKey{master.Public}
	for _, n := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			bu := batchUpdate(master, 10, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bu.Verify(trusted); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks: protocol primitives --------------------------------

func BenchmarkPledgeSign(b *testing.B) {
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	master := cryptoutil.DeriveKeyPair("master", 0)
	stamp := core.SignStamp(master, 7, time.Unix(0, 0).UTC())
	qb := query.Encode(query.Get{Key: "catalog/00042"})
	h := cryptoutil.HashBytes([]byte("result"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SignPledge(slave, qb, h, stamp)
	}
}

func BenchmarkPledgeVerify(b *testing.B) {
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	master := cryptoutil.DeriveKeyPair("master", 0)
	stamp := core.SignStamp(master, 7, time.Unix(0, 0).UTC())
	qb := query.Encode(query.Get{Key: "catalog/00042"})
	p := core.SignPledge(slave, qb, cryptoutil.HashBytes([]byte("result")), stamp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.VerifySig(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPledgeCodec(b *testing.B) {
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	master := cryptoutil.DeriveKeyPair("master", 0)
	stamp := core.SignStamp(master, 7, time.Unix(0, 0).UTC())
	p := core.SignPledge(slave, query.Encode(query.Get{Key: "k"}),
		cryptoutil.HashBytes([]byte("r")), stamp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := core.EncodePledge(p)
		r := wire.NewReader(enc)
		if _, err := core.DecodePledge(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResultHashBySize(b *testing.B) {
	for _, size := range []int{128, 1 << 10, 16 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			buf := make([]byte, size)
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				cryptoutil.HashBytes(buf)
			}
		})
	}
}

func BenchmarkQueryExecution(b *testing.B) {
	content := workload.BuildContent(2000, 100)
	cases := []struct {
		name string
		q    query.Query
	}{
		{"get", query.Get{Key: workload.CatalogKey(997)}},
		{"range100", query.Range{From: workload.CatalogKey(100), To: workload.CatalogKey(200)}},
		{"count", query.Count{P: "catalog/"}},
		{"sum", query.Sum{P: "catalog/"}},
		{"grep", query.Grep{Pattern: "active", PathPrefix: "docs/"}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.q.Execute(content); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreApply(b *testing.B) {
	b.ReportAllocs()
	s := store.New()
	for i := 0; i < b.N; i++ {
		s.Apply(store.Put{
			Key:   workload.CatalogKey(i % 10000),
			Value: []byte("value"),
		})
	}
}

// BenchmarkDigest records the hash choice: SHA-1, the hash the digest
// was, against cryptoutil.HashBytes (SHA-256 truncated to the same 20
// bytes) at the sizes the protocol hashes most — 41 B (a small op or
// query payload), 290 B (a range reply) and 5.7 KB (a 256-op batch's
// BatchDigest input). On a host with SHA extensions SHA-256 is the faster;
// without them the order may flip.
func BenchmarkDigest(b *testing.B) {
	hashes := []struct {
		name string
		sum  func([]byte) byte
	}{
		{"sha1", func(p []byte) byte { d := sha1.Sum(p); return d[0] }},
		{"sha256", func(p []byte) byte { d := cryptoutil.HashBytes(p); return d[0] }},
	}
	sizes := []struct {
		name string
		n    int
	}{{"41B", 41}, {"290B", 290}, {"5.7KB", 5700}}
	for _, h := range hashes {
		for _, size := range sizes {
			b.Run(h.name+"/"+size.name, func(b *testing.B) {
				buf := make([]byte, size.n)
				b.SetBytes(int64(size.n))
				b.ReportAllocs()
				var sink byte
				for i := 0; i < b.N; i++ {
					sink ^= h.sum(buf)
				}
				buf[0] = sink
			})
		}
	}
}

// BenchmarkContentLoad is what every deployment does before it serves:
// build the 20 000-entry catalogue content replbench starts from (20 000
// Puts of new keys, each one B-tree descent and one entry hash).
func BenchmarkContentLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := workload.BuildContent(20000, 20); s.Len() != 20020 {
			b.Fatalf("content holds %d keys", s.Len())
		}
	}
}

func BenchmarkWireCodec(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wire.NewWriter(128)
		w.Uvarint(uint64(i))
		w.String_("catalog/00042")
		w.Bytes_([]byte("payload bytes here"))
		w.Time(time.Unix(int64(i), 0))
		r := wire.NewReader(w.Bytes())
		r.Uvarint()
		_ = r.String()
		_ = r.Bytes()
		r.Time()
		if r.Done() != nil {
			b.Fatal("codec round trip failed")
		}
	}
}
