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
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/harness"
	"repro/internal/merkle"
	"repro/internal/query"
	"repro/internal/sim"
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

// batchUpdate builds the s.updatebatch contents an honest master sends
// for n catalogue puts committed at first, first+1, ….
func batchUpdate(master *cryptoutil.KeyPair, first uint64, n int) core.BatchUpdate {
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = store.EncodeOp(store.Put{Key: workload.CatalogKey(i), Value: []byte("value")})
	}
	stamp := core.SignBatchStamp(master, first+uint64(n)-1, time.Unix(0, 0).UTC(), core.BatchTree(first, ops).Root())
	return core.BatchUpdate{First: first, Ops: ops, Stamp: stamp, MasterAddr: "master"}
}

// BenchmarkBatchUpdateVerify measures the slave-side check of one batched
// commit: one signature verification plus the rebuild of the batch's
// merkle root (uncached, into fresh scratch — the ledger's
// core.batchupdate_verify256_us times the same call).
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

// BenchmarkSlaveUpdateBatch256 measures one 256-op update at the slave,
// frame in to acknowledgement out: decode, stamp verification, root
// rebuild into the retained scratch, op decode and apply. Every iteration
// delivers the next 256 versions, so nothing is a duplicate and the stamp
// cache never hits.
func BenchmarkSlaveUpdateBatch256(b *testing.B) {
	const n = 256
	master := cryptoutil.DeriveKeyPair("master", 0)
	sl := core.NewSlave(core.SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: core.DefaultParams(),
		MasterAddr: "master", MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, sim.RealClock{}, nil, store.New()) // in-order delivery: the dialer (sync) is never used
	frames := make([][]byte, b.N)
	for i := range frames {
		frames[i] = core.EncodeBatchUpdate(batchUpdate(master, 1+uint64(i)*n, n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, frame := range frames {
		if _, err := sl.Handle("master", core.MethodUpdateBatch, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := sl.Version(); got != uint64(b.N)*n {
		b.Fatalf("slave at version %d after %d batches", got, b.N)
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

func BenchmarkMerkleProve(b *testing.B) {
	content := workload.BuildContent(4096, 0)
	tree := baseline.BuildTree(content)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Prove(i % tree.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleVerify(b *testing.B) {
	content := workload.BuildContent(4096, 0)
	tree := baseline.BuildTree(content)
	proof, _ := tree.Prove(1234)
	entry, _ := tree.Entry(1234)
	root := tree.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := merkle.Verify(root, entry, proof); err != nil {
			b.Fatal(err)
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
