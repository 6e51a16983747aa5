package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/merkle"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The ledger times public functions of the leaf packages on inputs
// shaped like the workloads' (a catalog Get, a 256-op batch, the 20000-
// key content). Multiplied by the traced run's per-op counts these unit
// costs give each leaf's share of cpu_us_per_op.

const ledgerBatches = 10

// ledgerItem is one unit cost: iters calls are timed per batch and the
// median over ledgerBatches batches is reported.
type ledgerItem struct {
	name  string
	unit  string // "us", "ms" or "ns" per call
	iters int
	prep  func(env *ledgerEnv) (call func(), err error)
}

type ledgerResult struct {
	median, q1, q3 float64
}

// ledgerSink keeps results alive so the compiler cannot drop the calls.
var ledgerSink int

type ledgerEnv struct {
	workDir string
	content *store.Store
	keys    []string // every catalog key, preformatted
	master  *cryptoutil.KeyPair
	slave   *cryptoutil.KeyPair
	client  *cryptoutil.KeyPair
	trusted []cryptoutil.PublicKey

	msg      []byte // a stamp-sized message
	kilobyte []byte
	pledge   core.Pledge
	reply    core.ReadReply
	write    core.WriteRequest
	opBytes  [][]byte // one 256-op batch
	leaves   []merkle.Entry
	tree     *merkle.Tree
	batch    core.BatchUpdate

	logs []*wal.Log // closed when the ledger ends
}

func newLedgerEnv(workDir string) (*ledgerEnv, error) {
	e := &ledgerEnv{
		workDir: workDir,
		content: workload.BuildContent(nCatalog, nDocs),
		master:  cryptoutil.DeriveKeyPair("master", 0),
		slave:   cryptoutil.DeriveKeyPair("slave", 0),
		client:  cryptoutil.DeriveKeyPair("client", 0),
	}
	e.trusted = []cryptoutil.PublicKey{e.master.Public}
	for i := 0; i < nCatalog; i++ {
		e.keys = append(e.keys, workload.CatalogKey(i))
	}
	e.msg = make([]byte, 150)
	e.kilobyte = make([]byte, 1024)

	version := e.content.Version()
	stamp := core.SignStamp(e.master, version, time.Now())
	qb := query.Encode(query.Get{Key: e.keys[7]})
	res, err := query.Get{Key: e.keys[7]}.Execute(e.content)
	if err != nil {
		return nil, err
	}
	e.pledge = core.SignPledge(e.slave, qb, res.Digest(), stamp)
	e.reply = core.ReadReply{Payload: res.Payload, Pledge: e.pledge}
	e.write = core.SignWrite(e.client, store.Put{Key: e.keys[7], Value: []byte("12345")})

	first := version + 1
	for i := 0; i < batchSize; i++ {
		e.opBytes = append(e.opBytes, store.EncodeOp(store.Put{Key: e.keys[i*7], Value: []byte("12345")}))
	}
	e.leaves = core.AppendBatchLeaves(nil, first, e.opBytes)
	e.tree = core.BatchTree(first, e.opBytes)
	proofs := make([]merkle.Proof, batchSize)
	for i := range proofs {
		if proofs[i], err = e.tree.Prove(i); err != nil {
			return nil, err
		}
	}
	e.batch = core.BatchUpdate{
		First: first, Ops: e.opBytes, Proofs: proofs,
		Stamp: core.SignBatchStamp(e.master, first+batchSize-1, time.Now(), e.tree.Root()),
	}
	return e, nil
}

func (e *ledgerEnv) runQuery(q query.Query) func() {
	return func() {
		res, err := q.Execute(e.content)
		if err != nil {
			panic(err) // the ledger's own fixed inputs cannot fail to execute
		}
		ledgerSink += len(res.Payload)
	}
}

var ledgerItems = []ledgerItem{
	{"cryptoutil.sign_us", "us", 600, func(e *ledgerEnv) (func(), error) {
		return func() { ledgerSink += len(e.master.Sign(e.msg)) }, nil
	}},
	{"cryptoutil.verify_us", "us", 300, func(e *ledgerEnv) (func(), error) {
		sig := e.master.Sign(e.msg)
		return func() {
			if cryptoutil.Verify(e.master.Public, e.msg, sig) != nil {
				ledgerSink++
			}
		}, nil
	}},
	{"cryptoutil.sha1_1k_us", "us", 8000, func(e *ledgerEnv) (func(), error) {
		return func() { d := cryptoutil.HashBytes(e.kilobyte); ledgerSink += int(d[0]) }, nil
	}},
	{"core.pledge_sign_us", "us", 500, func(e *ledgerEnv) (func(), error) {
		p := e.pledge
		return func() {
			ledgerSink += len(core.SignPledge(e.slave, p.QueryBytes, p.ResultHash, p.Stamp).Sig)
		}, nil
	}},
	{"core.pledge_verify_us", "us", 250, func(e *ledgerEnv) (func(), error) {
		return func() {
			if e.pledge.VerifySig() != nil {
				ledgerSink++
			}
		}, nil
	}},
	{"core.write_sign_us", "us", 500, func(e *ledgerEnv) (func(), error) {
		op := store.Put{Key: e.keys[7], Value: []byte("12345")}
		return func() { ledgerSink += len(core.SignWrite(e.client, op).Sig) }, nil
	}},
	{"core.write_verify_us", "us", 250, func(e *ledgerEnv) (func(), error) {
		return func() {
			if e.write.VerifySig() != nil {
				ledgerSink++
			}
		}, nil
	}},
	{"core.batchupdate_verify256_us", "us", 15, func(e *ledgerEnv) (func(), error) {
		return func() {
			if e.batch.Verify(e.trusted) != nil {
				ledgerSink++
			}
		}, nil
	}},
	{"merkle.rebuild256_us", "us", 100, func(e *ledgerEnv) (func(), error) {
		var t merkle.Tree
		return func() { ledgerSink += t.Rebuild(e.leaves).Len() }, nil
	}},
	{"merkle.prove_us", "us", 50000, func(e *ledgerEnv) (func(), error) {
		buf := make([]merkle.ProofStep, 0, 16)
		i := 0
		return func() {
			p, _ := e.tree.ProveInto(i%batchSize, buf) // index is in range by construction
			ledgerSink += len(p.Steps)
			i++
		}, nil
	}},
	{"merkle.verify_us", "us", 8000, func(e *ledgerEnv) (func(), error) {
		root := e.tree.Root()
		i := 0
		return func() {
			k := i % batchSize
			if merkle.Verify(root, e.leaves[k], e.batch.Proofs[k]) != nil {
				ledgerSink++
			}
			i++
		}, nil
	}},
	{"store.apply_put_us", "us", 10000, func(e *ledgerEnv) (func(), error) {
		s := e.content.Clone()
		val := []byte("12345")
		i := 0
		return func() {
			if s.Apply(store.Put{Key: e.keys[(i*7919)%nCatalog], Value: val}) != nil {
				ledgerSink++
			}
			i++
		}, nil
	}},
	{"store.get_us", "us", 50000, func(e *ledgerEnv) (func(), error) {
		i := 0
		return func() {
			v, _ := e.content.Get(e.keys[(i*7919)%nCatalog])
			ledgerSink += len(v)
			i++
		}, nil
	}},
	{"store.clone20k_ms", "ms", 8, func(e *ledgerEnv) (func(), error) {
		return func() { ledgerSink += e.content.Clone().Len() }, nil
	}},
	{"query.get_us", "us", 30000, func(e *ledgerEnv) (func(), error) {
		return e.runQuery(query.Get{Key: e.keys[7]}), nil
	}},
	{"query.range10_us", "us", 8000, func(e *ledgerEnv) (func(), error) {
		return e.runQuery(query.Range{From: e.keys[5000], To: e.keys[5010], Limit: 10}), nil
	}},
	{"query.count20k_us", "us", 80, func(e *ledgerEnv) (func(), error) {
		return e.runQuery(query.Count{P: "catalog/"}), nil
	}},
	{"query.grep_us", "us", 3000, func(e *ledgerEnv) (func(), error) {
		return e.runQuery(query.Grep{Pattern: "active", PathPrefix: "docs/"}), nil
	}},
	{"wire.readreply_codec_ns", "ns", 30000, func(e *ledgerEnv) (func(), error) {
		return func() {
			rr, err := core.DecodeReadReply(core.EncodeReadReply(e.reply))
			if err != nil {
				ledgerSink++
			}
			ledgerSink += len(rr.Payload)
		}, nil
	}},
	{"wire.writereq_codec_ns", "ns", 50000, func(e *ledgerEnv) (func(), error) {
		return func() {
			wr, err := core.DecodeWriteRequest(wire.NewReader(wire.EncodeFrame(e.write.Encode)))
			if err != nil {
				ledgerSink++
			}
			ledgerSink += len(wr.Sig)
		}, nil
	}},
	// One committed 256-op batch as the master logs it: ops plus the
	// batch stamp in one record, then fsync before the ack.
	{"wal.append256_sync_us", "us", 10, func(e *ledgerEnv) (func(), error) {
		rec := wire.EncodeFrame(func(w *wire.Writer) {
			w.Uvarint(1)
			w.Uvarint(e.batch.First)
			w.BytesSlice(e.opBytes)
			e.batch.Stamp.Encode(w)
		})
		return e.walCall("ledger-wal-batch", rec)
	}},
	// The floor of a durable write on this file system: a 16-byte record.
	{"wal.sync_us", "us", 10, func(e *ledgerEnv) (func(), error) {
		return e.walCall("ledger-wal-min", make([]byte, 16))
	}},
}

func (e *ledgerEnv) walCall(name string, rec []byte) (func(), error) {
	l, _, err := wal.Open(filepath.Join(e.workDir, name))
	if err != nil {
		return nil, err
	}
	e.logs = append(e.logs, l)
	return func() {
		if l.Append(rec) != nil || l.Sync() != nil {
			ledgerSink++
		}
	}, nil
}

// runLedger times every item. scale < 1 shortens the batches (smoke
// tests); the default counts keep the whole phase to a few seconds.
func runLedger(workDir string, scale float64) (map[string]ledgerResult, error) {
	dir, err := os.MkdirTemp(workDir, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	runtime.GC() // the run's garbage is not the ledger's to collect
	env, err := newLedgerEnv(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, l := range env.logs {
			l.Close()
		}
	}()
	out := make(map[string]ledgerResult, len(ledgerItems))
	for _, it := range ledgerItems {
		call, err := it.prep(env)
		if err != nil {
			return nil, fmt.Errorf("ledger %s: %w", it.name, err)
		}
		iters := int(float64(it.iters) * scale)
		if iters < 1 {
			iters = 1
		}
		div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[it.unit]
		call() // first call pays one-time costs (page faults, lazy tables)
		per := make([]float64, ledgerBatches)
		for b := range per {
			begin := time.Now()
			for i := 0; i < iters; i++ {
				call()
			}
			per[b] = float64(time.Since(begin)) / float64(iters) / div
		}
		q1, q3 := quartiles(per)
		out[it.name] = ledgerResult{median: median(per), q1: q1, q3: q3}
	}
	return out, nil
}
