package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// wavePeriod is the open-loop writers' schedule. It exceeds maxLatency,
// so the §3.1 pacing rule (one commit per max_latency) never delays a
// wave: master.pacing_waits > 0 would mean the generator, not the
// system, is late.
const wavePeriod = 300 * time.Millisecond

// workloadSpec is one named traffic mix over the fixed deployment.
type workloadSpec struct {
	name string
	why  string
	// reads makes clients 0 and 1 each run a closed read loop. Never one
	// reader alone: two keep both processors of the build machine busy,
	// and a processor that idles is woken by the hypervisor, whose wake-up
	// latency (not the program's) then sets the read latency. With one
	// reader the lower quartile of the read latency sat at 0.13 ms or at
	// 0.19 ms for whole runs, by the host's mood.
	reads bool
	mix   workload.Mix
	zipf  bool // reader key popularity: Zipf(1.1) or uniform
	// waveSize > 0 makes the writer client send one WriteMulti wave of
	// that many ops every wavePeriod.
	waveSize int
}

func (w *workloadSpec) readOnly() bool { return w.waveSize == 0 }

func (w *workloadSpec) readers() []int {
	if w.reads {
		return []int{0, 1}
	}
	return nil
}

var workloads = []workloadSpec{
	{
		name:  "read-point",
		why:   "closed loop, 2 clients, Zipf point reads, no writes: the paper's common case; rpc + pledge sign/verify dominate, every cache is hot",
		reads: true, mix: workload.StaticOnly(), zipf: true,
	},
	{
		name:  "read-scan",
		why:   "closed loop, 2 clients, range/count/sum/grep over 20000 keys, no writes: query + store iteration + auditor re-execution carry the cost",
		reads: true, mix: workload.ScanHeavy(),
	},
	{
		name:     "write-waves",
		why:      "open loop, one 256-write wave per 300 ms, no reads: client signing, admission, merkle, broadcast to 3 members, WAL fsync, slave proof checks",
		waveSize: 256,
	},
	{
		name:  "mixed",
		why:   "closed loop, 2 clients, uniform point reads beside 64-write waves: commits invalidate auditor and stamp caches and use the timer-flush path while reads run",
		reads: true, mix: workload.StaticOnly(), waveSize: 64,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The seed feeds only these generators: key draws, mix draws and write
// values. Node seeds and keys are fixed by the deployment.
func (w *workloadSpec) readGen(seed int64, client int) *workload.Gen {
	rng := rand.New(rand.NewSource(seed*16 + int64(client)))
	var keys workload.KeyDist
	if w.zipf {
		keys = workload.NewKeys(rng, nCatalog)
	} else {
		keys = workload.NewUniformKeys(rng, nCatalog)
	}
	return workload.NewGenKeys(rng, keys, w.mix, nCatalog, nDocs)
}

func (w *workloadSpec) writeGen(seed int64) *workload.Gen {
	return workload.NewGen(rand.New(rand.NewSource(seed*16+8)), workload.StaticOnly(), nCatalog, nDocs)
}

// opStream renders the first n generated operations of the workload for
// a seed, one string per operation, in a fixed interleaving. The seed
// test compares streams; nothing else uses it.
func (w *workloadSpec) opStream(seed int64, n int) []string {
	var gens []*workload.Gen
	for _, c := range w.readers() {
		gens = append(gens, w.readGen(seed, c))
	}
	var wg *workload.Gen
	if w.waveSize > 0 {
		wg = w.writeGen(seed)
	}
	out := make([]string, 0, n)
	for seq := 0; len(out) < n; seq++ {
		for _, g := range gens {
			out = append(out, g.Next().String())
		}
		if wg != nil {
			op := wg.NextWrite(seq).(store.Put)
			out = append(out, fmt.Sprintf("put(%s=%s)", op.Key, op.Value))
		}
	}
	return out[:n]
}

// readSample is one finished Client.Read.
type readSample struct {
	start, end int64 // recorder time, ns
	ok         bool
}

// oracleSample is an accepted read kept for re-execution after the run.
type oracleSample struct {
	q       query.Query
	payload []byte
}

// reader drives one client in a closed loop: the next read is issued
// only when the previous one has returned.
type reader struct {
	client  *core.Client
	dial    *countingDialer
	gen     *workload.Gen
	opBase  uint64
	samples []readSample
	oracle  []oracleSample
	keep    bool // keep one accepted read in 64 for the oracle check
}

func (r *reader) run(rec *recorder, stopAt int64) {
	var n, accepted uint64
	for rec.now() < stopAt {
		q := r.gen.Next()
		n++
		root := r.dial.beginOp(opRead, r.opBase+n)
		start := rec.now()
		payload, err := r.client.Read(q)
		end := rec.now()
		r.dial.endOp(root, err != nil)
		r.samples = append(r.samples, readSample{start: start, end: end, ok: err == nil})
		if err == nil {
			accepted++
			if r.keep && accepted%64 == 0 {
				r.oracle = append(r.oracle, oracleSample{q: q, payload: payload})
			}
		}
	}
}

// waveSample is one WriteMulti wave of the open loop. Latency counts
// from due, the time the schedule wanted the wave sent, so a stall that
// delays later waves is charged to them.
type waveSample struct {
	due, sent, end int64
	ops            int
	versions       []uint64 // nil when the call failed outright
	err            error
}

func (w *waveSample) committed() int {
	n := 0
	for _, v := range w.versions {
		if v != 0 {
			n++
		}
	}
	return n
}

// writeOpBase starts the operation ids of write waves; read ids, which
// are (client+1)<<32 plus a counter, stay below it.
const writeOpBase = 1 << 40

// writer drives the writer client in an open loop.
type writer struct {
	client *core.Client
	dial   *countingDialer
	gen    *workload.Gen
	size   int
	waves  []waveSample
}

func (w *writer) run(rec *recorder, startAt, stopAt int64) {
	seq := 0
	for k := int64(0); ; k++ {
		due := startAt + k*int64(wavePeriod)
		if due >= stopAt {
			return
		}
		ops := make([]store.Op, w.size)
		for i := range ops {
			ops[i] = w.gen.NextWrite(seq)
			seq++
		}
		if d := due - rec.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		root := w.dial.beginOp(opWriteMulti, writeOpBase+uint64(k))
		sent := rec.now()
		versions, err := w.client.WriteMulti(ops)
		end := rec.now()
		w.dial.endOp(root, err != nil)
		w.waves = append(w.waves, waveSample{due: due, sent: sent, end: end, ops: len(ops), versions: versions, err: err})
	}
}
