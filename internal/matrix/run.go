// The per-cell runner: builds a scenario for the cell, drives Poisson
// client traffic while the fault plan fires, quiesces, and checks the
// converged-digest / no-lost-no-duplicated-write ground truth.
package matrix

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// clientRate is each simulated client's offered load (ops/sec); the
// cell's total offered rate is Clients * clientRate split by writeFrac.
const clientRate = 4.0

// poolSize caps the real client objects; beyond it, simulated clients
// multiplex over the pool (clients are safe for concurrent sim tasks).
const poolSize = 8

// defaultCellDuration is the traffic window when Cell.Duration is 0.
const defaultCellDuration = 2500 * time.Millisecond

// drainLimit bounds how long a cell waits, past its settle point, for its
// clients' last operations to return.
const drainLimit = 30 * time.Second

func writeFrac(mix string) float64 {
	switch mix {
	case MixWriteHeavy:
		return 0.5
	default: // read-mostly, scan
		return 0.1
	}
}

func readMix(mix string) workload.Mix {
	switch mix {
	case MixReadMostly:
		return workload.ReadMostly()
	case MixScan:
		return workload.ScanHeavy()
	default: // write-heavy keeps its reads cheap
		return workload.StaticOnly()
	}
}

func keyDist(dist string, rng *rand.Rand, n int) workload.KeyDist {
	if dist == DistUniform {
		return workload.NewUniformKeys(rng, n)
	}
	return workload.NewKeys(rng, n)
}

// cellConfig is the fixed deployment shape every cell runs on: modern
// crypto costs, a 100ms write round, fast keep-alives, adaptive
// batching, and checkpointing aggressive enough that every cell
// exercises truncation.
func cellConfig(cell Cell, seed int64, dataDir string) harness.ScenarioConfig {
	cfg := harness.DefaultScenario()
	cfg.Seed = seed
	cfg.Shards = cell.Shards
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 2
	cfg.Params.Costs = cryptoutil.ModernCosts()
	cfg.Params.MaxLatency = 100 * time.Millisecond
	cfg.Params.KeepAliveEvery = 25 * time.Millisecond
	cfg.Params.AuditorSlack = 50 * time.Millisecond
	cfg.Params.ReadTimeout = 2 * time.Second
	cfg.Latency = sim.Const(2 * time.Millisecond)
	cfg.CatalogSize = 96
	cfg.DocCount = 8
	cfg.BatchSize = 16
	cfg.BatchTimeout = 20 * time.Millisecond
	cfg.BatchAdaptive = true
	cfg.CheckpointEvery = 150 * time.Millisecond
	if readLiar(cell.Fault) >= 0 {
		// Only the auditor may catch the liar: a client's double-check
		// would convict it through the master and hide a broken audit.
		cfg.Params.DoubleCheckP = 0
	}
	if crashCell(cell.Fault) {
		// The killed master needs a surviving peer and durable state so
		// its restart replays the WAL instead of reprovisioning.
		cfg.NMasters = 2
		if dataDir != "" {
			cfg.DataDir = filepath.Join(dataDir, strings.ReplaceAll(cell.Label(), "/", "_"))
		}
	}
	return cfg
}

// RunCell executes one cell and returns its Result. dataDir, when
// non-empty, must be a fresh directory per run (crash cells persist
// WALs under it; reusing one would replay a previous run's state).
func RunCell(cell Cell, seed int64, dataDir string) (Result, error) {
	if err := cell.Validate(); err != nil {
		return Result{}, err
	}
	dur := cell.Duration
	if dur <= 0 {
		dur = defaultCellDuration
	}
	plan, err := PlanFor(cell.Fault, dur)
	if err != nil {
		return Result{}, err
	}

	cfg := cellConfig(cell, seed, dataDir)
	sc := harness.NewScenario(cfg)

	pool := make([]*core.Client, 0, poolSize)
	n := cell.Clients
	if n > poolSize {
		n = poolSize
	}
	for i := 0; i < n; i++ {
		// Each group's master 0 is never a kill target, so writes stay
		// routable through the crash window.
		pool = append(pool, sc.AddClient(func(c *core.ClientConfig) {
			c.PreferredMaster = 0
		}))
	}

	res := Result{Cell: cell}
	writeH := &metrics.Histogram{}
	readH := &metrics.Histogram{}
	perGroup := make([][]uint64, len(sc.Groups))
	var firstCommit, lastCommit time.Time
	var run *harness.FaultRun
	var runErr error

	sc.S.Go(func() {
		if sc.S.Sleep(sc.Warmup()) != nil {
			return
		}
		for _, p := range pool {
			if err := p.Setup(); err != nil {
				runErr = fmt.Errorf("cell %s: client setup: %w", cell.Label(), err)
				sc.S.Stop()
				return
			}
		}
		run = sc.StartFaults(plan)
		start := sc.S.Now()
		end := start.Add(dur)

		clients := sim.NewGroup(sc.S)
		for c := 0; c < cell.Clients; c++ {
			c := c
			clients.Go(func() {
				rng := rand.New(rand.NewSource(seed*100003 + int64(c)*31 + 7))
				keys := keyDist(cell.Dist, rng, cfg.CatalogSize)
				gen := workload.NewGenKeys(rng, keys, readMix(cell.Mix), cfg.CatalogSize, cfg.DocCount)
				arrivals := workload.Poisson{Rate: clientRate, Rng: rng}
				cl := pool[c%len(pool)]
				wf := writeFrac(cell.Mix)
				seq := 0
				for {
					now := sc.S.Now()
					if !now.Before(end) {
						return
					}
					if sc.S.Sleep(arrivals.NextGap(now.Sub(start))) != nil {
						return
					}
					if !sc.S.Now().Before(end) {
						return
					}
					if rng.Float64() < wf {
						op := gen.NextWrite(seq*cell.Clients + c)
						seq++
						t0 := sc.S.Now()
						v, err := cl.Write(op)
						if err != nil {
							res.FailedWrites++
							continue
						}
						writeH.Add(sc.S.Now().Sub(t0))
						g := int(sc.Table.ShardFor(store.KeyOf(op)).ID)
						perGroup[g] = append(perGroup[g], v)
						res.Committed++
						if firstCommit.IsZero() {
							firstCommit = t0
						}
						lastCommit = sc.S.Now()
					} else {
						var q query.Query
						if cell.Shards > 1 { // only point reads route across ranges
							q = query.Get{Key: workload.CatalogKey(keys.Next())}
						} else {
							q = gen.Next()
						}
						t0 := sc.S.Now()
						if _, err := cl.Read(q); err != nil {
							res.ReadsFailed++
						} else {
							res.Reads++
							readH.Add(sc.S.Now().Sub(t0))
						}
					}
				}
			})
		}

		// Quiesce: wait out the traffic window plus a read timeout, and
		// then until every client has returned from its last operation,
		// so a write still queued at the window's end is counted as what
		// it becomes; drainLimit ends a cell whose write is stuck. Then
		// poll for digest convergence — keep-alives and snapshot syncs do
		// the healing.
		drained := sc.S.NewPromise()
		sc.S.Spawn(func() {
			clients.Wait()
			drained.Resolve(nil)
		})
		settle := dur + cfg.Params.ReadTimeout + 500*time.Millisecond
		if sc.S.Sleep(settle) != nil {
			return
		}
		if _, err := drained.Future().AwaitTimeout(drainLimit); err == sim.ErrStopped {
			return
		}
		for i := 0; i < 40; i++ {
			res.Divergent = sc.DivergentReplicas()
			if res.Divergent == 0 {
				res.Converged = true
				break
			}
			if sc.S.Sleep(100*time.Millisecond) != nil {
				return
			}
		}
		sc.S.Stop()
	})
	sc.Run(12 * time.Hour)

	if runErr != nil {
		return Result{}, runErr
	}
	if run != nil {
		res.FaultsFired = run.Fired
	}

	// The ledger check: within each group, every acknowledged commit
	// version must be unique (no duplicated writes) and present in the
	// final history, i.e. not above the group's final version (no lost
	// writes — versions are dense, so an acked version beyond the final
	// one denotes a write that vanished).
	for g := range perGroup {
		var final uint64
		for _, mi := range sc.Groups[g].Masters {
			if v := sc.Masters[mi].Version(); v > final {
				final = v
			}
		}
		vs := perGroup[g]
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for i, v := range vs {
			if i > 0 && v == vs[i-1] {
				res.Duplicated++
			}
			if v > final {
				res.Lost++
			}
		}
	}

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if writeH.Count() > 0 {
		res.WriteP50ms = ms(writeH.Quantile(0.5))
		res.WriteP99ms = ms(writeH.Quantile(0.99))
	}
	if readH.Count() > 0 {
		res.ReadP50ms = ms(readH.Quantile(0.5))
		res.ReadP99ms = ms(readH.Quantile(0.99))
	}
	if span := lastCommit.Sub(firstCommit); res.Committed > 1 && span > 0 {
		res.WritesPerSec = float64(res.Committed-1) / span.Seconds()
	}
	res.MasterWritesApplied = sc.TotalMasterStats().WritesApplied

	liar := readLiar(cell.Fault)
	for si, sl := range sc.Slaves {
		switch excluded := sc.Dir.IsExcluded(sc.Owner.Public, sl.PublicKey()); {
		case si == liar && !excluded:
			res.LiarsAtLarge++
		case si != liar && excluded:
			res.HonestExcluded++
		}
	}
	for _, aud := range sc.Auditors {
		res.AuditReports += aud.Stats().ReportsSent
	}
	return res, nil
}

// RunGrid executes every cell in order with per-cell derived seeds and
// returns the results. progress, when non-nil, is called after each
// cell (for replsim's live output).
func RunGrid(cells []Cell, seed int64, dataDir string, progress func(Result, error)) ([]Result, error) {
	results := make([]Result, 0, len(cells))
	for i, cell := range cells {
		r, err := RunCell(cell, seed+int64(i), dataDir)
		if progress != nil {
			progress(r, err)
		}
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}
