package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestE19ShardScalingAcceptance asserts the PR's acceptance criterion on
// the E19 measurement itself: partitioning the keyspace across 4 groups
// must lift aggregate committed-write throughput at least 2.5x over one
// group (the pacing bound is per group, so the expectation is ~4x).
func TestE19ShardScalingAcceptance(t *testing.T) {
	dur := 2 * time.Second
	one := runE19(3, dur, 1)
	four := runE19(3, dur, 4)
	if one.tput <= 0 || four.tput <= 0 {
		t.Fatalf("no throughput measured: 1-shard %.0f/s, 4-shard %.0f/s", one.tput, four.tput)
	}
	if four.tput < 2.5*one.tput {
		t.Fatalf("4 shards = %.0f/s, want >= 2.5x the 1-shard %.0f/s", four.tput, one.tput)
	}
	// Writers draw keys from their own shard's range, so a fresh table
	// routes every wave correctly on the first try.
	if four.cs.Redirects != 0 || four.ms.WrongShardRejects != 0 {
		t.Fatalf("fresh-table run saw redirects=%d rejects=%d, want 0/0",
			four.cs.Redirects, four.ms.WrongShardRejects)
	}
}

// TestWrongShardRedirectStormConverges is the stale-mapping storm: two
// clients cache a poisoned table that routes EVERY key to the wrong group
// (the real ranges with the group ids swapped). The masters reject each
// misrouted write before admitting anything, the clients re-read the
// authoritative table from the directory on the rejection, and every
// write lands exactly once in its true group — nothing lost, nothing
// duplicated.
func TestWrongShardRedirectStormConverges(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Seed = 7
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.Shards = 2
	cfg.CatalogSize = 40
	cfg.DocCount = 2
	cfg.Params.MaxLatency = 10 * time.Millisecond
	sc := NewScenario(cfg)

	// Epoch 2: the poisoned mapping. Same ranges, ids swapped, properly
	// owner-signed — a stale-but-authentic table, not a forgery.
	wrong := pki.ShardTable{Epoch: 2}
	n := len(sc.Table.Shards)
	for i, s := range sc.Table.Shards {
		s.ID = sc.Table.Shards[n-1-i].ID
		wrong.Shards = append(wrong.Shards, s)
	}
	wrong.Sign(sc.Owner)
	if err := sc.Dir.PublishShardTable(sc.Owner.Public, wrong); err != nil {
		t.Fatal(err)
	}

	clients := []*core.Client{sc.AddClient(nil), sc.AddClient(nil)}
	const writes = 20
	var runErr error
	versions := make([]uint64, writes)
	sc.S.Go(func() {
		defer sc.S.Stop()
		sc.S.Sleep(sc.Warmup())
		for _, c := range clients {
			if err := c.Setup(); err != nil {
				runErr = err
				return
			}
		}
		// Both clients now hold epoch 2. The authoritative epoch-3 table
		// (the ranges the masters actually enforce) supersedes it in the
		// directory; the clients only learn via wrong-shard rejections.
		fixed := pki.ShardTable{Epoch: 3, Shards: append([]wire.ShardRef(nil), sc.Table.Shards...)}
		fixed.Sign(sc.Owner)
		if err := sc.Dir.PublishShardTable(sc.Owner.Public, fixed); err != nil {
			runErr = err
			return
		}
		for i := 0; i < writes; i++ {
			c := clients[i%len(clients)]
			v, err := c.Write(store.Put{Key: workload.CatalogKey(i * 2), Value: []byte{byte(i)}})
			if err != nil {
				runErr = fmt.Errorf("write %d: %w", i, err)
				return
			}
			versions[i] = v
		}
	})
	sc.Run(time.Minute)
	if runErr != nil {
		t.Fatal(runErr)
	}
	for i, v := range versions {
		if v == 0 {
			t.Fatalf("write %d did not commit", i)
		}
	}

	var redirects uint64
	for _, c := range clients {
		redirects += c.Stats().Redirects
	}
	if redirects == 0 {
		t.Fatal("stale mapping produced no redirects — the poisoned table was never used")
	}
	ms := sc.TotalMasterStats()
	if ms.WrongShardRejects == 0 {
		t.Fatal("no master rejected a misrouted write")
	}
	// Exactly once per write, in the true group: keys 0..38 even, so 10
	// writes below the split and 10 above.
	for g, want := range []uint64{10, 10} {
		got := sc.Masters[sc.Groups[g].Masters[0]].Stats().WritesApplied
		if got != want {
			t.Fatalf("group %d applied %d writes, want %d (lost or duplicated)", g, got, want)
		}
	}
}

// TestEpochBumpMidWaveConverges is the rebalance-adjacent race: writers
// are mid-wave when the directory publishes a poisoned epoch bump (the
// real ranges with the group ids swapped) that the clients adopt by
// forced re-resolution, followed by the corrected epoch. Writes issued
// across all three routing regimes — pre-bump, poisoned, corrected —
// must each land exactly once in their true group: redirects observed,
// masters rejecting every misroute, zero lost, zero duplicated.
func TestEpochBumpMidWaveConverges(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Seed = 13
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.Shards = 2
	cfg.CatalogSize = 40
	cfg.DocCount = 2
	cfg.Params.MaxLatency = 10 * time.Millisecond
	sc := NewScenario(cfg)

	clients := []*core.Client{sc.AddClient(nil), sc.AddClient(nil)}
	const writesPerClient = 30
	type commit struct {
		group   int
		version uint64
	}
	var commits []commit
	var runErr error
	writersDone := 0
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		for _, c := range clients {
			if err := c.Setup(); err != nil {
				runErr = err
				sc.S.Stop()
				return
			}
		}
		for w := range clients {
			w := w
			cl := clients[w]
			sc.S.Spawn(func() {
				defer func() { writersDone++ }()
				for i := 0; i < writesPerClient; i++ {
					k := (w*17 + i*3) % cfg.CatalogSize
					op := store.Put{Key: workload.CatalogKey(k), Value: []byte{byte(w), byte(i)}}
					v, err := cl.Write(op)
					if err != nil {
						runErr = fmt.Errorf("writer %d write %d: %w", w, i, err)
						return
					}
					g := int(sc.Table.ShardFor(workload.CatalogKey(k)).ID)
					commits = append(commits, commit{g, v})
					if sc.S.Sleep(5*time.Millisecond) != nil {
						return
					}
				}
			})
		}

		// Mid-wave: the poisoned epoch lands and both clients are forced
		// to re-resolve it while their writes are in flight.
		sc.S.Sleep(60 * time.Millisecond)
		wrong := pki.ShardTable{Epoch: 2}
		n := len(sc.Table.Shards)
		for i, s := range sc.Table.Shards {
			s.ID = sc.Table.Shards[n-1-i].ID
			wrong.Shards = append(wrong.Shards, s)
		}
		wrong.Sign(sc.Owner)
		if err := sc.Dir.PublishShardTable(sc.Owner.Public, wrong); err != nil {
			runErr = err
			sc.S.Stop()
			return
		}
		for _, c := range clients {
			if err := c.Setup(); err != nil { // adopts the poisoned epoch
				runErr = err
				sc.S.Stop()
				return
			}
		}
		// The correction supersedes it; clients only learn through the
		// wrong-shard rejections their poisoned routes now earn.
		fixed := pki.ShardTable{Epoch: 3, Shards: append([]wire.ShardRef(nil), sc.Table.Shards...)}
		fixed.Sign(sc.Owner)
		if err := sc.Dir.PublishShardTable(sc.Owner.Public, fixed); err != nil {
			runErr = err
			sc.S.Stop()
			return
		}

		for writersDone < len(clients) {
			sc.S.Sleep(10 * time.Millisecond)
		}
		sc.S.Sleep(500 * time.Millisecond) // let replication settle
		sc.S.Stop()
	})
	sc.Run(time.Minute)
	if runErr != nil {
		t.Fatal(runErr)
	}

	if len(commits) != len(clients)*writesPerClient {
		t.Fatalf("committed %d writes, want %d", len(commits), len(clients)*writesPerClient)
	}
	var redirects uint64
	for _, c := range clients {
		redirects += c.Stats().Redirects
	}
	if redirects == 0 {
		t.Fatal("poisoned epoch produced no redirects — the bump never raced the wave")
	}
	if ms := sc.TotalMasterStats(); ms.WrongShardRejects == 0 {
		t.Fatal("no master rejected a misrouted write")
	}
	// Exactly once, in the true group: per group, acked versions must be
	// distinct and the group's applied-write counter must equal its
	// share of the ledger.
	perGroup := make([]map[uint64]bool, len(sc.Groups))
	for g := range perGroup {
		perGroup[g] = make(map[uint64]bool)
	}
	for _, c := range commits {
		if c.version == 0 {
			t.Fatal("acked write carries version 0")
		}
		if perGroup[c.group][c.version] {
			t.Fatalf("group %d version %d acked twice (duplicated write)", c.group, c.version)
		}
		perGroup[c.group][c.version] = true
	}
	for g := range perGroup {
		got := sc.Masters[sc.Groups[g].Masters[0]].Stats().WritesApplied
		if got != uint64(len(perGroup[g])) {
			t.Fatalf("group %d applied %d writes, ledger has %d (lost or duplicated)",
				g, got, len(perGroup[g]))
		}
	}
}

// TestShardedBatchSequentialDigestEquivalence is the per-shard batching
// property: the same write sequence pushed through a sharded deployment
// must leave every group's replica in the identical state whether its
// master commits op-at-a-time or in batched waves.
func TestShardedBatchSequentialDigestEquivalence(t *testing.T) {
	seq := shardDigestRun(t, 11, 1)
	bat := shardDigestRun(t, 11, 16)
	if len(seq) != len(bat) {
		t.Fatalf("group counts differ: %d vs %d", len(seq), len(bat))
	}
	for g := range seq {
		if !seq[g].Equal(bat[g]) {
			t.Fatalf("group %d: sequential and batched digests differ", g)
		}
	}
}

func shardDigestRun(t *testing.T, seed int64, batch int) []cryptoutil.Digest {
	t.Helper()
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.Shards = 2
	cfg.CatalogSize = 40
	cfg.DocCount = 2
	cfg.Params.MaxLatency = 10 * time.Millisecond
	cfg.BatchSize = batch
	cfg.BatchTimeout = 2 * time.Millisecond
	sc := NewScenario(cfg)
	cl := sc.AddClient(nil)

	var runErr error
	sc.S.Go(func() {
		defer sc.S.Stop()
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			runErr = err
			return
		}
		// Two overwrite rounds; each wave mixes keys from both shards so
		// WriteMulti exercises the per-group split every time.
		seq := 0
		for round := 0; round < 2; round++ {
			for base := 0; base < cfg.CatalogSize; base += 10 {
				ops := make([]store.Op, 10)
				for j := range ops {
					k := (base + j*7) % cfg.CatalogSize
					ops[j] = store.Put{
						Key:   workload.CatalogKey(k),
						Value: []byte{byte(round), byte(k), byte(seq)},
					}
					seq++
				}
				if _, err := cl.WriteMulti(ops); err != nil {
					runErr = err
					return
				}
			}
		}
		sc.S.Sleep(time.Second)
	})
	sc.Run(time.Minute)
	if runErr != nil {
		t.Fatal(runErr)
	}
	var digests []cryptoutil.Digest
	for _, g := range sc.Groups {
		digests = append(digests, sc.Masters[g.Masters[0]].StateDigest())
	}
	return digests
}
