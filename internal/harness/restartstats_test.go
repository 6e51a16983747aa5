package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// TestTotalMasterStatsSurvivesRestart is the aggregate-stats regression
// for crash-restart runs: RestartMaster must fold the killed instance's
// counters into the scenario totals (no dropped work) while the fresh
// instance recovers via WAL replay and recovery sync, which count as
// replay/recovery — never as applied writes (no double-counted work).
func TestTotalMasterStatsSurvivesRestart(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Seed = 41
	cfg.NMasters = 2
	cfg.SlavesPerMaster = 1
	cfg.CatalogSize = 40
	cfg.DocCount = 4
	cfg.Params.MaxLatency = 4 * time.Millisecond
	cfg.Params.KeepAliveEvery = 50 * time.Millisecond
	cfg.BatchSize = 8
	cfg.BatchTimeout = 2 * time.Millisecond
	cfg.DataDir = t.TempDir()
	sc := NewScenario(cfg)
	cl := sc.AddClient(func(c *core.ClientConfig) { c.PreferredMaster = 0 })

	const wavesPerPhase, waveSize = 10, 8
	waves := func() bool {
		for i := 0; i < wavesPerPhase; i++ {
			ops := make([]store.Op, waveSize)
			for j := range ops {
				ops[j] = store.Put{Key: string(rune('a' + j)), Value: []byte{byte(i)}}
			}
			if _, err := cl.WriteMulti(ops); err != nil {
				t.Errorf("wave %d: %v", i, err)
				return false
			}
		}
		return true
	}

	var preCrash core.MasterStats
	var caughtUp bool
	sc.S.Go(func() {
		defer sc.S.Stop()
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		if !waves() { // phase 1: both masters apply
			return
		}
		preCrash = sc.Masters[1].Stats()
		sc.KillMaster(1)
		if !waves() { // phase 2: master 1 down, work continues
			return
		}
		sc.RestartMaster(1)
		deadline := sc.S.Now().Add(30 * time.Second)
		for sc.Masters[1].Version() < sc.Masters[0].Version() && sc.S.Now().Before(deadline) {
			sc.S.Sleep(20 * time.Millisecond)
		}
		caughtUp = sc.Masters[1].Version() == sc.Masters[0].Version()
		if !caughtUp {
			return
		}
		if !waves() { // phase 3: both masters again
			return
		}
		sc.S.Sleep(500 * time.Millisecond)
	})
	sc.Run(time.Hour)
	if t.Failed() {
		return
	}
	if !caughtUp {
		t.Fatalf("restarted master stuck at %d, peer at %d",
			sc.Masters[1].Version(), sc.Masters[0].Version())
	}

	const total = 3 * wavesPerPhase * waveSize
	m0 := sc.Masters[0].Stats()
	m1 := sc.Masters[1].Stats()
	if m0.WritesApplied != total {
		t.Fatalf("master 0 applied %d writes, want %d", m0.WritesApplied, total)
	}
	// The killed instance's phase-1 work must be in the totals exactly
	// once: pre-crash counters survive in the retired accumulator, the
	// fresh instance re-earns nothing by WAL replay or recovery sync.
	ts := sc.TotalMasterStats()
	if want := m0.WritesApplied + preCrash.WritesApplied + m1.WritesApplied; ts.WritesApplied != want {
		t.Fatalf("total applied = %d, want %d (= live %d + retired %d + restarted %d)",
			ts.WritesApplied, want, m0.WritesApplied, preCrash.WritesApplied, m1.WritesApplied)
	}
	// The restarted instance re-applies the phase-2 gap it missed (a
	// first application by this instance) plus the live phase-3 writes —
	// but never the WAL-replayed phase-1 history, which it already
	// applied before the crash and re-earns only as WALReplayed.
	if want := uint64(2 * wavesPerPhase * waveSize); m1.WritesApplied != want {
		t.Fatalf("restarted master applied %d writes, want %d (phases 2+3, not the replayed phase 1)",
			m1.WritesApplied, want)
	}
	if m1.WALReplayed == 0 {
		t.Fatal("restart did not replay the WAL")
	}
	if ts.WALReplayed < m1.WALReplayed {
		t.Fatal("TotalMasterStats drops WALReplayed")
	}
}

// TestStatsSummersCarryEveryField fills every counter of MasterStats,
// SlaveStats and ClientStats with a distinct value through reflect and
// sums two such values with addCounters, which every Total* summer and
// RestartMaster's retired accumulator use: every field of the sum must be
// the sum of the fields. A hand-kept list of fields drops the ones added
// after it (MasterStats' ExclusionsRefused and BatchesDisplaced were).
func TestStatsSummersCarryEveryField(t *testing.T) {
	checkSum[core.MasterStats](t)
	checkSum[core.SlaveStats](t)
	checkSum[core.ClientStats](t)
}

// filled returns a T whose field i holds base+i.
func filled[T any](t *testing.T, base uint64) T {
	var x T
	v := reflect.ValueOf(&x).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(base + uint64(i))
		case reflect.Int:
			f.SetInt(int64(base) + int64(i))
		default:
			t.Fatalf("%s.%s is not a counter", v.Type(), v.Type().Field(i).Name)
		}
	}
	return x
}

// checkSum adds two filled Ts with addCounters and checks every field.
func checkSum[T any](t *testing.T) {
	t.Helper()
	sum := filled[T](t, 1000)
	addCounters(&sum, filled[T](t, 5000))
	checkFields(t, sum, func(i int) uint64 { return 6000 + 2*uint64(i) })
}

// checkFields checks that field i of x holds want(i).
func checkFields[T any](t *testing.T, x T, want func(int) uint64) {
	t.Helper()
	v := reflect.ValueOf(x)
	for i := 0; i < v.NumField(); i++ {
		var got uint64
		if f := v.Field(i); f.Kind() == reflect.Int {
			got = uint64(f.Int())
		} else {
			got = f.Uint()
		}
		if got != want(i) {
			t.Errorf("%s.%s = %d, want %d", v.Type(), v.Type().Field(i).Name, got, want(i))
		}
	}
}
