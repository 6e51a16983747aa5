// Scenario construction: one simulated deployment (masters, slaves,
// auditor, clients) on a SimNet. See doc.go for the package overview.
package harness

import (
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ScenarioConfig describes a deployment to simulate.
type ScenarioConfig struct {
	Seed            int64
	NMasters        int
	SlavesPerMaster int
	Params          core.Params
	// Shards partitions the catalog keyspace across this many independent
	// master groups — each with its own ordered broadcast, checkpointing,
	// auditor, and slave fleet — routed by an owner-signed shard table
	// published to the directory. Every group gets NMasters masters with
	// SlavesPerMaster slaves each. <= 1 keeps today's single-group
	// deployment (addresses and behaviour unchanged).
	Shards int
	// SlaveBehaviors maps global slave index -> behaviour (default honest).
	SlaveBehaviors map[int]core.Behavior
	// Latency is the default one-way link latency.
	Latency sim.Latency
	// CatalogSize / DocCount size the initial content.
	CatalogSize int
	DocCount    int
	// BatchSize / BatchTimeout configure the masters' batched write
	// pipeline (0 = unbatched / default timeout).
	BatchSize    int
	BatchTimeout time.Duration
	// CheckpointEvery enables stability checkpointing at this cadence
	// (0 = off: the op log and broadcast archive grow with total writes).
	CheckpointEvery time.Duration
	// DataDir, when set, gives every master a durable WAL + snapshot
	// under DataDir/master-N, so KillMaster/RestartMaster exercise
	// crash-restart recovery ("" = pure in-memory, the default).
	DataDir string
}

// DefaultScenario is the baseline deployment for experiments.
func DefaultScenario() ScenarioConfig {
	p := core.DefaultParams()
	return ScenarioConfig{
		Seed:            1,
		NMasters:        2,
		SlavesPerMaster: 2,
		Params:          p,
		Latency:         sim.Const(5 * time.Millisecond),
		CatalogSize:     200,
		DocCount:        20,
	}
}

// GroupRefs indexes one master group (shard) inside the flat Masters /
// Slaves slices.
type GroupRefs struct {
	Shard   wire.ShardRef
	Masters []int // indices into Scenario.Masters
	Slaves  []int // indices into Scenario.Slaves
	Auditor int   // index into Scenario.Auditors
}

// Scenario is a running deployment in virtual time.
type Scenario struct {
	Cfg     ScenarioConfig
	S       *sim.Sim
	Net     *rpc.SimNet
	Owner   *cryptoutil.KeyPair
	Dir     *pki.Directory
	Bound   core.BoundDirectory
	Masters []*core.Master
	Slaves  []*core.Slave
	// Auditors holds one auditor per master group; Auditor aliases the
	// first for single-group compatibility.
	Auditors []*core.Auditor
	Auditor  *core.Auditor
	Clients  []*core.Client
	ACL      *core.ACL
	Initial  *store.Store
	// Table is the owner-signed shard table published to Dir (epoch 1).
	Table pki.ShardTable
	// Groups maps each shard to its masters/slaves/auditor.
	Groups []GroupRefs

	// SlaveClocks are the per-slave skewable clocks (one per entry of
	// Slaves): fault plans set an offset to model clock skew, zero
	// restores the true clock.
	SlaveClocks []*sim.SkewedRuntime

	MasterCPU  []*sim.Resource
	SlaveCPU   []*sim.Resource
	AuditorCPU *sim.Resource

	// masterCfgs / masterSlaves remember each master's construction so
	// RestartMaster can rebuild it after a kill.
	masterCfgs   []core.MasterConfig
	masterSlaves [][]slaveRef

	// retired accumulates the final counters of master instances replaced
	// by RestartMaster, so totals survive crash-restart cells. WAL replay
	// counts only WALReplayed on the fresh instance — never WritesApplied
	// or BatchesApplied — so adding retired and live counters cannot
	// double-count a write.
	retired core.MasterStats

	clientN int
}

type slaveRef struct {
	addr string
	pub  cryptoutil.PublicKey
}

// ShardTableFor builds the owner-signed table splitting the catalog
// keyspace evenly across shards: boundaries fall on catalog keys, the
// first range is open below and the last open above (so doc keys, which
// sort after "catalog/", land in the last shard).
func ShardTableFor(owner *cryptoutil.KeyPair, shards, catalogSize int) pki.ShardTable {
	t := pki.ShardTable{Epoch: 1}
	lo := ""
	for g := 0; g < shards; g++ {
		hi := ""
		if g < shards-1 {
			hi = workload.CatalogKey(catalogSize * (g + 1) / shards)
		}
		t.Shards = append(t.Shards, wire.ShardRef{ID: uint32(g), Lo: lo, Hi: hi})
		lo = hi
	}
	t.Sign(owner)
	return t
}

// NewScenario builds and starts the deployment (masters, slaves, auditor).
func NewScenario(cfg ScenarioConfig) *Scenario {
	if cfg.NMasters < 1 {
		cfg.NMasters = 1
	}
	if cfg.SlavesPerMaster < 1 {
		cfg.SlavesPerMaster = 1
	}
	if cfg.Latency == nil {
		cfg.Latency = sim.Const(5 * time.Millisecond)
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	s := sim.New(cfg.Seed)
	sc := &Scenario{
		Cfg:   cfg,
		S:     s,
		Net:   rpc.NewSimNet(s, cfg.Latency),
		Owner: cryptoutil.DeriveKeyPair("owner", 0),
		Dir:   pki.NewDirectory(),
		ACL:   core.NewACL(),
	}
	sc.Bound = core.BoundDirectory{Dir: sc.Dir, ContentKey: sc.Owner.Public}
	sc.Initial = workload.BuildContent(cfg.CatalogSize, cfg.DocCount)

	// The routing plane: an owner-signed table splitting the catalog
	// keyspace across the groups (a single full-range shard when
	// unsharded). Every client sets up from it.
	sc.Table = ShardTableFor(sc.Owner, shards, cfg.CatalogSize)
	if err := sc.Dir.PublishShardTable(sc.Owner.Public, sc.Table); err != nil {
		panic(err) // configuration bug in the experiment, not runtime
	}

	// Address naming: the single-group deployment keeps its historical
	// flat names; groups are prefixed only when there is more than one.
	prefix := func(g int) string {
		if shards == 1 {
			return ""
		}
		return fmt.Sprintf("g%d-", g)
	}

	slaveIdx := 0
	serial := uint64(0)
	for g := 0; g < shards; g++ {
		group := GroupRefs{Shard: sc.Table.Shards[g], Auditor: g}

		masterAddrs := make([]string, cfg.NMasters)
		masterKeys := make([]*cryptoutil.KeyPair, cfg.NMasters)
		var masterPubs []cryptoutil.PublicKey
		for i := range masterAddrs {
			masterAddrs[i] = fmt.Sprintf("%smaster-%d", prefix(g), i)
			masterKeys[i] = cryptoutil.DeriveKeyPair("master", g*1000+i)
			masterPubs = append(masterPubs, masterKeys[i].Public)
		}
		auditorAddr := prefix(g) + "auditor"
		auditorKeys := cryptoutil.DeriveKeyPair("auditor", g)
		peers := append(append([]string(nil), masterAddrs...), auditorAddr)

		for i := 0; i < cfg.NMasters; i++ {
			cert := pki.Certificate{
				Role: pki.RoleMaster, Addr: masterAddrs[i], Subject: masterKeys[i].Public,
				IssuedAt: s.Now(), Serial: serial, Shard: uint32(g),
			}
			serial++
			cert.Sign(sc.Owner)
			sc.Dir.Publish(sc.Owner.Public, cert)
			cpu := s.NewResource(masterAddrs[i]+"/cpu", 1)
			sc.MasterCPU = append(sc.MasterCPU, cpu)
			mcfg := core.MasterConfig{
				Addr:            masterAddrs[i],
				Keys:            masterKeys[i],
				Params:          cfg.Params,
				ContentKey:      sc.Owner.Public,
				Peers:           peers,
				AuditorAddr:     auditorAddr,
				AuditorPub:      auditorKeys.Public,
				ACL:             sc.ACL,
				Directory:       sc.Bound,
				Shard:           sc.Table.Shards[g],
				CPU:             cpu,
				Seed:            cfg.Seed*1000 + int64(g*100+i),
				BatchSize:       cfg.BatchSize,
				BatchTimeout:    cfg.BatchTimeout,
				CheckpointEvery: cfg.CheckpointEvery,
			}
			if cfg.DataDir != "" {
				mcfg.DataDir = filepath.Join(cfg.DataDir, masterAddrs[i])
			}
			m, err := core.NewMaster(mcfg, s, sc.Net.Dialer(masterAddrs[i]), sc.Initial)
			if err != nil {
				panic(err) // configuration bug in the experiment, not runtime
			}
			group.Masters = append(group.Masters, len(sc.Masters))
			sc.masterCfgs = append(sc.masterCfgs, mcfg)
			sc.masterSlaves = append(sc.masterSlaves, nil)
			sc.Masters = append(sc.Masters, m)
			sc.Net.Register(masterAddrs[i], m.Handle)
		}

		for i := 0; i < cfg.NMasters; i++ {
			masterFlat := group.Masters[i]
			for j := 0; j < cfg.SlavesPerMaster; j++ {
				addr := fmt.Sprintf("%sslave-%d", prefix(g), i*cfg.SlavesPerMaster+j)
				if shards == 1 {
					addr = fmt.Sprintf("slave-%d", slaveIdx)
				}
				keys := cryptoutil.DeriveKeyPair("slave", slaveIdx)
				behavior := core.Behavior(core.Honest{})
				if b, ok := cfg.SlaveBehaviors[slaveIdx]; ok {
					behavior = b
				}
				cpu := s.NewResource(addr+"/cpu", 1)
				sc.SlaveCPU = append(sc.SlaveCPU, cpu)
				// Every slave runs on a skewable clock so fault plans can
				// shift it mid-run; with zero skew it is the sim clock.
				clock := sim.NewSkewedRuntime(s)
				sc.SlaveClocks = append(sc.SlaveClocks, clock)
				sl := core.NewSlave(core.SlaveConfig{
					Addr:       addr,
					Keys:       keys,
					Params:     cfg.Params,
					MasterAddr: masterAddrs[i],
					MasterPubs: masterPubs,
					Behavior:   behavior,
					CPU:        cpu,
					Seed:       cfg.Seed*2000 + int64(slaveIdx),
				}, clock, sc.Net.Dialer(addr), sc.Initial)
				group.Slaves = append(group.Slaves, len(sc.Slaves))
				sc.Slaves = append(sc.Slaves, sl)
				sc.Net.Register(addr, sl.Handle)
				sc.Masters[masterFlat].AddSlave(addr, keys.Public)
				sc.masterSlaves[masterFlat] = append(sc.masterSlaves[masterFlat], slaveRef{addr, keys.Public})
				slaveIdx++
			}
		}

		audCPU := s.NewResource(auditorAddr+"/cpu", 1)
		if g == 0 {
			sc.AuditorCPU = audCPU
		}
		aud, err := core.NewAuditor(core.AuditorConfig{
			Addr:        auditorAddr,
			Keys:        auditorKeys,
			Params:      cfg.Params,
			Peers:       peers,
			MasterAddrs: masterAddrs,
			MasterPubs:  masterPubs,
			CPU:         audCPU,
			Seed:        cfg.Seed * 3000 * int64(g+1),
		}, s, sc.Net.Dialer(auditorAddr), sc.Initial)
		if err != nil {
			panic(err)
		}
		sc.Auditors = append(sc.Auditors, aud)
		sc.Net.Register(auditorAddr, aud.Handle)

		// Publish the auditor's identity so clients resolve each group's
		// auditor address from the directory.
		audCert := pki.Certificate{
			Role: pki.RoleAuditor, Addr: auditorAddr, Subject: auditorKeys.Public,
			IssuedAt: s.Now(), Serial: serial, Shard: uint32(g),
		}
		serial++
		audCert.Sign(sc.Owner)
		sc.Dir.Publish(sc.Owner.Public, audCert)

		sc.Groups = append(sc.Groups, group)
	}
	sc.Auditor = sc.Auditors[0]

	for _, m := range sc.Masters {
		m.Start()
	}
	for _, aud := range sc.Auditors {
		aud.Start()
	}
	return sc
}

// AddClient registers a new client. It sets up from the shard table and
// routes every write and read to the owning group; PreferredMaster picks
// within each group. mut may adjust the configuration.
func (sc *Scenario) AddClient(mut func(*core.ClientConfig)) *core.Client {
	idx := sc.clientN
	sc.clientN++
	addr := fmt.Sprintf("client-%d", idx)
	keys := cryptoutil.DeriveKeyPair("client", idx)
	sc.ACL.Allow(keys.Public)
	cfg := core.ClientConfig{
		Addr:            addr,
		Keys:            keys,
		Params:          sc.Cfg.Params,
		ContentKey:      sc.Owner.Public,
		Directory:       sc.Bound,
		PreferredMaster: idx % sc.Cfg.NMasters,
		Seed:            sc.Cfg.Seed*4000 + int64(idx),
	}
	if mut != nil {
		mut(&cfg)
	}
	cl := core.NewClient(cfg, sc.S, sc.Net.Dialer(addr))
	sc.Net.Register(addr, cl.Handle)
	sc.Clients = append(sc.Clients, cl)
	return cl
}

// Warmup is how long after start the first keep-alives certainly arrived
// (slaves cannot serve before that).
func (sc *Scenario) Warmup() time.Duration {
	return 2*sc.Cfg.Params.KeepAliveEvery + 100*time.Millisecond
}

// Run drives the simulation for the given virtual duration.
func (sc *Scenario) Run(d time.Duration) {
	sc.S.RunUntil(sim.Epoch.Add(d))
}

// KillMaster stops master i and takes its address off the network, as a
// crash would. Its durable state (if ScenarioConfig.DataDir is set)
// stays on disk for RestartMaster.
func (sc *Scenario) KillMaster(i int) {
	sc.Masters[i].Stop()
	sc.Net.SetDown(sc.masterCfgs[i].Addr, true)
}

// RestartMaster brings a killed master back with the same identity and
// configuration: a fresh process over the same DataDir. With durable
// state it replays snapshot+WAL and syncs the remaining gap from a peer
// instead of reprovisioning. The new instance replaces Masters[i]; the
// old instance's counters are folded into the retired accumulator so
// TotalMasterStats keeps counting the whole deployment's work across
// crash-restart cycles.
func (sc *Scenario) RestartMaster(i int) *core.Master {
	addCounters(&sc.retired, sc.Masters[i].Stats())
	m, err := core.NewMaster(sc.masterCfgs[i], sc.S, sc.Net.Dialer(sc.masterCfgs[i].Addr), sc.Initial)
	if err != nil {
		panic(err)
	}
	for _, ref := range sc.masterSlaves[i] {
		m.AddSlave(ref.addr, ref.pub)
	}
	sc.Masters[i] = m
	sc.Net.Register(sc.masterCfgs[i].Addr, m.Handle)
	sc.Net.SetDown(sc.masterCfgs[i].Addr, false)
	m.Start()
	return m
}

// TotalSlaveStats sums the counters over all slaves.
func (sc *Scenario) TotalSlaveStats() core.SlaveStats {
	var t core.SlaveStats
	for _, sl := range sc.Slaves {
		addCounters(&t, sl.Stats())
	}
	return t
}

// addCounters adds every field of src to the same field of dst. The stats
// structs are flat counters (uint64 or int), so a counter added to one of
// them is summed without being listed anywhere.
func addCounters[T any](dst *T, src T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + s.Field(i).Uint())
		case reflect.Int:
			f.SetInt(f.Int() + s.Field(i).Int())
		default:
			panic(fmt.Sprintf("harness: %s.%s is not a counter", d.Type(), d.Type().Field(i).Name))
		}
	}
}

// TotalMasterStats sums the counters over all masters, including
// instances retired by RestartMaster — a crash-restart cell neither
// drops the killed instance's work nor double-counts it (WAL replay
// counts as WALReplayed, not WritesApplied).
func (sc *Scenario) TotalMasterStats() core.MasterStats {
	t := sc.retired
	for _, m := range sc.Masters {
		addCounters(&t, m.Stats())
	}
	return t
}

// TotalClientStats sums the counters over all clients.
func (sc *Scenario) TotalClientStats() core.ClientStats {
	var t core.ClientStats
	for _, c := range sc.Clients {
		addCounters(&t, c.Stats())
	}
	return t
}

// MasterBusy returns total CPU busy time across masters.
func (sc *Scenario) MasterBusy() time.Duration {
	var t time.Duration
	for _, c := range sc.MasterCPU {
		t += c.BusyTime()
	}
	return t
}

// SlaveBusy returns total CPU busy time across slaves.
func (sc *Scenario) SlaveBusy() time.Duration {
	var t time.Duration
	for _, c := range sc.SlaveCPU {
		t += c.BusyTime()
	}
	return t
}
