// Package e2e holds cross-package end-to-end tests that run the complete
// protocol over real TCP sockets — no simulator anywhere. They exist to
// prove the protocol code is not simulator-bound: the identical Master,
// Slave, Client and Auditor drive both transports.
package e2e

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dirsrv"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
)

// reserveAddr grabs a free loopback port and returns it for a later
// listener. (The tiny reuse window is fine for tests.)
func reserveAddr(t *testing.T) string {
	t.Helper()
	probe, err := rpc.ListenTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()
	return addr
}

// deployment is a full TCP deployment on loopback.
type deployment struct {
	params  core.Params
	owner   *cryptoutil.KeyPair
	dialer  *rpc.TCPDialer
	dir     *dirsrv.Client
	master  *core.Master
	auditor *core.Auditor
	slaves  []*core.Slave
	client  *core.Client
	servers []*rpc.TCPServer
}

func (d *deployment) close() {
	d.master.Stop()
	d.auditor.Stop()
	for _, s := range d.servers {
		s.Close()
	}
	d.dialer.Close()
}

func deploy(t *testing.T, nSlaves int, behaviors map[int]core.Behavior, mutMaster func(*core.MasterConfig)) *deployment {
	t.Helper()
	rt := sim.RealClock{}
	d := &deployment{
		owner:  cryptoutil.DeriveKeyPair("owner", 0),
		dialer: rpc.NewTCPDialer(),
	}
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})

	d.params = core.DefaultParams()
	d.params.MaxLatency = 800 * time.Millisecond
	d.params.KeepAliveEvery = 100 * time.Millisecond
	d.params.DoubleCheckP = 1.0
	d.params.GreedyMinBurst = 1 << 30
	d.params.ReadTimeout = 5 * time.Second

	// Directory.
	dirServer := dirsrv.NewServer(d.owner.Public)
	dsrv, err := rpc.ListenTCP("127.0.0.1:0", dirServer.Handle)
	if err != nil {
		t.Fatal(err)
	}
	d.servers = append(d.servers, dsrv)
	d.dir = &dirsrv.Client{Addr: dsrv.Addr(), Dialer: d.dialer}

	masterAddr := reserveAddr(t)
	auditorAddr := reserveAddr(t)
	peers := []string{masterAddr, auditorAddr}
	auditorKeys := cryptoutil.DeriveKeyPair("auditor", 0)
	clientKeys := cryptoutil.DeriveKeyPair("client", 0)
	acl := core.NewACL(clientKeys.Public)
	masterKeys := cryptoutil.DeriveKeyPair("master", 0)

	mcfg := core.MasterConfig{
		Addr: masterAddr, Keys: masterKeys, Params: d.params,
		ContentKey: d.owner.Public, Peers: peers,
		AuditorAddr: auditorAddr, AuditorPub: auditorKeys.Public,
		ACL: acl, Directory: d.dir, Seed: 1,
	}
	if mutMaster != nil {
		mutMaster(&mcfg)
	}
	d.master, err = core.NewMaster(mcfg, rt, d.dialer, initial)
	if err != nil {
		t.Fatal(err)
	}
	msrv, err := rpc.ListenTCP(masterAddr, d.master.Handle)
	if err != nil {
		t.Fatal(err)
	}
	d.servers = append(d.servers, msrv)
	cert := pki.Certificate{
		Role: pki.RoleMaster, Addr: masterAddr, Subject: masterKeys.Public,
		IssuedAt: time.Now(),
	}
	cert.Sign(d.owner)
	if err := d.dir.Publish(cert); err != nil {
		t.Fatal(err)
	}

	d.auditor, err = core.NewAuditor(core.AuditorConfig{
		Addr: auditorAddr, Keys: auditorKeys, Params: d.params,
		Peers: peers, MasterAddrs: []string{masterAddr},
		MasterPubs: []cryptoutil.PublicKey{masterKeys.Public}, Seed: 2,
	}, rt, d.dialer, initial)
	if err != nil {
		t.Fatal(err)
	}
	asrv, err := rpc.ListenTCP(auditorAddr, d.auditor.Handle)
	if err != nil {
		t.Fatal(err)
	}
	d.servers = append(d.servers, asrv)

	for i := 0; i < nSlaves; i++ {
		slaveAddr := reserveAddr(t)
		slaveKeys := cryptoutil.DeriveKeyPair("slave", i)
		behavior := core.Behavior(core.Honest{})
		if b, ok := behaviors[i]; ok {
			behavior = b
		}
		sl := core.NewSlave(core.SlaveConfig{
			Addr: slaveAddr, Keys: slaveKeys, Params: d.params,
			MasterAddr: masterAddr,
			MasterPubs: []cryptoutil.PublicKey{masterKeys.Public},
			Behavior:   behavior, Seed: int64(10 + i),
		}, rt, d.dialer, initial)
		ssrv, err := rpc.ListenTCP(slaveAddr, sl.Handle)
		if err != nil {
			t.Fatal(err)
		}
		d.servers = append(d.servers, ssrv)
		d.master.AddSlave(slaveAddr, slaveKeys.Public)
		d.slaves = append(d.slaves, sl)
	}

	d.master.Start()
	d.auditor.Start()

	clientAddr := reserveAddr(t)
	d.client = core.NewClient(core.ClientConfig{
		Addr: clientAddr, Keys: clientKeys, Params: d.params,
		ContentKey: d.owner.Public, Directory: d.dir,
		AuditorAddr: auditorAddr, PreferredMaster: 0, Seed: 4,
	}, rt, d.dialer)
	csrv, err := rpc.ListenTCP(clientAddr, d.client.Handle)
	if err != nil {
		t.Fatal(err)
	}
	d.servers = append(d.servers, csrv)

	time.Sleep(3 * d.params.KeepAliveEvery)
	if err := d.client.Setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return d
}

func TestTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	d := deploy(t, 1, nil, nil)
	defer d.close()

	version, err := d.client.Write(store.Put{Key: "tcp", Value: []byte("works")})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if version != 2 {
		t.Fatalf("version = %d, want 2", version)
	}

	time.Sleep(d.params.MaxLatency + 2*d.params.KeepAliveEvery)

	payload, err := d.client.Read(query.Get{Key: "tcp"})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	v, ok, err := query.GetResult(payload)
	if err != nil || !ok || string(v) != "works" {
		t.Fatalf("read = %q ok=%v err=%v", v, ok, err)
	}

	payload, err = d.client.Read(query.Count{P: ""})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if n, _ := query.CountResult(payload); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		st := d.auditor.Stats()
		if st.PledgesAudited >= 2 {
			if st.Mismatches != 0 {
				t.Fatalf("mismatches on honest slaves: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auditor did not finish: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}

	st := d.client.Stats()
	if st.ReadsAccepted != 2 || st.DoubleChecks != 2 || st.LiesAccepted != 0 {
		t.Fatalf("client stats: %+v", st)
	}
}

func TestTCPLiarCaughtOverRealSockets(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	// Slave 0 lies about everything; the mandatory double-check catches
	// it red-handed over real TCP, and the client ends with the truth
	// from the replacement slave.
	d := deploy(t, 2, map[int]core.Behavior{0: core.AlwaysLie{}}, nil)
	defer d.close()

	payload, err := d.client.Read(query.Get{Key: "k"})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	v, ok, err := query.GetResult(payload)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("read = %q ok=%v err=%v", v, ok, err)
	}
	st := d.client.Stats()
	if st.CaughtImmediate == 0 || st.LiesAccepted != 0 {
		t.Fatalf("client stats: %+v", st)
	}
	// The report returns once the exclusion is sequenced; the master
	// records it with the directory when its drainer delivers it.
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		excluded, err := d.dir.IsExcluded(d.slaves[0].PublicKey())
		if err != nil {
			t.Fatalf("exclusion lookup: %v", err)
		}
		if excluded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("liar not excluded in remote directory")
		}
	}
}
