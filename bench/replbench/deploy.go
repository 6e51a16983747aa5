package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dirsrv"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// The bench deployment. One set of constants for every workload; the
// README says why each value is what it is.
const (
	nCatalog = 20000
	nDocs    = 20

	maxLatency = 250 * time.Millisecond
	// keepAliveEvery is also the broadcast's CallTimeout, heartbeat period
	// and a third of its takeover delay (core.NewMaster wires them
	// together). A delivery that persists a checkpoint took up to 165 ms
	// on a busy build machine; at 50 ms that is a missed heartbeat window.
	// Do not lower it.
	keepAliveEvery  = 100 * time.Millisecond
	auditorSlack    = 50 * time.Millisecond
	doubleCheckP    = 0.05
	readTimeout     = 5 * time.Second
	batchSize       = 256
	checkpointEvery = time.Second
)

func benchParams() core.Params {
	p := core.DefaultParams()
	p.MaxLatency = maxLatency
	p.KeepAliveEvery = keepAliveEvery
	p.AuditorSlack = auditorSlack
	p.DoubleCheckP = doubleCheckP
	p.AuditSampleP = 1
	p.ReadTimeout = readTimeout
	p.GreedyMinBurst = 1 << 30
	return p
}

// writerClient is the client that sends the write waves. Clients 0 and 1
// are the readers (client i prefers master i); the writer is attached to
// m0, the sequencer, on purpose: a non-sequencer master reaches the
// sequencer through b.submit, which is retried after
// broadcast.Config.CallTimeout and then sequenced twice. On a busy build
// machine a delivery that also persisted a checkpoint took up to 165 ms,
// and up to a third of the write-waves runs through m1 ended with one
// batch applied twice.
const writerClient = 2

// deployment is directory + 2 masters + auditor + 2 slaves + 3 clients in
// one process over loopback TCP.
type deployment struct {
	rec     *recorder
	content *store.Store // the benchmark's own copy; never handed to a node

	masters [2]*core.Master
	slaves  [2]*core.Slave
	auditor *core.Auditor
	clients [3]*core.Client
	cdial   [3]*countingDialer // the clients' dialers (operation attribution)

	servers  []*rpc.TCPServer
	dialers  []*rpc.TCPDialer
	dataDirs []string

	dirSetupNS int64 // time inside directory calls during set-up
	dirCalls   int64
	closed     bool
}

// listen binds a loopback listener behind a late-bound handler and
// registers the address under its role.
func (d *deployment) listen(r role) (string, *lateHandler, error) {
	lh := &lateHandler{}
	srv, err := rpc.ListenTCP("127.0.0.1:0", d.rec.wrapHandler(r, lh.handle))
	if err != nil {
		return "", nil, err
	}
	d.servers = append(d.servers, srv)
	d.rec.addrRole[srv.Addr()] = r
	return srv.Addr(), lh, nil
}

func (d *deployment) dialer(r role) *countingDialer {
	inner := rpc.NewTCPDialer()
	d.dialers = append(d.dialers, inner)
	return &countingDialer{rec: d.rec, role: r, inner: inner}
}

// deploy builds and starts the whole deployment and returns once every
// client's Setup has returned and each has had one read accepted (which
// needs the first keep-alives to have reached the slaves). workDir
// receives one fresh data directory per master.
func deploy(workDir string, spanCap int) (*deployment, error) {
	d := &deployment{rec: newRecorder(spanCap)}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	rt := sim.RealClock{}
	params := benchParams()
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	d.content = workload.BuildContent(nCatalog, nDocs)

	// Bind every listener first: all addresses are known, and the
	// address→role table is complete, before any node exists.
	roles := []role{roleDir, roleM0, roleM1, roleAud, roleS0, roleS1}
	addr := make(map[role]string, len(roles))
	late := make(map[role]*lateHandler, len(roles))
	for _, r := range roles {
		a, lh, err := d.listen(r)
		if err != nil {
			return nil, err
		}
		addr[r], late[r] = a, lh
	}

	dirServer := dirsrv.NewServer(owner.Public)
	late[roleDir].set(dirServer.Handle)

	peers := []string{addr[roleM0], addr[roleM1], addr[roleAud]}
	auditorKeys := cryptoutil.DeriveKeyPair("auditor", 0)
	masterKeys := [2]*cryptoutil.KeyPair{
		cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("master", 1),
	}
	masterPubs := []cryptoutil.PublicKey{masterKeys[0].Public, masterKeys[1].Public}
	acl := core.NewACL()

	masterRoles := [2]role{roleM0, roleM1}
	for i, r := range masterRoles {
		dataDir, err := os.MkdirTemp(workDir, fmt.Sprintf("m%d-", i))
		if err != nil {
			return nil, err
		}
		d.dataDirs = append(d.dataDirs, dataDir)
		dl := d.dialer(r)
		dir := &dirsrv.Client{Addr: addr[roleDir], Dialer: dl}
		m, err := core.NewMaster(core.MasterConfig{
			Addr: addr[r], Keys: masterKeys[i], Params: params,
			ContentKey: owner.Public, Peers: peers,
			AuditorAddr: addr[roleAud], AuditorPub: auditorKeys.Public,
			ACL: acl, Directory: dir, Seed: int64(i),
			BatchSize: batchSize, BatchAdaptive: true,
			CheckpointEvery: checkpointEvery,
			DataDir:         dataDir, // WALSyncEvery 0: fsync every batch before the ack
		}, rt, dl, d.content)
		if err != nil {
			return nil, err
		}
		cert := pki.Certificate{
			Role: pki.RoleMaster, Addr: addr[r], Subject: masterKeys[i].Public,
			IssuedAt: rt.Now(), Serial: uint64(i),
		}
		cert.Sign(owner)
		if err := dir.Publish(cert); err != nil {
			return nil, fmt.Errorf("publish master %d: %w", i, err)
		}
		d.masters[i] = m
		late[r].set(m.Handle)
	}

	aud, err := core.NewAuditor(core.AuditorConfig{
		Addr: addr[roleAud], Keys: auditorKeys, Params: params,
		Peers: peers, MasterAddrs: peers[:2], MasterPubs: masterPubs, Seed: 3,
	}, rt, d.dialer(roleAud), d.content)
	if err != nil {
		return nil, err
	}
	d.auditor = aud
	late[roleAud].set(aud.Handle)

	slaveRoles := [2]role{roleS0, roleS1}
	for i, r := range slaveRoles {
		keys := cryptoutil.DeriveKeyPair("slave", i)
		sl := core.NewSlave(core.SlaveConfig{
			Addr: addr[r], Keys: keys, Params: params,
			MasterAddr: addr[masterRoles[i]], MasterPubs: masterPubs, Seed: int64(i),
		}, rt, d.dialer(r), d.content)
		d.slaves[i] = sl
		late[r].set(sl.Handle)
		d.masters[i].AddSlave(addr[r], keys.Public)
	}

	d.masters[0].Start()
	d.masters[1].Start()
	aud.Start()

	clientRoles := [3]role{roleC0, roleC1, roleC2}
	for i, r := range clientRoles {
		keys := cryptoutil.DeriveKeyPair("client", i)
		acl.Allow(keys.Public)
		dl := d.dialer(r)
		d.cdial[i] = dl
		d.clients[i] = core.NewClient(core.ClientConfig{
			Addr: "bench-client-" + roleNames[r], Keys: keys, Params: params,
			ContentKey: owner.Public, Directory: &dirsrv.Client{Addr: addr[roleDir], Dialer: dl},
			AuditorAddr: addr[roleAud], PreferredMaster: i % 2, Seed: 100 + int64(i),
		}, rt, dl)
		if err := d.clients[i].Setup(); err != nil {
			return nil, fmt.Errorf("client %d setup: %w", i, err)
		}
	}
	// A slave serves reads only once a keep-alive stamp has reached it;
	// set-up ends when each client has had one read accepted.
	if err := d.awaitKeepAlives(); err != nil {
		return nil, err
	}
	for i, c := range d.clients {
		if err := firstRead(c); err != nil {
			return nil, fmt.Errorf("client %d first read: %w", i, err)
		}
	}

	for m := range methodNames {
		if strings.HasPrefix(methodNames[m], "d.") {
			s := d.rec.dialSnapshot(uint8(m))
			d.dirSetupNS += s.ns
			d.dirCalls += s.calls
		}
	}
	ok = true
	return d, nil
}

func firstRead(c *core.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Read(query.Get{Key: workload.CatalogKey(0)})
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitKeepAlives returns once every slave holds a master stamp, polled
// from outside through Stats().
func (d *deployment) awaitKeepAlives() error {
	deadline := time.Now().Add(10 * time.Second)
	for _, sl := range d.slaves {
		for sl.Stats().KeepAlives == 0 {
			if time.Now().After(deadline) {
				return errors.New("no keep-alive reached the slaves within 10s")
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

// close stops every node and releases sockets and data directories.
func (d *deployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, m := range d.masters {
		if m != nil {
			m.Stop()
		}
	}
	if d.auditor != nil {
		d.auditor.Stop()
	}
	for _, dl := range d.dialers {
		dl.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	for _, dir := range d.dataDirs {
		os.RemoveAll(dir)
	}
}
