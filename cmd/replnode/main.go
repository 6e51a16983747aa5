// Command replnode runs one node of the replication system over real
// TCP: a directory, a master, a slave, or the auditor. It exists to show
// the library is not simulator-bound — the same protocol code drives
// both. Keys are derived deterministically from -keyseed/-keyindex so a
// small deployment can be scripted without a key-distribution step (for
// production use you would generate and distribute real keys).
//
// A minimal single-machine deployment:
//
//	replnode -role directory -listen 127.0.0.1:7000
//	replnode -role master -listen 127.0.0.1:7001 -index 0 \
//	         -dir 127.0.0.1:7000 -peers 127.0.0.1:7001,127.0.0.1:7002
//	replnode -role auditor -listen 127.0.0.1:7002 \
//	         -peers 127.0.0.1:7001,127.0.0.1:7002 -masters 127.0.0.1:7001
//	replnode -role slave -listen 127.0.0.1:7003 -index 0 \
//	         -master 127.0.0.1:7001 -nmasters 1
//
// then register the slave with its master using -register on the master
// side, or run examples/tcploop which wires all of this automatically.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dirsrv"
	"repro/internal/pki"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		role     = flag.String("role", "", "directory | master | slave | auditor")
		listen   = flag.String("listen", "127.0.0.1:0", "listen address")
		index    = flag.Int("index", 0, "node index (key derivation, master choice)")
		dirAddr  = flag.String("dir", "", "directory address (master role)")
		master   = flag.String("master", "", "owning master address (slave role)")
		masters  = flag.String("masters", "", "comma-separated master addresses")
		peers    = flag.String("peers", "", "comma-separated broadcast peer addresses (masters..., auditor)")
		auditor  = flag.String("auditor", "", "auditor address (master role)")
		nmasters = flag.Int("nmasters", 1, "number of masters (slave stamp verification)")
		catalog  = flag.Int("catalog", 100, "initial catalog size")
		docs     = flag.Int("docs", 10, "initial document count")
		datadir  = flag.String("datadir", "", "master durable state dir: WAL + checkpoint snapshot; replayed on restart (\"\" = in-memory)")
	)
	flag.Parse()
	stopProfiles := startProfiles()

	owner := cryptoutil.DeriveKeyPair("owner", 0)
	initial := workload.BuildContent(*catalog, *docs)
	params := core.DefaultParams()
	dialer := rpc.NewTCPDialer()
	defer dialer.Close()
	rt := sim.RealClock{}

	var handler rpc.Handler
	switch *role {
	case "directory":
		srv := dirsrv.NewServer(owner.Public)
		handler = srv.Handle

	case "master":
		keys := cryptoutil.DeriveKeyPair("master", *index)
		auditorKeys := cryptoutil.DeriveKeyPair("auditor", 0)
		dir := &dirsrv.Client{Addr: *dirAddr, Dialer: dialer}
		m, err := core.NewMaster(core.MasterConfig{
			Addr:        *listen,
			Keys:        keys,
			Params:      params,
			ContentKey:  owner.Public,
			Peers:       splitList(*peers),
			AuditorAddr: *auditor,
			AuditorPub:  auditorKeys.Public,
			ACL:         nil, // open writes for the demo deployment
			Directory:   dir,
			Seed:        int64(*index),
			DataDir:     *datadir,
		}, rt, dialer, initial)
		if err != nil {
			log.Fatal(err)
		}
		cert := pki.Certificate{
			Role: pki.RoleMaster, Addr: *listen, Subject: keys.Public,
			IssuedAt: rt.Now(), Serial: uint64(*index),
		}
		cert.Sign(owner)
		// A master that cannot register itself is undiscoverable; fail
		// loud instead of starting a server no client will ever find.
		if err := dir.Publish(cert); err != nil {
			log.Fatalf("directory publish failed: %v", err)
		}
		m.Start()
		handler = m.Handle

	case "slave":
		keys := cryptoutil.DeriveKeyPair("slave", *index)
		var masterPubs []cryptoutil.PublicKey
		for i := 0; i < *nmasters; i++ {
			masterPubs = append(masterPubs, cryptoutil.DeriveKeyPair("master", i).Public)
		}
		sl := core.NewSlave(core.SlaveConfig{
			Addr:       *listen,
			Keys:       keys,
			Params:     params,
			MasterAddr: *master,
			MasterPubs: masterPubs,
			Behavior:   core.Honest{},
			Seed:       int64(*index),
		}, rt, dialer, initial)
		handler = sl.Handle

	case "auditor":
		keys := cryptoutil.DeriveKeyPair("auditor", 0)
		var masterPubs []cryptoutil.PublicKey
		for i := 0; i < *nmasters; i++ {
			masterPubs = append(masterPubs, cryptoutil.DeriveKeyPair("master", i).Public)
		}
		a, err := core.NewAuditor(core.AuditorConfig{
			Addr:        *listen,
			Keys:        keys,
			Params:      params,
			Peers:       splitList(*peers),
			MasterAddrs: splitList(*masters),
			MasterPubs:  masterPubs,
			Seed:        7,
		}, rt, dialer, initial)
		if err != nil {
			log.Fatal(err)
		}
		a.Start()
		handler = a.Handle

	default:
		fmt.Fprintf(os.Stderr, "unknown -role %q\n", *role)
		flag.Usage()
		os.Exit(2)
	}

	srv, err := rpc.ListenTCP(*listen, handler)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("replnode role=%s listening on %s", *role, srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	srv.Close()
	stopProfiles()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
