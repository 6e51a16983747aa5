package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// hostileDirectory answers from a pki.Directory's state the way a remote
// directory's answer arrives: nothing in it verified. edit, if set,
// rewrites the certificate list of its answer; table, if set, replaces
// the stored shard table; calls, if set, counts the answers.
type hostileDirectory struct {
	BoundDirectory
	edit  func([]pki.Certificate) []pki.Certificate
	table *pki.ShardTable
	calls *int
}

func (d hostileDirectory) certs(certs []pki.Certificate) []pki.Certificate {
	if d.calls != nil {
		*d.calls++
	}
	if d.edit == nil {
		return certs
	}
	return d.edit(certs)
}

func (d hostileDirectory) ShardMap() (pki.ShardTable, []pki.Certificate, error) {
	table, certs, err := d.BoundDirectory.ShardMap()
	if d.table != nil {
		table, err = *d.table, nil
	}
	return table, d.certs(certs), err
}

// forgedMaster is a master certificate the content owner never signed,
// for the key evil at addr.
func forgedMaster(evil *cryptoutil.KeyPair, addr string, shard uint32) pki.Certificate {
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: addr, Subject: evil.Public, Shard: shard}
	cert.Sign(evil)
	return cert
}

// routeRig is a client against scripted groups on a SimNet: group i has
// master "m<i>" and slave "s<i>"; with a table, the directory also
// publishes auditor "aud-<i>" for it. Masters assign their slave and
// answer a wave with first version 1000*(i+1); slaves answer honestly from
// one content store under their master's stamp, taken at clock; auditors
// ack. handlers holds every scripted node by address.
type routeRig struct {
	s        *sim.Sim
	net      *rpc.SimNet
	clock    sim.Runtime
	owner    *cryptoutil.KeyPair
	dir      *pki.Directory
	masters  []*cryptoutil.KeyPair
	client   *Client
	handlers map[string]rpc.Handler

	mu      sync.Mutex
	waves   map[string][][]string // master -> keys of each wave it received
	reads   map[string]int        // slave -> reads served
	pledges map[string]int        // auditor -> pledges received
}

func (r *routeRig) register(addr string, h rpc.Handler) {
	r.handlers[addr] = h
	r.net.Register(addr, h)
}

// handlerDialer calls the scripted nodes directly, on the caller's
// goroutine: the transport of a test that drives a client from several.
type handlerDialer map[string]rpc.Handler

func (d handlerDialer) CallTimeout(addr, method string, body []byte, _ time.Duration) ([]byte, error) {
	h, ok := d[addr]
	if !ok {
		return nil, rpc.ErrUnreachable
	}
	resp, err := h("client", method, body)
	if err != nil {
		return nil, &rpc.RemoteError{Method: method, Msg: err.Error()}
	}
	return resp, nil
}

// twoRanges splits the keyspace at "m": shard 0 below, shard 1 above.
func twoRanges(owner *cryptoutil.KeyPair) pki.ShardTable {
	t := pki.ShardTable{Epoch: 1, Shards: []wire.ShardRef{{ID: 0, Hi: "m"}, {ID: 1, Lo: "m"}}}
	t.Sign(owner)
	return t
}

func newRouteRig(t *testing.T, table bool) *routeRig {
	t.Helper()
	s := sim.New(1)
	r := &routeRig{
		s: s, net: rpc.NewSimNet(s, sim.Const(time.Millisecond)), clock: s,
		owner: cryptoutil.DeriveKeyPair("owner", 0), dir: pki.NewDirectory(),
		handlers: map[string]rpc.Handler{},
		waves:    map[string][][]string{}, reads: map[string]int{}, pledges: map[string]int{},
	}
	content := store.New()
	content.Apply(store.Put{Key: "a", Value: []byte("low")})
	content.Apply(store.Put{Key: "z", Value: []byte("high")})
	groups := 1
	if table {
		groups = 2
		if err := r.dir.PublishShardTable(r.owner.Public, twoRanges(r.owner)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < groups; i++ {
		i := i
		mk, sk := cryptoutil.DeriveKeyPair("master", i), cryptoutil.DeriveKeyPair("slave", i)
		r.masters = append(r.masters, mk)
		maddr, saddr, aaddr := fmt.Sprintf("m%d", i), fmt.Sprintf("s%d", i), fmt.Sprintf("aud-%d", i)
		cert := pki.Certificate{Role: pki.RoleMaster, Addr: maddr, Subject: mk.Public, Shard: uint32(i)}
		cert.Sign(r.owner)
		r.dir.Publish(r.owner.Public, cert)
		if table {
			aud := pki.Certificate{Role: pki.RoleAuditor, Addr: aaddr, Subject: cryptoutil.DeriveKeyPair("auditor", i).Public, Shard: uint32(i)}
			aud.Sign(r.owner)
			r.dir.Publish(r.owner.Public, aud)
		}
		r.register(maddr, func(from, method string, body []byte) ([]byte, error) {
			w := wire.NewWriter(256)
			switch method {
			case MethodGetSlave:
				sc := pki.Certificate{Role: pki.RoleSlave, Addr: saddr, Subject: sk.Public}
				sc.Sign(mk)
				w.Uvarint(1)
				sc.Encode(w)
			case MethodWriteMulti:
				ww, err := DecodeWriteWave(body)
				if err != nil {
					return nil, err
				}
				var keys []string
				for _, b := range ww.Ops {
					op, err := store.DecodeOp(b)
					if err != nil {
						return nil, err
					}
					keys = append(keys, store.KeyOf(op))
				}
				w.Uvarint(uint64(1000 * (i + 1))) // the first op's version
				r.mu.Lock()
				r.waves[maddr] = append(r.waves[maddr], keys)
				r.mu.Unlock()
			case MethodCheck:
				rd := wire.NewReader(body)
				rd.Bytes() // client key
				rd.Bool()  // payload wanted: never, in these tests
				q, err := query.Decode(rd.Bytes())
				if err != nil {
					return nil, err
				}
				r.mu.Lock()
				res, err := q.Execute(content)
				r.mu.Unlock()
				if err != nil {
					return nil, err
				}
				digest := res.Digest()
				w.Uvarint(content.Version())
				w.Bytes_(digest[:])
				w.Bool(false)
			default:
				return nil, errors.New("unexpected master method " + method)
			}
			return w.Bytes(), nil
		})
		r.register(saddr, func(from, method string, body []byte) ([]byte, error) {
			qb := wire.NewReader(body).Bytes()
			q, err := query.Decode(qb)
			if err != nil {
				return nil, err
			}
			r.mu.Lock()
			res, err := q.Execute(content)
			r.reads[saddr]++
			r.mu.Unlock()
			if err != nil {
				return nil, err
			}
			stamp := SignStamp(mk, content.Version(), r.clock.Now())
			return EncodeReadReply(ReadReply{Payload: res.Payload, Pledge: SignPledge(sk, qb, res.Digest(), stamp)}), nil
		})
	}
	for _, aud := range []string{"aud-0", "aud-1", "cfg-auditor"} {
		aud := aud
		r.register(aud, func(from, method string, body []byte) ([]byte, error) {
			r.mu.Lock()
			r.pledges[aud]++
			r.mu.Unlock()
			return nil, nil
		})
	}
	params := DefaultParams()
	params.DoubleCheckP = 0
	r.client = NewClient(ClientConfig{
		Addr: "client", Keys: cryptoutil.DeriveKeyPair("client", 0), Params: params,
		ContentKey: r.owner.Public, Directory: BoundDirectory{Dir: r.dir, ContentKey: r.owner.Public},
		AuditorAddr: "cfg-auditor", PreferredMaster: 0, Seed: 1,
	}, s, r.net.Dialer("client"))
	r.net.Register("client", r.client.Handle)
	return r
}

// run executes fn as a simulated task after Setup, failing on Setup's
// error unless fn is nil, in which case Setup's error is returned.
func (r *routeRig) run(t *testing.T, fn func() error) error {
	t.Helper()
	var err error
	r.s.Go(func() {
		if err = r.client.Setup(); err != nil || fn == nil {
			return
		}
		err = fn()
	})
	r.s.Run()
	return err
}

// slaveOf returns the primary slave the client holds for a group.
func (r *routeRig) slaveOf(id uint32) string {
	r.client.mu.Lock()
	defer r.client.mu.Unlock()
	return r.client.groups[id].slaves[0].addr
}

// TestClientRoutesByShardTable: one client type for every deployment. It
// sets up every group the owner-signed table names from one directory
// answer, keeps only what verifies under the content key, and sends each
// write and point read to the group whose range holds the key.
func TestClientRoutesByShardTable(t *testing.T) {
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	cases := []struct {
		name  string
		table bool
		setup func(r *routeRig) // before the client's Setup
		check func(t *testing.T, r *routeRig)
	}{
		{"no table: one group, pledges to the configured auditor", false, nil, func(t *testing.T, r *routeRig) {
			if err := r.run(t, func() error { _, err := r.client.Read(query.Get{Key: "z"}); return err }); err != nil {
				t.Fatal(err)
			}
			if len(r.client.groups) != 1 || r.client.MasterAddr() != "m0" || r.client.SlaveAddr() != "s0" {
				t.Fatalf("%d groups, master %q, slave %q", len(r.client.groups), r.client.MasterAddr(), r.client.SlaveAddr())
			}
			if r.pledges["cfg-auditor"] != 1 {
				t.Fatalf("pledges = %v, want one at cfg-auditor", r.pledges)
			}
		}},
		{"two ranges: a mixed wave is split and its versions stitched", true, nil, func(t *testing.T, r *routeRig) {
			var versions []uint64
			err := r.run(t, func() (err error) {
				versions, err = r.client.WriteMulti([]store.Op{
					store.Put{Key: "a1"}, store.Put{Key: "z1"}, store.Put{Key: "a2"}, store.Put{Key: "z2"},
				})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := []uint64{1000, 2000, 1001, 2001}; !slices.Equal(versions, want) {
				t.Fatalf("versions = %v, want %v", versions, want)
			}
			if fmt.Sprint(r.waves) != "map[m0:[[a1 a2]] m1:[[z1 z2]]]" {
				t.Fatalf("waves = %v", r.waves)
			}
		}},
		{"two ranges: a Get is served by the owning group", true, nil, func(t *testing.T, r *routeRig) {
			var payload []byte
			err := r.run(t, func() (err error) { payload, err = r.client.Read(query.Get{Key: "z"}); return err })
			if err != nil {
				t.Fatal(err)
			}
			if v, _, _ := query.GetResult(payload); string(v) != "high" {
				t.Fatalf("payload = %q", v)
			}
			if r.reads["s1"] != 1 || r.reads["s0"] != 0 || r.pledges["aud-1"] != 1 {
				t.Fatalf("reads %v, pledges %v: want s1 and aud-1", r.reads, r.pledges)
			}
		}},
		{"two ranges: a Range is refused", true, nil, func(t *testing.T, r *routeRig) {
			err := r.run(t, func() error { _, err := r.client.Read(query.Range{From: "a", To: "z"}); return err })
			if !errors.Is(err, ErrUnroutableQuery) {
				t.Fatalf("err = %v, want ErrUnroutableQuery", err)
			}
			if len(r.reads) != 0 {
				t.Fatalf("a slave served the unroutable read: %v", r.reads)
			}
		}},
		{"c.notify signed by group 1's master replaces only group 1's slave", true, nil, func(t *testing.T, r *routeRig) {
			err := r.run(t, func() error {
				excl := pki.Exclusion{Subject: cryptoutil.DeriveKeyPair("slave", 1).Public, Reason: "test"}
				excl.Sign(r.masters[1])
				cert := pki.Certificate{Role: pki.RoleSlave, Addr: "s1-new", Subject: cryptoutil.DeriveKeyPair("slave", 9).Public}
				cert.Sign(r.masters[1])
				w := wire.NewWriter(512)
				excl.Encode(w)
				cert.Encode(w)
				_, err := r.client.Handle("m1", MethodNotify, w.Bytes())
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.slaveOf(0) != "s0" || r.slaveOf(1) != "s1-new" {
				t.Fatalf("slaves = %s, %s; want s0, s1-new", r.slaveOf(0), r.slaveOf(1))
			}
		}},
		{"Setup refuses a table signed by a non-owner key", true, func(r *routeRig) {
			forged := twoRanges(evil)
			r.client.cfg.Directory = hostileDirectory{BoundDirectory: r.client.cfg.Directory.(BoundDirectory), table: &forged}
		}, func(t *testing.T, r *routeRig) {
			if err := r.run(t, nil); !errors.Is(err, pki.ErrWrongIssuer) {
				t.Fatalf("Setup = %v, want the table refused", err)
			}
			if r.client.groups != nil {
				t.Fatal("a refused table was installed")
			}
		}},
		{"a master certificate naming a shard outside the table is dropped", true, func(r *routeRig) {
			stray := pki.Certificate{Role: pki.RoleMaster, Addr: "m7", Subject: cryptoutil.DeriveKeyPair("master", 7).Public, Shard: 7}
			stray.Sign(r.owner)
			r.dir.Publish(r.owner.Public, stray)
		}, func(t *testing.T, r *routeRig) {
			if err := r.run(t, nil); err != nil {
				t.Fatal(err)
			}
			if len(r.client.groups) != 2 {
				t.Fatalf("%d groups, want the table's 2", len(r.client.groups))
			}
			for id, g := range r.client.groups {
				if len(g.masters) != 1 || g.masters[0].Addr != fmt.Sprintf("m%d", id) {
					t.Fatalf("group %d masters = %v", id, g.masters)
				}
			}
		}},
		{"a forged auditor certificate is ignored", true, func(r *routeRig) {
			aud := pki.Certificate{Role: pki.RoleAuditor, Addr: "evil-aud", Subject: evil.Public, Shard: 1}
			aud.Sign(evil)
			r.client.cfg.Directory = hostileDirectory{
				BoundDirectory: r.client.cfg.Directory.(BoundDirectory),
				edit:           func(c []pki.Certificate) []pki.Certificate { return append(c, aud) },
			}
		}, func(t *testing.T, r *routeRig) {
			if err := r.run(t, func() error { _, err := r.client.Read(query.Get{Key: "z"}); return err }); err != nil {
				t.Fatal(err)
			}
			if r.pledges["aud-1"] != 1 {
				t.Fatalf("pledges = %v, want one at aud-1", r.pledges)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRouteRig(t, tc.table)
			if tc.setup != nil {
				tc.setup(r)
			}
			tc.check(t, r)
		})
	}
}

// TestClientConcurrentRouting: the shard table, the groups and the rng are
// shared by every caller of a client, as a TCP deployment's goroutines
// share them. Mixed waves, point reads that toss the double-check coin,
// redirect-driven re-reads of the table and whole re-setups that draw a
// master at random run at once; every wave and read must still land in
// its own group.
func TestClientConcurrentRouting(t *testing.T) {
	r := newRouteRig(t, true)
	r.clock = sim.RealClock{}
	cfg := r.client.cfg
	cfg.Params.DoubleCheckP = 0.5
	cfg.PreferredMaster = -1
	c := NewClient(cfg, sim.RealClock{}, handlerDialer(r.handlers))
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	read := func(key, want string) func() error {
		return func() error {
			payload, err := c.Read(query.Get{Key: key})
			if v, _, _ := query.GetResult(payload); err == nil && string(v) != want {
				err = fmt.Errorf("payload %q", v)
			}
			return err
		}
	}
	steps := []func() error{
		func() error {
			vs, err := c.WriteMulti([]store.Op{store.Put{Key: "z1"}, store.Put{Key: "a1"}})
			if err == nil && !slices.Equal(vs, []uint64{2000, 1000}) {
				err = fmt.Errorf("versions %v", vs)
			}
			return err
		},
		read("z", "high"),
		read("a", "low"),
		func() error {
			c.mu.Lock()
			c.stale = true // as a wrong-shard rejection leaves it
			c.mu.Unlock()
			_, err := c.route(query.Get{Key: "a"})
			return err
		},
		c.Setup,
	}
	var wg sync.WaitGroup
	for _, step := range steps {
		wg.Add(1)
		go func(step func() error) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := step(); err != nil {
					t.Error(err)
					return
				}
			}
		}(step)
	}
	wg.Wait()
}

// TestClientSetupIgnoresForgedMaster: the directory is untrusted, and a
// master certificate the owner never signed, listed first, must not
// become the client's master — every stamp and slave certificate is
// checked against that master's key.
func TestClientSetupIgnoresForgedMaster(t *testing.T) {
	r := newClientRig(t)
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	r.net.Register("evil-master", func(from, method string, body []byte) ([]byte, error) {
		cert := pki.Certificate{Role: pki.RoleSlave, Addr: "evil-slave", Subject: evil.Public}
		cert.Sign(evil)
		w := wire.NewWriter(256)
		w.Uvarint(1)
		cert.Encode(w)
		return w.Bytes(), nil
	})
	r.client.cfg.Directory = hostileDirectory{
		BoundDirectory: r.client.cfg.Directory.(BoundDirectory),
		edit: func(c []pki.Certificate) []pki.Certificate {
			return append([]pki.Certificate{forgedMaster(evil, "evil-master", 0)}, c...)
		},
	}
	if _, err := r.readOnce(t); err != nil {
		t.Fatal(err)
	}
	if r.client.MasterAddr() != "master" || r.client.SlaveAddr() != "slave" {
		t.Fatalf("client adopted master %q, slave %q", r.client.MasterAddr(), r.client.SlaveAddr())
	}
}

// hostileMasterRig is a master whose directory lists a forged master
// certificate for evil ahead of its own genuine one.
func hostileMasterRig(t *testing.T, evil *cryptoutil.KeyPair, mut func(*MasterConfig)) *masterRig {
	r := newMasterRig(t, func(c *MasterConfig) {
		c.Directory = hostileDirectory{
			BoundDirectory: c.Directory.(BoundDirectory),
			edit: func(certs []pki.Certificate) []pki.Certificate {
				return append([]pki.Certificate{forgedMaster(evil, "evil-master", 0)}, certs...)
			},
		}
		if mut != nil {
			mut(c)
		}
	})
	return r
}

// checkpointFrame is a tag-7 broadcast frame laid out as the signed
// stability checkpoint masters once broadcast: version and digest, the
// initiator and its key, the time, and signer's signature over all of it.
func checkpointFrame(signer *cryptoutil.KeyPair, initiator string, version uint64, digest cryptoutil.Digest, at time.Time) []byte {
	body := func(w *wire.Writer) {
		w.Uvarint(version)
		w.Bytes_(digest[:])
		w.String_(initiator)
		w.Bytes_(signer.Public)
		w.Time(at)
	}
	signed := wire.EncodeFrame(func(w *wire.Writer) { w.String_("ckpt.v1"); body(w) })
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Byte(7)
		body(w)
		w.Bytes_(signer.Sign(signed))
	})
}

// TestCheckpointFrameIsInert: b.submit does not authenticate its caller,
// and a tag-7 frame once made every member fetch the master list from the
// untrusted directory, check a signature and truncate. Truncation is now
// each master's own decision, so the frame — forged, or under a certified
// master's key — costs a master and the auditor no directory call and no
// signature check, and truncates nothing.
func TestCheckpointFrameIsInert(t *testing.T) {
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	dirCalls := 0
	r := hostileMasterRig(t, evil, func(c *MasterConfig) {
		c.CheckpointEvery = time.Hour // the master's own truncation is not due
		d := c.Directory.(hostileDirectory)
		d.calls = &dirCalls
		c.Directory = d
	})
	cpu := r.s.NewResource("master/cpu", 1)
	r.master.cfg.CPU = cpu
	a := newAuditorRig(t, func(c *AuditorConfig) { c.MasterPubs = []cryptoutil.PublicKey{r.master.PublicKey()} })
	audCPU := a.s.NewResource("auditor/cpu", 1)
	a.auditor.cfg.CPU = audCPU

	const writes = checkpointMinRetain + 8 // past the retain window, so a cut would show
	r.s.Go(func() {
		for i := 0; i < writes; i++ { // versions 2..writes+1, one batch each
			if _, err := r.write(r.client, store.Put{Key: "k", Value: []byte{byte(i)}}); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		calls, jobs := dirCalls, cpu.Jobs()
		d := r.master.StateDigest()
		r.master.deliver(100, checkpointFrame(evil, "evil-master", writes+1, d, r.s.Now()), nil)
		r.master.deliver(101, checkpointFrame(r.master.cfg.Keys, "master", writes+1, d, r.s.Now()), nil)
		if dirCalls != calls || cpu.Jobs() != jobs {
			t.Errorf("checkpoint frames cost the master %d directory calls and %d charged jobs", dirCalls-calls, cpu.Jobs()-jobs)
		}
		if st := r.master.Stats(); st.CheckpointsApplied != 0 || r.master.RetainedOps() != writes || r.master.BaseVersion() != 1 {
			t.Errorf("checkpoint frame truncated: %d truncations, %d ops retained over base %d",
				st.CheckpointsApplied, r.master.RetainedOps(), r.master.BaseVersion())
		}
	})
	r.s.Run()

	a.s.Go(func() {
		a.auditor.deliver(1, checkpointFrame(r.master.cfg.Keys, "master", 9, cryptoutil.Digest{}, a.s.Now()), nil)
	})
	a.s.Run()
	if n := audCPU.Jobs(); n != 0 {
		t.Errorf("checkpoint frame cost the auditor %d charged jobs", n)
	}
	// Every delivery may drop the archive below its own slot, and no lower:
	// the frame's contents move the floor no further.
	if floor := a.auditor.bcast.Truncated(); floor > 1 {
		t.Errorf("checkpoint frame at slot 1 raised the auditor's archive floor to %d", floor)
	}
	if a.auditor.Version() != a.initial.Version() || len(a.auditor.held) != 0 {
		t.Error("checkpoint frame changed the auditor's content or held batches")
	}
}

// TestCatchUpRefusesForgedMasterStamp: a restarted master's catch-up
// verifies the transfer against the owner-certified master keys, so a
// reply stamped by a key the directory merely lists is refused.
func TestCatchUpRefusesForgedMasterStamp(t *testing.T) {
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	dir := t.TempDir()
	r := hostileMasterRig(t, evil, func(c *MasterConfig) { c.DataDir = dir })
	t.Cleanup(r.master.Stop)
	serveSync(r.s, r.net, func(now time.Time, _ uint64) []byte { return honestTransfer(evil, now, 3).encode() })
	var err error
	r.s.Go(func() { err = r.master.catchUpFrom("src") })
	r.s.Run()
	if err == nil {
		t.Fatal("catch-up reply stamped by an uncertified key accepted")
	}
	if st := r.master.Stats(); r.master.Version() != 1 || st.RecoverySyncs != 0 {
		t.Fatalf("refused reply changed the master: version %d, %+v", r.master.Version(), st)
	}
}
