package core

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// sigTamper is what a client's dialer does to the signatures slaves give
// it: passes them on, never lets one through (every s.read reply loses its
// signature and every s.sign is refused), or swaps each for garbage.
type sigTamper int

const (
	sigsPassed sigTamper = iota
	sigsRefused
	sigsGarbage
)

func (st sigTamper) String() string { return [...]string{"signs when asked", "refuses", "garbage"}[st] }

// tamperDialer is a client's dialer that applies tamper to every slave
// signature on its way to the client, or only to those of the slave at
// only when it is set.
type tamperDialer struct {
	rpc.Dialer
	tamper sigTamper
	only   string
}

func (d tamperDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	tamper := d.tamper
	if d.only != "" && addr != d.only {
		tamper = sigsPassed
	}
	if method == MethodSign && tamper == sigsRefused {
		return nil, errors.New("s.sign refused")
	}
	resp, err := d.Dialer.CallTimeout(addr, method, body, timeout)
	if err != nil || tamper == sigsPassed {
		return resp, err
	}
	switch method {
	case MethodRead:
		rr, err := DecodeReadReply(resp)
		if err != nil {
			return nil, err
		}
		switch {
		case tamper == sigsRefused:
			rr.Pledge.Sig = nil
		case len(rr.Pledge.Sig) > 0:
			rr.Pledge.Sig = garbageSig()
		}
		return EncodeReadReply(rr), nil
	case MethodSign:
		return wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(garbageSig()) }), nil
	}
	return resp, nil
}

// garbageSig is a signature of the right length that no key made.
func garbageSig() []byte { return bytes.Repeat([]byte{0x5a}, ed25519.SignatureSize) }

// TestLiarRefusingToSignEndsLikeGarbage: a slave that lies on every read
// and never gives the client its signature ends exactly like one that
// signs each lie with garbage — no read accepted, no report, no exclusion
// — through the auditor's evidence path and through the double-check
// alike: a refused s.sign opens no escape a garbage signature did not. A
// liar that signs when asked is convicted and excluded on either path.
func TestLiarRefusingToSignEndsLikeGarbage(t *testing.T) {
	for _, tamper := range []sigTamper{sigsPassed, sigsRefused, sigsGarbage} {
		for _, doubleCheck := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/double-check=%v", tamper, doubleCheck), func(t *testing.T) {
				s := sim.New(7)
				o := defaultOpts()
				o.nMasters, o.slavesPerM = 1, 1
				o.slaveBehaviors = map[int]Behavior{0: AlwaysLie{}}
				c := newTestCluster(t, s, o)
				cl := c.addClient(t, 0, func(cc *ClientConfig) {
					if doubleCheck {
						cc.Params.DoubleCheckP = 1
					} else {
						cc.Params.DoubleCheckP = 0
					}
				})
				cl.dlr = tamperDialer{Dialer: cl.dlr, tamper: tamper}
				var readErr error
				s.Go(func() {
					s.Sleep(c.warmup())
					if err := cl.Setup(); err != nil {
						t.Errorf("setup: %v", err)
						return
					}
					_, readErr = cl.Read(mustQuery(t, "catalog/001"))
				})
				s.RunUntil(sim.Epoch.Add(30 * time.Second))

				liar := c.slaves[0].PublicKey()
				st, ast, mst := cl.Stats(), c.auditor.Stats(), c.masters[0].Stats()
				excluded := c.dir.IsExcluded(c.owner.Public, liar)
				reports := ast.ReportsSent + st.ReportsFiled
				t.Logf("read err %v; client %+v; auditor mismatches %d, bad sigs %d, reports %d; exclusions %d",
					readErr, st, ast.Mismatches, ast.PledgesBadSig, ast.ReportsSent, mst.Exclusions)
				if tamper == sigsPassed {
					if !excluded || mst.Exclusions != 1 || reports == 0 {
						t.Fatalf("a liar that signs was not convicted: excluded %v, %d exclusions, %d reports", excluded, mst.Exclusions, reports)
					}
					if doubleCheck && (st.CaughtImmediate == 0 || st.LiesAccepted != 0) {
						t.Fatalf("double-check: %d caught, %d lies accepted", st.CaughtImmediate, st.LiesAccepted)
					}
					if !doubleCheck && (ast.Mismatches == 0 || st.LiesAccepted != 1) {
						t.Fatalf("audit: %d mismatches, %d lies accepted", ast.Mismatches, st.LiesAccepted)
					}
					return
				}
				if readErr == nil || st.ReadsAccepted != 0 || st.LiesAccepted != 0 {
					t.Fatalf("a lie with no valid signature was accepted: %v, %+v", readErr, st)
				}
				if reports != 0 || mst.Exclusions != 0 || excluded || ast.Mismatches != 0 {
					t.Fatalf("a lie with no valid signature convicted its slave: %d reports, %d exclusions", reports, mst.Exclusions)
				}
				if st.BadPledges != st.Retries+1 {
					t.Fatalf("%d attempts, %d refused as bad pledges", st.Retries+1, st.BadPledges)
				}
			})
		}
	}
}

// TestAgreeingLiarRefusingToSignLeavesTheSignerConvicted: two slaves
// read together (KSlaves 2) tell the same lie, so the client accepts on
// the auditor's word; the auditor asks for the evidence. One slave signs
// its lie when asked, the other refuses s.sign or gives garbage. Either
// way the evidence goes out, the auditor drops the unsigned frame as a bad
// signature and convicts the signer, and no lie is accepted: a refusal
// shields no other liar, as a garbage signature shields none.
func TestAgreeingLiarRefusingToSignLeavesTheSignerConvicted(t *testing.T) {
	for _, tamper := range []sigTamper{sigsRefused, sigsGarbage} {
		t.Run(tamper.String(), func(t *testing.T) {
			s := sim.New(7)
			o := defaultOpts()
			o.nMasters, o.slavesPerM = 1, 2
			o.slaveBehaviors = map[int]Behavior{0: AlwaysLie{}, 1: AlwaysLie{}}
			c := newTestCluster(t, s, o)
			cl := c.addClient(t, 0, func(cc *ClientConfig) {
				cc.KSlaves = 2
				cc.Params.DoubleCheckP = 0
			})
			signer, refuser := c.slaves[0], c.slaves[1]
			cl.dlr = tamperDialer{Dialer: cl.dlr, tamper: tamper, only: refuser.Addr()}
			var readErr error
			s.Go(func() {
				s.Sleep(c.warmup())
				if err := cl.Setup(); err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				_, readErr = cl.Read(mustQuery(t, "catalog/001"))
			})
			s.RunUntil(sim.Epoch.Add(30 * time.Second))

			st, ast, mst := cl.Stats(), c.auditor.Stats(), c.masters[0].Stats()
			t.Logf("read err %v; client %+v; auditor mismatches %d, bad sigs %d, reports %d; exclusions %d",
				readErr, st, ast.Mismatches, ast.PledgesBadSig, ast.ReportsSent, mst.Exclusions)
			if !c.dir.IsExcluded(c.owner.Public, signer.PublicKey()) || ast.Mismatches == 0 || ast.ReportsSent == 0 {
				t.Fatalf("the liar that signs was not convicted: %d mismatches, %d reports", ast.Mismatches, ast.ReportsSent)
			}
			if c.dir.IsExcluded(c.owner.Public, refuser.PublicKey()) || mst.Exclusions != 1 || ast.PledgesBadSig == 0 {
				t.Fatalf("the liar with no valid signature: excluded %v, %d exclusions, %d bad signatures",
					c.dir.IsExcluded(c.owner.Public, refuser.PublicKey()), mst.Exclusions, ast.PledgesBadSig)
			}
			if readErr == nil || st.ReadsAccepted != 0 || st.LiesAccepted != 0 {
				t.Fatalf("a lie with no valid signature beside it was accepted: %v, %+v", readErr, st)
			}
		})
	}
}

// servedStatement reads q at sl under the stamp it holds, asking no
// signature, and returns the statement frame of its answer, nil when the
// read fails.
func servedStatement(t *testing.T, sl *Slave, q query.Query) []byte {
	t.Helper()
	qb := query.Encode(q)
	held := sl.adoptedStamp()
	body, err := sl.Handle("client", MethodRead, encodeReadRequest(qb, &held, false))
	if err != nil {
		t.Error(err)
		return nil
	}
	rr, err := DecodeReadReply(body)
	if err != nil {
		t.Error(err)
		return nil
	}
	if len(rr.Pledge.Sig) != 0 {
		t.Error("a reply nobody asked a signature for carries one")
	}
	rr.Pledge.Stamp.Version = held.Version
	return wire.EncodeFrame(rr.completePledge(qb, sl.PublicKey()).appendStatement)
}

// askSign sends s.sign for statement and returns the signature given.
func askSign(sl *Slave, statement []byte) ([]byte, error) {
	resp, err := sl.Handle("client", MethodSign, statement)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(resp)
	sig := r.Bytes()
	return sig, r.Done()
}

// TestSlaveSignsOnlyWhatItServed: an s.read that asks for no signature
// under the stamp the slave holds makes none; s.sign then signs the
// statement served, once (the second ask is a memo hit), and refuses one
// it did not serve, one at another version and one another slave served.
// A read that names no stamp gets the stamp whole and the signature with
// it. A lie it told is signed when asked: a liar that signs is still
// convicted.
func TestSlaveSignsOnlyWhatItServed(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	other := newSlaveRig(t, Honest{})
	r.s.Go(func() {
		r.keepAlive(1)
		honest := servedStatement(t, r.slave, query.Get{Key: "k"})
		if st := r.slave.Stats(); st.PledgeCacheHits+st.PledgeCacheMisses != 0 {
			t.Errorf("a read nobody asked a signature for was signed: %+v", st)
		}
		for i, wantHits := range []uint64{0, 1} {
			sig, err := askSign(r.slave, honest)
			if err != nil {
				t.Errorf("s.sign %d for a served statement: %v", i, err)
				return
			}
			p, _ := decodeStatement(wire.NewReader(honest))
			p.SlavePub, p.Sig = r.slave.PublicKey(), sig
			if err := p.VerifySig(); err != nil {
				t.Errorf("s.sign %d: %v", i, err)
			}
			if st := r.slave.Stats(); st.PledgeCacheMisses != 1 || st.PledgeCacheHits != wantHits {
				t.Errorf("s.sign %d: %d signatures made, %d hits", i, st.PledgeCacheMisses, st.PledgeCacheHits)
			}
		}
		p, _ := decodeStatement(wire.NewReader(honest))
		p.Stamp.Version++
		otherVersion := wire.EncodeFrame(p.appendStatement)
		unserved := wire.EncodeFrame((&Pledge{QueryBytes: query.Encode(query.Get{Key: "never"}), Stamp: VersionStamp{Version: 1}}).appendStatement)
		var elsewhere []byte
		other.s.Go(func() {
			other.keepAlive(1)
			elsewhere = servedStatement(t, other.slave, query.Get{Key: "elsewhere"})
		})
		other.s.Run()
		for name, frame := range map[string][]byte{"another version": otherVersion, "unserved": unserved, "another slave's": elsewhere} {
			if sig, err := askSign(r.slave, frame); !errors.Is(err, errNotServed) || sig != nil {
				t.Errorf("%s statement: signed %x, err %v", name, sig, err)
			}
		}

		qb := query.Encode(query.Get{Key: "k"})
		body, err := r.slave.Handle("client", MethodRead, encodeReadRequest(qb, nil, false))
		if err != nil {
			t.Error(err)
			return
		}
		rr, err := DecodeReadReply(body)
		if err != nil || len(rr.Pledge.Stamp.Sig) == 0 || rr.completePledge(qb, r.slave.PublicKey()).VerifySig() != nil {
			t.Errorf("a read naming no stamp: err %v, stamp whole %v, %d signature bytes that do not verify",
				err, len(rr.Pledge.Stamp.Sig) > 0, len(rr.Pledge.Sig))
		}

		r.slave.SetBehavior(AlwaysLie{})
		lie := servedStatement(t, r.slave, query.Get{Key: "k"})
		sig, err := askSign(r.slave, lie)
		if err != nil {
			t.Errorf("s.sign for a lie served: %v", err)
			return
		}
		p, _ = decodeStatement(wire.NewReader(lie))
		p.SlavePub, p.Sig = r.slave.PublicKey(), sig
		if proven, _, err := CheckPledgeAgainst(r.slave.store, &p); err != nil || !proven {
			t.Errorf("the lie's signature proves nothing: proven=%v err=%v", proven, err)
		}
	})
	r.s.Run()
}

// TestSigCacheServedEntryNeverTakesEvictedSig fills one set of a signer's
// table with signed entries and pushes them out with served ones: none of
// these comes back with a signature, whichever slot it took over, and
// one signed afterwards keeps its own.
func TestSigCacheServedEntryNeverTakesEvictedSig(t *testing.T) {
	c := newSigCache(pledgeSignMemoSize)
	sigOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, ed25519.SignatureSize) }
	for i := 0; i < sigCacheWays; i++ {
		c.insert(setKey(i), sigOf(i))
	}
	for i := sigCacheWays; i < 2*sigCacheWays; i++ {
		if sig, found := c.recall(setKey(i), true, false); !found || sig != nil {
			t.Fatalf("served entry %d: found %v with signature %x", i, found, sig)
		}
	}
	for i := 0; i < 2*sigCacheWays; i++ {
		sig, found := c.recall(setKey(i), false, false)
		if i < sigCacheWays && found {
			t.Errorf("signed entry %d survived a full set of newer ones", i)
		}
		if i >= sigCacheWays && (!found || sig != nil) {
			t.Errorf("served entry %d: found %v with signature %x", i, found, sig)
		}
	}
	c.insert(setKey(sigCacheWays), sigOf(sigCacheWays))
	if sig, _ := c.recall(setKey(sigCacheWays), false, false); !bytes.Equal(sig, sigOf(sigCacheWays)) {
		t.Errorf("a served entry signed later came back with %x", sig)
	}
}

// TestSlaveSignConcurrent runs readers that ask for no signature and then
// ask s.sign for what they were served, beside batches that move the
// version under them: a reply is signed exactly when its stamp moved past
// the one the reader named, every signature given verifies for the
// statement asked, and every refusal is of a statement the bounded table
// no longer holds — none while it holds them all. Run under -race (make race does,
// ten times).
func TestSlaveSignConcurrent(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	trusted := []cryptoutil.PublicKey{master.Public}
	log := new(batchLog)
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "master", MasterPubs: trusted,
	}, sim.RealClock{}, log, store.New())
	const batches, readers = 8, 2
	stop := make(chan struct{})
	var feed, wg sync.WaitGroup
	feed.Add(1)
	go func() { // the master: a batch, then keep-alives at its version
		defer feed.Done()
		defer close(stop)
		for b := 0; b < batches; b++ {
			bu := signedBatch(master, uint64(4*b+1), waveOps(4), time.Now())
			log.add(bu)
			if _, err := announce(sl, bu.Stamp); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			if err := awaitVersion(sl, bu.Last()); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	var mu sync.Mutex
	signed := 0 // guarded by mu
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				asked := query.Encode(query.Get{Key: fmt.Sprintf("key-%d-%d", g, i%64)})
				held := sl.adoptedStamp()
				if held.Sig == nil {
					continue // no stamp before the first batch
				}
				body, err := sl.Handle("client", MethodRead, encodeReadRequest(asked, &held, false))
				if err != nil {
					continue // a batch applied and its stamp not adopted yet: ErrStale
				}
				rr, err := DecodeReadReply(body)
				if err != nil {
					t.Errorf("reply: %v", err)
					return
				}
				whole := len(rr.Pledge.Stamp.Sig) > 0
				if !whole {
					rr.Pledge.Stamp = held
				}
				if whole != (len(rr.Pledge.Sig) > 0) || rr.Pledge.Stamp.Verify(trusted) != nil {
					t.Errorf("reply: stamp whole %v, %d signature bytes", whole, len(rr.Pledge.Sig))
					return
				}
				p := rr.completePledge(asked, sl.PublicKey())
				sig, err := askSign(sl, wire.EncodeFrame(p.appendStatement))
				if err != nil {
					t.Errorf("s.sign for a statement just served: %v", err)
					return
				}
				if p.Sig = sig; p.VerifySig() != nil {
					t.Error("s.sign gave a signature that does not verify")
					return
				}
				mu.Lock()
				signed++
				mu.Unlock()
			}
		}(g)
	}
	feed.Wait()
	wg.Wait()
	if signed == 0 {
		t.Fatal("nothing was signed")
	}
}
