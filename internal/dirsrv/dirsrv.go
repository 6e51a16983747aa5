package dirsrv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Method names served by Server.Handle.
const (
	MethodMasters      = "d.masters"
	MethodPublish      = "d.publish"
	MethodWithdraw     = "d.withdraw"
	MethodExclude      = "d.exclude"
	MethodExcluded     = "d.excluded"
	MethodReinstate    = "d.reinstate"
	MethodShardMap     = "d.shardmap"
	MethodPublishTable = "d.publishtable"
)

// Server serves one content's directory entries: certificates, the shard
// table, and exclusions. Every mutation is verified before it is stored
// (see Handle); the server itself stays untrusted — clients re-verify
// everything — but it refuses to become a vector for garbage.
type Server struct {
	Dir        *pki.Directory
	ContentKey cryptoutil.PublicKey
}

// NewServer creates a directory server for the content key.
func NewServer(contentKey cryptoutil.PublicKey) *Server {
	return &Server{Dir: pki.NewDirectory(), ContentKey: contentKey}
}

// Handle routes the directory RPC methods.
func (s *Server) Handle(from, method string, body []byte) ([]byte, error) {
	switch method {
	case MethodMasters:
		// Empty body: the full verified master set (legacy / unsharded
		// setup). A body carrying a key: only the masters of the shard
		// owning that key, per the published table.
		certs, err := s.Dir.VerifiedMasters(s.ContentKey)
		if err != nil {
			return nil, err
		}
		if len(body) > 0 {
			r := wire.NewReader(body)
			key := r.String()
			if err := r.Done(); err != nil {
				return nil, err
			}
			if table, terr := s.Dir.ShardTableFor(s.ContentKey); terr == nil {
				want := table.ShardFor(key).ID
				routed := certs[:0]
				for _, c := range certs {
					if c.Shard == want {
						routed = append(routed, c)
					}
				}
				certs = routed
			}
		}
		w := wire.NewWriter(512)
		w.Uvarint(uint64(len(certs)))
		for _, c := range certs {
			c.Encode(w)
		}
		return w.Bytes(), nil

	case MethodShardMap:
		// The signed table plus every published certificate (all roles).
		// Clients verify both against the content key before trusting
		// them; the server just refuses to serve what never verified.
		w := wire.NewWriter(1024)
		table, err := s.Dir.ShardTableFor(s.ContentKey)
		if err != nil {
			w.Bool(false)
		} else {
			w.Bool(true)
			table.Encode(w)
		}
		certs, err := s.Dir.Lookup(s.ContentKey)
		if err != nil {
			certs = nil
		}
		w.Uvarint(uint64(len(certs)))
		for _, c := range certs {
			c.Encode(w)
		}
		return w.Bytes(), nil

	case MethodPublish:
		r := wire.NewReader(body)
		cert, err := pki.DecodeCertificate(r)
		if err != nil {
			return nil, err
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		// Only certificates verifiable under the content key are stored —
		// every role, not just masters: a forged auditor or slave entry
		// would otherwise ride the directory into client shard caches.
		if err := cert.Verify(s.ContentKey); err != nil {
			return nil, fmt.Errorf("dirsrv: %s certificate does not verify: %v", cert.Role, err)
		}
		s.Dir.Publish(s.ContentKey, cert)
		return nil, nil

	case MethodPublishTable:
		r := wire.NewReader(body)
		table, err := pki.DecodeShardTable(r)
		if err != nil {
			return nil, err
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		// PublishShardTable verifies signature, well-formedness, and
		// epoch monotonicity before storing.
		if err := s.Dir.PublishShardTable(s.ContentKey, table); err != nil {
			return nil, fmt.Errorf("dirsrv: shard table rejected: %v", err)
		}
		return nil, nil

	case MethodWithdraw:
		r := wire.NewReader(body)
		subject := cryptoutil.PublicKey(r.Bytes())
		if err := r.Done(); err != nil {
			return nil, err
		}
		s.Dir.Withdraw(s.ContentKey, subject)
		return nil, nil

	case MethodExclude:
		r := wire.NewReader(body)
		excl, err := pki.DecodeExclusion(r)
		if err != nil {
			return nil, err
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		// An exclusion is only stored if a currently certified master
		// signed it; otherwise anyone could write revocations into the
		// directory and deny service to honest slaves.
		if err := s.verifyExclusion(&excl); err != nil {
			return nil, err
		}
		s.Dir.RecordExclusion(s.ContentKey, excl)
		return nil, nil

	case MethodExcluded:
		r := wire.NewReader(body)
		subject := cryptoutil.PublicKey(r.Bytes())
		if err := r.Done(); err != nil {
			return nil, err
		}
		w := wire.NewWriter(1)
		w.Bool(s.Dir.IsExcluded(s.ContentKey, subject))
		return w.Bytes(), nil

	case MethodReinstate:
		r := wire.NewReader(body)
		subject := cryptoutil.PublicKey(r.Bytes())
		if err := r.Done(); err != nil {
			return nil, err
		}
		s.Dir.ClearExclusion(s.ContentKey, subject)
		return nil, nil
	}
	return nil, fmt.Errorf("dirsrv: unknown method %q", method)
}

// verifyExclusion checks the exclusion is signed by a master currently
// certified for this content.
func (s *Server) verifyExclusion(excl *pki.Exclusion) error {
	masters, err := s.Dir.VerifiedMasters(s.ContentKey)
	if err != nil {
		return fmt.Errorf("dirsrv: exclusion rejected: no certified masters: %v", err)
	}
	for _, m := range masters {
		if excl.Verify(m.Subject) == nil {
			return nil
		}
	}
	return fmt.Errorf("dirsrv: exclusion is not signed by a certified master")
}

// Client implements core.DirectoryService against a remote directory.
// Every method propagates RPC failure: a master that publishes its
// certificate learns whether the directory actually heard it, and
// IsExcluded fails closed — an unreachable directory reports an error,
// never a silent "not excluded".
type Client struct {
	Addr   string
	Dialer rpc.Dialer
}

var _ core.DirectoryService = (*Client)(nil)

// VerifiedMasters implements core.DirectoryService.
func (c *Client) VerifiedMasters() ([]pki.Certificate, error) {
	body, err := c.Dialer.Call(c.Addr, MethodMasters, nil)
	if err != nil {
		return nil, err
	}
	return decodeCertList(body)
}

// MastersFor returns the verified masters of the shard owning key, per
// the directory's published table (all masters when no table exists).
func (c *Client) MastersFor(key string) ([]pki.Certificate, error) {
	w := wire.NewWriter(64)
	w.String_(key)
	body, err := c.Dialer.Call(c.Addr, MethodMasters, w.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeCertList(body)
}

func decodeCertList(body []byte) ([]pki.Certificate, error) {
	r := wire.NewReader(body)
	n := r.Count()
	certs := make([]pki.Certificate, 0, n)
	for i := 0; i < n; i++ {
		cert, err := pki.DecodeCertificate(r)
		if err != nil {
			return nil, err
		}
		certs = append(certs, cert)
	}
	return certs, r.Done()
}

// ShardMap implements core.DirectoryService.
func (c *Client) ShardMap() (pki.ShardTable, []pki.Certificate, error) {
	body, err := c.Dialer.Call(c.Addr, MethodShardMap, nil)
	if err != nil {
		return pki.ShardTable{}, nil, err
	}
	r := wire.NewReader(body)
	has := r.Bool()
	var table pki.ShardTable
	if has {
		table, err = pki.DecodeShardTable(r)
		if err != nil {
			return pki.ShardTable{}, nil, err
		}
	}
	n := r.Count()
	certs := make([]pki.Certificate, 0, n)
	for i := 0; i < n; i++ {
		cert, err := pki.DecodeCertificate(r)
		if err != nil {
			return pki.ShardTable{}, nil, err
		}
		certs = append(certs, cert)
	}
	if err := r.Done(); err != nil {
		return pki.ShardTable{}, nil, err
	}
	if !has {
		return pki.ShardTable{}, certs, pki.ErrNoShardTable
	}
	return table, certs, nil
}

// PublishShardTable uploads a signed shard table to the directory.
func (c *Client) PublishShardTable(t pki.ShardTable) error {
	w := wire.NewWriter(512)
	t.Encode(w)
	_, err := c.Dialer.Call(c.Addr, MethodPublishTable, w.Bytes())
	return err
}

// Publish implements core.DirectoryService.
func (c *Client) Publish(cert pki.Certificate) error {
	w := wire.NewWriter(512)
	cert.Encode(w)
	_, err := c.Dialer.Call(c.Addr, MethodPublish, w.Bytes())
	return err
}

// Withdraw implements core.DirectoryService.
func (c *Client) Withdraw(subject cryptoutil.PublicKey) error {
	w := wire.NewWriter(64)
	w.Bytes_(subject)
	_, err := c.Dialer.Call(c.Addr, MethodWithdraw, w.Bytes())
	return err
}

// RecordExclusion implements core.DirectoryService.
func (c *Client) RecordExclusion(e pki.Exclusion) error {
	w := wire.NewWriter(512)
	e.Encode(w)
	_, err := c.Dialer.Call(c.Addr, MethodExclude, w.Bytes())
	return err
}

// IsExcluded implements core.DirectoryService. It fails closed: when the
// directory cannot be reached the caller gets an error, not false — a
// partitioned directory must not silently reinstate an excluded
// (compromised) replica.
func (c *Client) IsExcluded(subject cryptoutil.PublicKey) (bool, error) {
	w := wire.NewWriter(64)
	w.Bytes_(subject)
	body, err := c.Dialer.Call(c.Addr, MethodExcluded, w.Bytes())
	if err != nil {
		return false, err
	}
	r := wire.NewReader(body)
	excluded := r.Bool()
	if err := r.Done(); err != nil {
		return false, err
	}
	return excluded, nil
}

// ClearExclusion implements core.DirectoryService.
func (c *Client) ClearExclusion(subject cryptoutil.PublicKey) error {
	w := wire.NewWriter(64)
	w.Bytes_(subject)
	_, err := c.Dialer.Call(c.Addr, MethodReinstate, w.Bytes())
	return err
}
