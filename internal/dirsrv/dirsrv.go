package dirsrv

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Method names served by Server.Handle.
const (
	MethodPublish      = "d.publish"
	MethodWithdraw     = "d.withdraw"
	MethodExclude      = "d.exclude"
	MethodExcluded     = "d.excluded"
	MethodReinstate    = "d.reinstate"
	MethodShardMap     = "d.shardmap"
	MethodPublishTable = "d.publishtable"

	// MethodMasters is served by nobody: masters read their peers'
	// certificates from MethodShardMap. A frozen name: the benchmark's
	// per-method counters list it (ROADMAP item 1(b)).
	MethodMasters = "d.masters"
)

// callTimeout bounds every Client call. Masters call the directory on
// their broadcast delivery drainer (an exclusion's origin check and
// record, a readmission's retraction), so a directory that accepts a
// request and never answers must cost a bounded wait, not every later
// delivery.
const callTimeout = 5 * time.Second

// Server serves one content's directory entries: certificates, the shard
// table, and exclusions. Every mutation is verified before it is stored
// (see Handle); the server itself stays untrusted — clients and masters
// re-verify everything — but it refuses to become a vector for garbage.
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
	case MethodShardMap:
		// The signed table plus every published certificate (all roles).
		// Clients verify both against the content key before trusting
		// them; the server just refuses to serve what never verified.
		var table *pki.ShardTable
		if t, err := s.Dir.ShardTableFor(s.ContentKey); err == nil {
			table = &t
		}
		certs, _ := s.Dir.Lookup(s.ContentKey) // none published: an empty list
		w := wire.NewWriter(1024)
		encodeShardMap(w, table, certs)
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

	case MethodWithdraw, MethodReinstate:
		r := wire.NewReader(body)
		rt, err := pki.DecodeRetraction(r)
		if err != nil {
			return nil, err
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		if retractMethods[rt.Kind] != method {
			return nil, fmt.Errorf("dirsrv: %s carries a %q retraction", method, rt.Kind)
		}
		// Only a record a certified master signed is acted on (Retract):
		// one bare key per frame would otherwise delete every master
		// certificate or lift any exclusion.
		return nil, s.Dir.Retract(s.ContentKey, rt)

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
// Every method propagates RPC failure, within callTimeout: a master that
// publishes its certificate learns whether the directory actually heard
// it, and IsExcluded fails closed — an unreachable directory reports an
// error, never a silent "not excluded".
type Client struct {
	Addr   string
	Dialer rpc.Dialer
}

var _ core.DirectoryService = (*Client)(nil)

// ShardMap implements core.DirectoryService.
func (c *Client) ShardMap() (pki.ShardTable, []pki.Certificate, error) {
	body, err := c.Dialer.CallTimeout(c.Addr, MethodShardMap, nil, callTimeout)
	if err != nil {
		return pki.ShardTable{}, nil, err
	}
	return decodeShardMap(body)
}

// encodeShardMap writes a d.shardmap reply: a presence flag, the table if
// there is one, and the certificates.
func encodeShardMap(w *wire.Writer, table *pki.ShardTable, certs []pki.Certificate) {
	w.Bool(table != nil)
	if table != nil {
		table.Encode(w)
	}
	encodeCerts(w, certs)
}

// decodeShardMap reads a d.shardmap reply. Without a table it returns the
// certificates beside pki.ErrNoShardTable, as core.BoundDirectory does.
// Nothing is verified here: that is the caller's job.
func decodeShardMap(body []byte) (pki.ShardTable, []pki.Certificate, error) {
	r := wire.NewReader(body)
	var table pki.ShardTable
	has := r.Bool()
	if has {
		var err error
		if table, err = pki.DecodeShardTable(r); err != nil {
			return pki.ShardTable{}, nil, err
		}
	}
	certs, err := decodeCerts(r)
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return pki.ShardTable{}, nil, err
	}
	if !has {
		return pki.ShardTable{}, certs, pki.ErrNoShardTable
	}
	return table, certs, nil
}

func encodeCerts(w *wire.Writer, certs []pki.Certificate) {
	w.Uvarint(uint64(len(certs)))
	for _, c := range certs {
		c.Encode(w)
	}
}

func decodeCerts(r *wire.Reader) ([]pki.Certificate, error) {
	n := r.Count()
	certs := make([]pki.Certificate, 0, n)
	for i := 0; i < n; i++ {
		cert, err := pki.DecodeCertificate(r)
		if err != nil {
			return nil, err
		}
		certs = append(certs, cert)
	}
	return certs, r.Err()
}

// PublishShardTable uploads a signed shard table to the directory.
func (c *Client) PublishShardTable(t pki.ShardTable) error {
	w := wire.NewWriter(512)
	t.Encode(w)
	_, err := c.Dialer.CallTimeout(c.Addr, MethodPublishTable, w.Bytes(), callTimeout)
	return err
}

// Publish stores a certificate in the directory.
func (c *Client) Publish(cert pki.Certificate) error {
	w := wire.NewWriter(512)
	cert.Encode(w)
	_, err := c.Dialer.CallTimeout(c.Addr, MethodPublish, w.Bytes(), callTimeout)
	return err
}

// RecordExclusion implements core.DirectoryService.
func (c *Client) RecordExclusion(e pki.Exclusion) error {
	w := wire.NewWriter(512)
	e.Encode(w)
	_, err := c.Dialer.CallTimeout(c.Addr, MethodExclude, w.Bytes(), callTimeout)
	return err
}

// IsExcluded asks the directory whether subject is excluded. It fails
// closed: when the directory cannot be reached the caller gets an error,
// not false — a partitioned directory must not silently reinstate an
// excluded (compromised) replica.
func (c *Client) IsExcluded(subject cryptoutil.PublicKey) (bool, error) {
	w := wire.NewWriter(64)
	w.Bytes_(subject)
	body, err := c.Dialer.CallTimeout(c.Addr, MethodExcluded, w.Bytes(), callTimeout)
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

// retractMethods names the method each retraction kind travels as.
var retractMethods = map[string]string{
	pki.RetractWithdraw:  MethodWithdraw,
	pki.RetractReinstate: MethodReinstate,
}

// Retract implements core.DirectoryService.
func (c *Client) Retract(r pki.Retraction) error {
	method, ok := retractMethods[r.Kind]
	if !ok {
		return fmt.Errorf("dirsrv: unknown retraction kind %q", r.Kind)
	}
	w := wire.NewWriter(160)
	r.Encode(w)
	_, err := c.Dialer.CallTimeout(c.Addr, method, w.Bytes(), callTimeout)
	return err
}
