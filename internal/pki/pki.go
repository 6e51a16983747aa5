// Package pki implements the paper's key and certificate machinery (§2):
// the content key pair whose public half names the content; certificates,
// signed with the content key, that bind each master server's contact
// address to its public key; master-issued certificates for slaves; the
// public directory that serves master certificates indexed by content
// public key; and exclusion certificates that revoke slaves proven
// malicious (§3.5).
package pki

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Roles that appear in certificates.
const (
	RoleMaster  = "master"
	RoleSlave   = "slave"
	RoleAuditor = "auditor"
)

// Errors returned by verification.
var (
	ErrBadCertSig  = errors.New("pki: certificate signature invalid")
	ErrWrongIssuer = errors.New("pki: certificate issuer is not trusted")
	ErrExcluded    = errors.New("pki: subject has been excluded")
	ErrNotFound    = errors.New("pki: no such content in directory")
)

// Certificate binds a subject public key to a role and contact address,
// under an issuer's signature. Master certificates are issued under the
// content key; slave certificates under a master key. Shard names the
// master group the subject belongs to in a sharded deployment (0 in an
// unsharded one); it is covered by the signature, so a compromised
// directory cannot remap a master into a different group's range.
type Certificate struct {
	Role     string
	Addr     string
	Subject  cryptoutil.PublicKey
	Issuer   cryptoutil.PublicKey
	IssuedAt time.Time
	Serial   uint64
	Shard    uint32
	Sig      []byte
}

func (c *Certificate) signedBytes() []byte {
	w := wire.NewWriter(128)
	w.String_("cert.v2")
	w.String_(c.Role)
	w.String_(c.Addr)
	w.Bytes_(c.Subject)
	w.Bytes_(c.Issuer)
	w.Time(c.IssuedAt)
	w.Uvarint(c.Serial)
	w.Uint32(c.Shard)
	return w.Bytes()
}

// Sign fills in Issuer and Sig using the issuer's key pair.
func (c *Certificate) Sign(issuer *cryptoutil.KeyPair) {
	c.Issuer = issuer.Public
	c.Sig = issuer.Sign(c.signedBytes())
}

// Verify checks the signature and that the issuer matches trustedIssuer.
func (c *Certificate) Verify(trustedIssuer cryptoutil.PublicKey) error {
	return verifyIssued(c.Issuer, trustedIssuer, c.signedBytes(), c.Sig)
}

// verifyIssued checks that issuer is trustedIssuer and signed body.
func verifyIssued(issuer, trustedIssuer cryptoutil.PublicKey, body, sig []byte) error {
	if !bytes.Equal(issuer, trustedIssuer) {
		return ErrWrongIssuer
	}
	if err := cryptoutil.Verify(issuer, body, sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertSig, err)
	}
	return nil
}

// Encode appends the certificate to w.
func (c *Certificate) Encode(w *wire.Writer) {
	w.String_(c.Role)
	w.String_(c.Addr)
	w.Bytes_(c.Subject)
	w.Bytes_(c.Issuer)
	w.Time(c.IssuedAt)
	w.Uvarint(c.Serial)
	w.Uint32(c.Shard)
	w.Bytes_(c.Sig)
}

// DecodeCertificate reads a certificate from r.
func DecodeCertificate(r *wire.Reader) (Certificate, error) {
	var c Certificate
	c.Role = r.String()
	c.Addr = r.String()
	c.Subject = cryptoutil.PublicKey(r.Bytes())
	c.Issuer = cryptoutil.PublicKey(r.Bytes())
	c.IssuedAt = r.Time()
	c.Serial = r.Uvarint()
	c.Shard = r.Uint32()
	c.Sig = r.Bytes()
	return c, r.Err()
}

// Exclusion is a signed statement that a subject (a slave proven
// malicious) is no longer part of the system (§3.5). Evidence is the
// encoded misbehaviour proof it is based on; verifiers may inspect it.
type Exclusion struct {
	Subject  cryptoutil.PublicKey
	Reason   string
	At       time.Time
	Evidence []byte
	Issuer   cryptoutil.PublicKey
	Sig      []byte
}

func (e *Exclusion) signedBytes() []byte {
	w := wire.NewWriter(128)
	w.String_("excl.v1")
	w.Bytes_(e.Subject)
	w.String_(e.Reason)
	w.Time(e.At)
	w.Bytes_(e.Evidence)
	return w.Bytes()
}

// Sign fills in Issuer and Sig.
func (e *Exclusion) Sign(issuer *cryptoutil.KeyPair) {
	e.Issuer = issuer.Public
	e.Sig = issuer.Sign(e.signedBytes())
}

// Verify checks the exclusion is signed by the given trusted issuer.
func (e *Exclusion) Verify(trustedIssuer cryptoutil.PublicKey) error {
	return verifyIssued(e.Issuer, trustedIssuer, e.signedBytes(), e.Sig)
}

// Encode appends the exclusion to w.
func (e *Exclusion) Encode(w *wire.Writer) {
	w.Bytes_(e.Subject)
	w.String_(e.Reason)
	w.Time(e.At)
	w.Bytes_(e.Evidence)
	w.Bytes_(e.Issuer)
	w.Bytes_(e.Sig)
}

// DecodeExclusion reads an exclusion from r.
func DecodeExclusion(r *wire.Reader) (Exclusion, error) {
	var e Exclusion
	e.Subject = cryptoutil.PublicKey(r.Bytes())
	e.Reason = r.String()
	e.At = r.Time()
	e.Evidence = r.Bytes()
	e.Issuer = cryptoutil.PublicKey(r.Bytes())
	e.Sig = r.Bytes()
	return e, r.Err()
}

// Retraction kinds: what a retraction drops from the directory.
const (
	RetractWithdraw  = "withdraw"  // the subject's certificate (a crashed master)
	RetractReinstate = "reinstate" // the subject's exclusions (a recovered slave, §3.5)
)

// Retraction is a master's signed request that the directory drop what it
// holds about Subject. At dates it: nothing issued or recorded after At is
// dropped, so a replayed retraction cannot undo a newer certificate or
// exclusion.
type Retraction struct {
	Kind    string
	Subject cryptoutil.PublicKey
	At      time.Time
	Issuer  cryptoutil.PublicKey
	Sig     []byte
}

func (r *Retraction) signedBytes() []byte {
	w := wire.NewWriter(96)
	w.String_("retract.v1")
	w.String_(r.Kind)
	w.Bytes_(r.Subject)
	w.Time(r.At)
	return w.Bytes()
}

// Sign fills in Issuer and Sig.
func (r *Retraction) Sign(issuer *cryptoutil.KeyPair) {
	r.Issuer = issuer.Public
	r.Sig = issuer.Sign(r.signedBytes())
}

// Verify checks the retraction is signed by the given trusted issuer.
func (r *Retraction) Verify(trustedIssuer cryptoutil.PublicKey) error {
	return verifyIssued(r.Issuer, trustedIssuer, r.signedBytes(), r.Sig)
}

// Encode appends the retraction to w.
func (r *Retraction) Encode(w *wire.Writer) {
	w.String_(r.Kind)
	w.Bytes_(r.Subject)
	w.Time(r.At)
	w.Bytes_(r.Issuer)
	w.Bytes_(r.Sig)
}

// DecodeRetraction reads a retraction from r.
func DecodeRetraction(r *wire.Reader) (Retraction, error) {
	var rt Retraction
	rt.Kind = r.String()
	rt.Subject = cryptoutil.PublicKey(r.Bytes())
	rt.At = r.Time()
	rt.Issuer = cryptoutil.PublicKey(r.Bytes())
	rt.Sig = r.Bytes()
	return rt, r.Err()
}

// Directory is the public directory of §2: given a content public key it
// returns the certified master set. It also records exclusions so that
// clients can learn of revoked slaves, and serves the signed shard table
// that partitions the keyspace across master groups. The directory is an
// untrusted lookup service — everything it serves is independently
// verifiable against the content key.
type Directory struct {
	mu         sync.Mutex
	contents   map[string][]Certificate // guarded by mu; content key fingerprint -> certs
	exclusions map[string][]Exclusion   // guarded by mu; content key fingerprint -> exclusions
	tables     map[string]ShardTable    // guarded by mu; content key fingerprint -> shard table
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		contents:   make(map[string][]Certificate),
		exclusions: make(map[string][]Exclusion),
		tables:     make(map[string]ShardTable),
	}
}

func keyID(contentKey cryptoutil.PublicKey) string {
	return cryptoutil.KeyFingerprint(contentKey)
}

// Publish registers a certificate under the content key.
func (d *Directory) Publish(contentKey cryptoutil.PublicKey, cert Certificate) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := keyID(contentKey)
	// Replace any previous certificate for the same (role, subject).
	certs := d.contents[id]
	for i := range certs {
		if certs[i].Role == cert.Role && bytes.Equal(certs[i].Subject, cert.Subject) {
			certs[i] = cert
			d.contents[id] = certs
			return
		}
	}
	d.contents[id] = append(certs, cert)
}

// Lookup returns the certificates registered under the content key.
func (d *Directory) Lookup(contentKey cryptoutil.PublicKey) ([]Certificate, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	certs, ok := d.contents[keyID(contentKey)]
	if !ok || len(certs) == 0 {
		return nil, ErrNotFound
	}
	return append([]Certificate(nil), certs...), nil
}

// RecordExclusion stores a slave exclusion under the content key.
func (d *Directory) RecordExclusion(contentKey cryptoutil.PublicKey, e Exclusion) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := keyID(contentKey)
	d.exclusions[id] = append(d.exclusions[id], e)
}

// Exclusions returns all recorded exclusions for the content key.
func (d *Directory) Exclusions(contentKey cryptoutil.PublicKey) []Exclusion {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Exclusion(nil), d.exclusions[keyID(contentKey)]...)
}

// IsExcluded reports whether subject has a recorded exclusion.
func (d *Directory) IsExcluded(contentKey, subject cryptoutil.PublicKey) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.exclusions[keyID(contentKey)] {
		if bytes.Equal(e.Subject, subject) {
			return true
		}
	}
	return false
}

// Retract applies a retraction signed by a master currently certified
// under contentKey, and refuses any other: a withdrawal removes the
// subject's certificates (a crashed master's), a reinstatement its
// exclusions (§3.5: a slave that was the victim of an attack can, "after
// recovering it to a safe state", be brought back to use). Either drops
// only what is dated at or before the retraction.
func (d *Directory) Retract(contentKey cryptoutil.PublicKey, r Retraction) error {
	masters, err := d.VerifiedMasters(contentKey)
	if err != nil {
		return fmt.Errorf("pki: retraction refused: no certified masters: %w", err)
	}
	signed := false
	for _, m := range masters {
		signed = signed || r.Verify(m.Subject) == nil
	}
	if !signed {
		return errors.New("pki: retraction is not signed by a certified master")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := keyID(contentKey)
	switch r.Kind {
	case RetractWithdraw:
		d.contents[id] = slices.DeleteFunc(d.contents[id], func(c Certificate) bool {
			return bytes.Equal(c.Subject, r.Subject) && !c.IssuedAt.After(r.At)
		})
	case RetractReinstate:
		d.exclusions[id] = slices.DeleteFunc(d.exclusions[id], func(e Exclusion) bool {
			return bytes.Equal(e.Subject, r.Subject) && !e.At.After(r.At)
		})
	default:
		return fmt.Errorf("pki: unknown retraction kind %q", r.Kind)
	}
	return nil
}

// VerifiedMasters returns the master certificates under contentKey whose
// signatures verify against it, dropping any others. This is the client
// setup step: "by knowing the content public key and the address of the
// directory, any client can securely get the addresses and public keys of
// all the master servers" (§2).
func (d *Directory) VerifiedMasters(contentKey cryptoutil.PublicKey) ([]Certificate, error) {
	certs, err := d.Lookup(contentKey)
	if err != nil {
		return nil, err
	}
	out := certs[:0]
	for _, c := range certs {
		if c.Role == RoleMaster && c.Verify(contentKey) == nil {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, ErrNotFound
	}
	return out, nil
}
