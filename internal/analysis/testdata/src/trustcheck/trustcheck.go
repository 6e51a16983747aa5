// Package trustcheck holds seeded violations and allowed patterns for
// the trustcheck analyzer: decoded wire input must be verified before
// it reaches Apply or replica state.
package trustcheck

import "errors"

type Stamp struct {
	Version uint64
	Sig     []byte
}

func (s *Stamp) Verify(pubs [][]byte) error {
	if len(s.Sig) == 0 {
		return errors.New("unsigned")
	}
	return nil
}

type Update struct {
	First uint64
	Ops   [][]byte
	Stamp Stamp
}

// VerifyMembers checks the ops against the stamp's digest.
func (u *Update) VerifyMembers() error { return nil }

type Store struct{ version uint64 }

func (st *Store) Apply(op []byte) error             { st.version++; return nil }
func (st *Store) ApplyAt(v uint64, op []byte) error { st.version = v; return nil }
func (st *Store) ValidateOp(op []byte) error        { return nil }

type Replica struct {
	store     *Store
	lastStamp Stamp
	pubs      [][]byte
}

func decodeBatchEntry(b []byte) (Update, error) {
	return Update{Ops: [][]byte{b}}, nil
}

func DecodeStamp(b []byte) (Stamp, error) {
	return Stamp{Sig: b}, nil
}

func decodeOp(b []byte) ([]byte, error) { return b, nil }

// applyBeforeVerify feeds decoded ops into the store with no signature
// check at all.
func (r *Replica) applyBeforeVerify(frame []byte) error {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return err
	}
	for _, op := range bu.Ops {
		if err := r.store.Apply(op); err != nil { // want "unverified wire-decoded value"
			return err
		}
	}
	return nil
}

// storeBeforeVerify retains the decoded stamp before checking it.
func (r *Replica) storeBeforeVerify(frame []byte) error {
	stamp, err := DecodeStamp(frame)
	if err != nil {
		return err
	}
	r.lastStamp = stamp // want "unverified wire-decoded value"
	return stamp.Verify(r.pubs)
}

// verifyWrongOrder applies first, verifies after: the damage is done.
func (r *Replica) verifyWrongOrder(frame []byte) error {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return err
	}
	if err := r.store.ApplyAt(bu.Stamp.Version, bu.Ops[0]); err != nil { // want "unverified wire-decoded value"
		return err
	}
	return bu.Stamp.Verify(r.pubs)
}

// stampOnly checks the stamp, which clears the stamp and nothing else:
// the ops were never checked against it.
func (r *Replica) stampOnly(frame []byte) error {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return err
	}
	if err := bu.Stamp.Verify(r.pubs); err != nil {
		return err
	}
	for _, op := range bu.Ops {
		if err := r.store.Apply(op); err != nil { // want "unverified wire-decoded value"
			return err
		}
	}
	r.lastStamp = bu.Stamp
	return nil
}

// membersBeforeStamp checks the ops against a root nobody has checked yet,
// which proves nothing.
func (r *Replica) membersBeforeStamp(frame []byte) error {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return err
	}
	if err := bu.VerifyMembers(); err != nil {
		return err
	}
	if err := bu.Stamp.Verify(r.pubs); err != nil {
		return err
	}
	return r.store.Apply(bu.Ops[0]) // want "unverified wire-decoded value"
}

// noMembersCheck: taint survives a decode call and arithmetic on its way
// to the sink.
func (r *Replica) noMembersCheck(frame []byte) error {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return err
	}
	if err := bu.Stamp.Verify(r.pubs); err != nil {
		return err
	}
	for i, b := range bu.Ops {
		op, err := decodeOp(b)
		if err != nil {
			return err
		}
		v := bu.First + uint64(i)
		if err := r.store.ApplyAt(v, op); err != nil { // want "unverified wire-decoded value"
			return err
		}
	}
	return nil
}

// --- near misses: verification gates the sink ---

// okVerifyThenApply is the canonical ingest shape: the stamp, then the
// ops against it.
func (r *Replica) okVerifyThenApply(frame []byte) error {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return err
	}
	if err := bu.Stamp.Verify(r.pubs); err != nil {
		return err
	}
	if err := bu.VerifyMembers(); err != nil {
		return err
	}
	for i, b := range bu.Ops {
		op, err := decodeOp(b)
		if err != nil {
			return err
		}
		if err := r.store.ApplyAt(bu.First+uint64(i), op); err != nil {
			return err
		}
	}
	r.lastStamp = bu.Stamp
	return nil
}

// okValidateGate mirrors the auditor: ValidateOp sanitizes the ops.
func (r *Replica) okValidateGate(frame []byte) error {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return err
	}
	if err := r.store.ValidateOp(bu.Ops[0]); err != nil {
		return err
	}
	return r.store.Apply(bu.Ops[0])
}

// okLocalAssembly builds a local batch from decoded frames; locals are
// not replica state, and each stamp is verified where it is decoded. (A
// second loop verifying stamps[i] would not clear stamps: a loop may run
// zero times.)
func (r *Replica) okLocalAssembly(frames [][]byte) error {
	stamps := make([]Stamp, 0, len(frames))
	for _, f := range frames {
		s, err := DecodeStamp(f)
		if err != nil {
			return err
		}
		if err := s.Verify(r.pubs); err != nil {
			return err
		}
		stamps = append(stamps, s)
	}
	r.lastStamp = stamps[len(stamps)-1]
	return nil
}

// --- verifying decoders: what they return is used as verified ---

type Transfer struct {
	Ops    [][]byte
	Newest Stamp
}

// decodeStateTransfer is in the analyzer's verifier list: a return is a
// sink inside it. This one hands the newest stamp back unchecked.
func decodeStateTransfer(frame []byte, pubs [][]byte) (*Transfer, error) {
	t := new(Transfer)
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return nil, err
	}
	if err := bu.Stamp.Verify(pubs); err != nil {
		return nil, err
	}
	t.Ops = bu.Ops
	newest, err := DecodeStamp(frame)
	if err != nil {
		return nil, err
	}
	t.Newest = newest
	return t, nil // want "unverified wire-decoded value"
}

// okUseVerifiedTransfer: a verifying decoder is not a source, so its
// output reaches the store and replica state as is.
func (r *Replica) okUseVerifiedTransfer(frame []byte) error {
	t, err := decodeStateTransfer(frame, r.pubs)
	if err != nil {
		return err
	}
	for _, op := range t.Ops {
		if err := r.store.Apply(op); err != nil {
			return err
		}
	}
	r.lastStamp = t.Newest
	return nil
}

// sourceOutsideVerifier: the same decoder called directly stays tainted.
func (r *Replica) sourceOutsideVerifier(frame []byte) error {
	newest, err := DecodeStamp(frame)
	if err != nil {
		return err
	}
	r.lastStamp = newest // want "unverified wire-decoded value"
	return nil
}

// --- an opened batch applies itself: its receiver is the sink ---

type Opened struct{ Update }

func (b *Opened) applyTo(st *Store) error { return nil }

// openBatch is in the analyzer's verifier list: it hands a batch back only
// after its stamp and its members have checked out.
func openBatch(frame []byte, pubs [][]byte) (Opened, error) {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return Opened{}, err
	}
	if err := bu.Stamp.Verify(pubs); err != nil {
		return Opened{}, err
	}
	if err := bu.VerifyMembers(); err != nil {
		return Opened{}, err
	}
	return Opened{bu}, nil
}

// okApplyOpened: a batch out of openBatch applies itself.
func (r *Replica) okApplyOpened(frame []byte) error {
	b, err := openBatch(frame, r.pubs)
	if err != nil {
		return err
	}
	return b.applyTo(r.store)
}

// applyUnopened: a batch assembled from a decoded frame without the one
// rule is reported where it applies itself.
func (r *Replica) applyUnopened(frame []byte) error {
	bu, err := decodeBatchEntry(frame)
	if err != nil {
		return err
	}
	b := Opened{bu}
	return b.applyTo(r.store) // want "unverified wire-decoded value"
}
