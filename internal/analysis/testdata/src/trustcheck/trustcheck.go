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
	Ops   [][]byte
	Stamp Stamp
}

type Store struct{ version uint64 }

func (st *Store) Apply(op []byte) error             { st.version++; return nil }
func (st *Store) ApplyAt(v uint64, op []byte) error { st.version = v; return nil }
func (st *Store) ValidateOp(op []byte) error        { return nil }

type Replica struct {
	store     *Store
	lastStamp Stamp
	pubs      [][]byte
}

func DecodeBatchUpdate(b []byte) (Update, error) {
	return Update{Ops: [][]byte{b}}, nil
}

func DecodeStamp(b []byte) (Stamp, error) {
	return Stamp{Sig: b}, nil
}

// applyBeforeVerify feeds decoded ops into the store with no signature
// check at all.
func (r *Replica) applyBeforeVerify(frame []byte) error {
	bu, err := DecodeBatchUpdate(frame)
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
	bu, err := DecodeBatchUpdate(frame)
	if err != nil {
		return err
	}
	if err := r.store.ApplyAt(bu.Stamp.Version, bu.Ops[0]); err != nil { // want "unverified wire-decoded value"
		return err
	}
	return bu.Stamp.Verify(r.pubs)
}

// --- near misses: verification gates the sink ---

// okVerifyThenApply is the canonical ingest shape.
func (r *Replica) okVerifyThenApply(frame []byte) error {
	bu, err := DecodeBatchUpdate(frame)
	if err != nil {
		return err
	}
	if err := bu.Stamp.Verify(r.pubs); err != nil {
		return err
	}
	for _, op := range bu.Ops {
		if err := r.store.Apply(op); err != nil {
			return err
		}
	}
	r.lastStamp = bu.Stamp
	return nil
}

// okValidateGate mirrors the auditor: ValidateOp sanitizes the ops.
func (r *Replica) okValidateGate(frame []byte) error {
	bu, err := DecodeBatchUpdate(frame)
	if err != nil {
		return err
	}
	if err := r.store.ValidateOp(bu.Ops[0]); err != nil {
		return err
	}
	return r.store.Apply(bu.Ops[0])
}

// okLocalAssembly builds a local batch from decoded frames; locals are
// not replica state, and the verified stamp gates the apply.
func (r *Replica) okLocalAssembly(frames [][]byte) error {
	stamps := make([]Stamp, 0, len(frames))
	for _, f := range frames {
		s, err := DecodeStamp(f)
		if err != nil {
			return err
		}
		stamps = append(stamps, s)
	}
	for i := range stamps {
		if err := stamps[i].Verify(r.pubs); err != nil {
			return err
		}
	}
	r.lastStamp = stamps[len(stamps)-1]
	return nil
}

// --- verifying decoders: what they return is used as verified ---

type Transfer struct {
	Ops     [][]byte
	Closing Stamp
}

// decodeStateTransfer is in the analyzer's verifier list: a return is a
// sink inside it. This one hands the closing stamp back unchecked.
func decodeStateTransfer(frame []byte, pubs [][]byte) (*Transfer, error) {
	t := new(Transfer)
	bu, err := DecodeBatchUpdate(frame)
	if err != nil {
		return nil, err
	}
	if err := bu.Stamp.Verify(pubs); err != nil {
		return nil, err
	}
	t.Ops = bu.Ops
	closing, err := DecodeStamp(frame)
	if err != nil {
		return nil, err
	}
	t.Closing = closing
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
	r.lastStamp = t.Closing
	return nil
}

// sourceOutsideVerifier: the same decoder called directly stays tainted.
func (r *Replica) sourceOutsideVerifier(frame []byte) error {
	closing, err := DecodeStamp(frame)
	if err != nil {
		return err
	}
	r.lastStamp = closing // want "unverified wire-decoded value"
	return nil
}
