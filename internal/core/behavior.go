package core

import (
	"math/rand"

	"repro/internal/cryptoutil"
)

// Behavior models how a slave answers reads. Honest slaves return the
// true result; malicious models corrupt it in ways a client cannot detect
// locally (the pledge is consistent with the corrupted bytes — the lie
// only shows against a trusted re-execution, which is exactly the
// paper's threat model).
type Behavior interface {
	// Corrupt decides whether to falsify this answer. If it returns a
	// non-nil slice, the slave serves those bytes instead of the true
	// payload and pledges their hash.
	Corrupt(queryBytes, truePayload []byte, rng *rand.Rand) []byte
	// String names the behaviour for logs and tables.
	String() string
}

// Honest always returns the true result.
type Honest struct{}

// Corrupt implements Behavior; it never corrupts.
func (Honest) Corrupt(_, _ []byte, _ *rand.Rand) []byte { return nil }

func (Honest) String() string { return "honest" }

// AlwaysLie falsifies every answer.
type AlwaysLie struct{}

// Corrupt implements Behavior.
func (AlwaysLie) Corrupt(_, truePayload []byte, _ *rand.Rand) []byte {
	return flipPayload(truePayload)
}

func (AlwaysLie) String() string { return "always-lie" }

// LieWithProb falsifies each answer independently with probability P
// (§3.3/§3.4's "byzantine failures ... are rare" regime).
type LieWithProb struct {
	P float64
}

// Corrupt implements Behavior.
func (l LieWithProb) Corrupt(_, truePayload []byte, rng *rand.Rand) []byte {
	if rng.Float64() < l.P {
		return flipPayload(truePayload)
	}
	return nil
}

func (l LieWithProb) String() string { return "lie-with-prob" }

// TargetedLie falsifies only answers to queries whose encoded bytes hash
// into the target set — modelling a slave that lies about specific
// records (e.g. one product's price) while answering everything else
// honestly, the hardest case for spot-checking.
type TargetedLie struct {
	// TargetFrac selects roughly this fraction of the query space.
	TargetFrac float64
}

// Corrupt implements Behavior.
func (t TargetedLie) Corrupt(queryBytes, truePayload []byte, _ *rand.Rand) []byte {
	h := cryptoutil.HashBytes(queryBytes)
	// Map the first 4 bytes to [0,1).
	x := float64(uint32(h[0])<<24|uint32(h[1])<<16|uint32(h[2])<<8|uint32(h[3])) / (1 << 32)
	if x < t.TargetFrac {
		return flipPayload(truePayload)
	}
	return nil
}

func (t TargetedLie) String() string { return "targeted-lie" }

// AckForger is an optional Behavior extension for slaves that falsify
// the applied-version acknowledgements driving checkpoint stability.
// ForgeAck receives the honestly applied store version and the newest
// version the slave has seen stamped, and returns the version the slave
// acknowledges instead. Honest slaves do not implement it: their ack is
// always the applied version.
type AckForger interface {
	ForgeAck(applied, seen uint64) uint64
}

// UpdateDropper is an optional Behavior extension: while DropUpdates
// reports true the slave takes announced stamps but applies and fetches
// no state updates, modelling a wedged or malicious replica that stops
// applying while remaining responsive on the wire.
type UpdateDropper interface {
	DropUpdates() bool
}

// LieAcks models the lying-slave-during-truncation attack on the
// checkpoint gating logic: the slave stops applying updates entirely yet
// acknowledges the newest version it has seen stamped plus Ahead, trying
// to drag the master's stable version forward into truncating evidence
// it never applied. Reads self-neutralize — with its stamp ahead of the
// wedged replica the slave refuses reads rather than pledge a version it
// does not hold — so the whole attack surface is the ack channel.
type LieAcks struct {
	// Ahead is an extra forged offset past the newest seen version,
	// probing for versions the master has not even committed (masters
	// clamp such acks to their committed version).
	Ahead uint64
}

// Corrupt implements Behavior; the lie is in the acks, not the reads.
func (LieAcks) Corrupt(_, _ []byte, _ *rand.Rand) []byte { return nil }

func (LieAcks) String() string { return "lie-acks" }

// DropUpdates implements UpdateDropper: nothing is ever applied.
func (LieAcks) DropUpdates() bool { return true }

// ForgeAck implements AckForger: acknowledge the newest seen version
// plus Ahead, regardless of what was applied.
func (l LieAcks) ForgeAck(applied, seen uint64) uint64 {
	if seen > applied {
		applied = seen
	}
	return applied + l.Ahead
}

// WithholdAcks models the slow-slave checkpoint-gating attack: the slave
// applies updates normally (so it keeps serving correct reads) but
// acknowledges version 0 forever, trying to pin the master's entire
// history in memory. The maxAckBehind policy bounds the damage: once the
// store outruns the forged ack by more than the policy window the slave
// stops gating stability and truncation proceeds.
type WithholdAcks struct{}

// Corrupt implements Behavior; reads stay honest.
func (WithholdAcks) Corrupt(_, _ []byte, _ *rand.Rand) []byte { return nil }

func (WithholdAcks) String() string { return "withhold-acks" }

// ForgeAck implements AckForger: never acknowledge anything.
func (WithholdAcks) ForgeAck(_, _ uint64) uint64 { return 0 }

// flipPayload produces a deterministic corruption of a payload that (a)
// always differs from the original and (b) is the same for every slave
// corrupting the same payload — so colluding slaves in the k-slave
// variant (§4) return matching wrong answers.
func flipPayload(p []byte) []byte {
	out := make([]byte, len(p)+1)
	copy(out, p)
	if len(p) > 0 {
		out[0] ^= 0x5a
	}
	out[len(p)] = 0xee // length change guarantees a different hash
	return out
}
