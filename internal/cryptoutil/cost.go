package cryptoutil

import "time"

// CostModel assigns simulated CPU time to cryptographic and query work.
// The paper's central performance argument (§3.4) rests on cost
// asymmetries: slaves must sign a pledge per read while the auditor signs
// nothing and can batch; masters verify and so on. The simulator charges
// these costs on each node's CPU Resource so throughput experiments
// reflect them.
//
// Defaults approximate a 2003-era server (the paper's context): a ~1 GHz
// machine doing RSA-1024-class signatures in a few milliseconds. The
// relative ratios, not the absolute values, drive every experiment's
// shape.
type CostModel struct {
	Sign        time.Duration // producing one digital signature
	VerifySig   time.Duration // verifying one signature
	HashPerKB   time.Duration // hashing one KiB of result data
	QueryBase   time.Duration // fixed cost of executing any query
	QueryPerKB  time.Duration // per-KiB cost of scanning content
	SendReply   time.Duration // serializing + sending a client reply
	CacheLookup time.Duration // auditor result-cache probe
}

// DefaultCosts is the 2003-era cost model used by the experiments.
func DefaultCosts() CostModel {
	return CostModel{
		Sign:        4 * time.Millisecond,
		VerifySig:   200 * time.Microsecond,
		HashPerKB:   10 * time.Microsecond,
		QueryBase:   150 * time.Microsecond,
		QueryPerKB:  40 * time.Microsecond,
		SendReply:   60 * time.Microsecond,
		CacheLookup: 5 * time.Microsecond,
	}
}

// ModernCosts is an Ed25519-era cost model (fast signatures) used by the
// ablation experiments to show which conclusions survive cheap crypto.
func ModernCosts() CostModel {
	return CostModel{
		Sign:        25 * time.Microsecond,
		VerifySig:   60 * time.Microsecond,
		HashPerKB:   2 * time.Microsecond,
		QueryBase:   20 * time.Microsecond,
		QueryPerKB:  8 * time.Microsecond,
		SendReply:   10 * time.Microsecond,
		CacheLookup: 1 * time.Microsecond,
	}
}

// HashCost returns the modelled time to hash n bytes.
func (c CostModel) HashCost(n int) time.Duration {
	return time.Duration(float64(c.HashPerKB) * (float64(n) / 1024.0))
}

// QueryCost returns the modelled time to execute a query that scans n
// bytes of content.
func (c CostModel) QueryCost(scanned int) time.Duration {
	return c.QueryBase + time.Duration(float64(c.QueryPerKB)*(float64(scanned)/1024.0))
}
