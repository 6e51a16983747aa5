// The fault-plan library: named, cell-duration-relative schedules over
// the harness fault vocabulary. Every plan but read-liar heals before the
// traffic window ends, so the quiesced digest check can demand full
// convergence — surviving the fault is not enough, the fleet must
// recover from it. A slave that lies on reads does not heal: the fleet
// recovers by excluding it.
package matrix

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
)

// Fault schedule names.
const (
	FaultNone         = "none"
	FaultLyingSlave   = "lying-slave"
	FaultWithholdAcks = "withhold-acks"
	FaultMasterCrash  = "master-crash"
	FaultPartition    = "partition"
	FaultLatencySpike = "latency-spike"
	FaultClockSkew    = "clock-skew"
	FaultReadLiar     = "read-liar"
)

// FaultNames lists the library's schedules in a stable order.
func FaultNames() []string {
	return []string{
		FaultNone, FaultLyingSlave, FaultWithholdAcks, FaultMasterCrash,
		FaultPartition, FaultLatencySpike, FaultClockSkew, FaultReadLiar,
	}
}

// KnownFault reports whether name is in the library.
func KnownFault(name string) bool {
	for _, n := range FaultNames() {
		if n == name {
			return true
		}
	}
	return false
}

// crashCell reports whether the plan kills a master, which needs a
// second master per group (so the group survives) and a durable
// DataDir (so the restart exercises WAL replay, not reprovisioning).
func crashCell(fault string) bool { return fault == FaultMasterCrash }

// readLiar is the slave (flat index) the plan makes lie on reads, or -1. A
// cell passes only if that slave and nobody else is excluded at quiesce,
// on an auditor's report.
func readLiar(fault string) int {
	if fault == FaultReadLiar {
		return 0
	}
	return -1
}

// PlanFor builds the named schedule for a traffic window of length d.
// Faults inject around a quarter of the way in and heal around
// two-thirds in, leaving the last third plus the settle window for
// recovery. Targets are group 0's first slave (flat index 0) and, for
// crashes, group 0's second master (flat index 1).
func PlanFor(fault string, d time.Duration) (harness.FaultPlan, error) {
	inject := d / 4
	heal := d * 13 / 20
	switch fault {
	case FaultNone:
		return harness.FaultPlan{Name: fault}, nil
	case FaultLyingSlave:
		// Slave 0 stops applying updates but acks versions far ahead of
		// anything it holds — the forged acks must not drag the stable
		// version forward (the recordAck clamp), and the slave must
		// recover by snapshot-first sync once honest again.
		return harness.FaultPlan{Name: fault, Events: []harness.FaultEvent{
			{At: inject, Kind: harness.FaultSetBehavior, Target: 0, Behavior: core.LieAcks{Ahead: 1 << 20}},
			{At: heal, Kind: harness.FaultSetBehavior, Target: 0},
		}}, nil
	case FaultReadLiar:
		// Slave 0 starts answering every read with a false result under a
		// pledge it really signs. Nothing heals: the auditor must catch it
		// and the masters exclude it (§3.5) while reads and writes go on —
		// an excluded slave is out of service, so the digest check leaves
		// it out and covers everyone else.
		return harness.FaultPlan{Name: fault, Events: []harness.FaultEvent{
			{At: inject, Kind: harness.FaultSetBehavior, Target: 0, Behavior: core.AlwaysLie{}},
		}}, nil
	case FaultWithholdAcks:
		// Slave 0 applies everything but acks nothing: stability must
		// route around it (CheckpointMaxLag) instead of stalling
		// truncation forever.
		return harness.FaultPlan{Name: fault, Events: []harness.FaultEvent{
			{At: inject, Kind: harness.FaultSetBehavior, Target: 0, Behavior: core.WithholdAcks{}},
			{At: heal, Kind: harness.FaultSetBehavior, Target: 0},
		}}, nil
	case FaultMasterCrash:
		return harness.FaultPlan{Name: fault, Events: []harness.FaultEvent{
			{At: d * 3 / 10, Kind: harness.FaultKillMaster, Target: 1},
			{At: d * 3 / 5, Kind: harness.FaultRestartMaster, Target: 1},
		}}, nil
	case FaultPartition:
		// Slave 0 is cut off (traffic lost in flight, process alive) —
		// a partition, not a crash: it must rejoin and catch up.
		return harness.FaultPlan{Name: fault, Events: []harness.FaultEvent{
			{At: inject, Kind: harness.FaultIsolateSlave, Target: 0},
			{At: heal, Kind: harness.FaultHealSlave, Target: 0},
		}}, nil
	case FaultLatencySpike:
		return harness.FaultPlan{Name: fault, Events: []harness.FaultEvent{
			{At: inject, Kind: harness.FaultLinkLatency, Latency: sim.Const(30 * time.Millisecond)},
			{At: heal, Kind: harness.FaultLinkLatency}, // nil Latency restores the configured link
		}}, nil
	case FaultClockSkew:
		// Slave 0 falls behind and slave 1 runs ahead by multiples of
		// MaxLatency: skewed freshness judgements must fail safe (refused
		// or retried reads), never accepted staleness.
		return harness.FaultPlan{Name: fault, Events: []harness.FaultEvent{
			{At: inject, Kind: harness.FaultSkewSlave, Target: 0, Skew: -300 * time.Millisecond},
			{At: inject, Kind: harness.FaultSkewSlave, Target: 1, Skew: 300 * time.Millisecond},
			{At: heal, Kind: harness.FaultSkewSlave, Target: 0, Skew: 0},
			{At: heal, Kind: harness.FaultSkewSlave, Target: 1, Skew: 0},
		}}, nil
	}
	return harness.FaultPlan{}, fmt.Errorf("unknown fault schedule %q", fault)
}
