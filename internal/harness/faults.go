// Fault-plan scheduling: scripted, time-triggered fault injection into a
// running Scenario. A FaultPlan is a named list of events — behaviour
// swaps, master kills/restarts, network partitions, link-latency
// changes, clock skew — applied at fixed offsets from the plan's start.
// The workload matrix (internal/matrix) crosses these plans with
// workload cells; individual tests use them directly.
package harness

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// FaultKind names one scripted fault action.
type FaultKind int

const (
	// FaultSetBehavior swaps slave Target's behaviour model to Behavior
	// (nil restores Honest) — lying reads, forged acks, update dropping.
	FaultSetBehavior FaultKind = iota
	// FaultKillMaster crashes master Target (Scenario.KillMaster).
	FaultKillMaster
	// FaultRestartMaster restarts master Target (Scenario.RestartMaster).
	FaultRestartMaster
	// FaultIsolateSlave partitions slave Target off the network: its
	// traffic is lost in flight, but the process keeps running.
	FaultIsolateSlave
	// FaultHealSlave reconnects a partitioned slave.
	FaultHealSlave
	// FaultLinkLatency replaces the network's default link latency with
	// Latency (nil restores the scenario's configured latency) — a
	// latency spike or its recovery.
	FaultLinkLatency
	// FaultSkewSlave sets slave Target's clock offset to Skew (0 restores
	// the true clock).
	FaultSkewSlave
)

// String names the kind for logs and tables.
func (k FaultKind) String() string {
	switch k {
	case FaultSetBehavior:
		return "set-behavior"
	case FaultKillMaster:
		return "kill-master"
	case FaultRestartMaster:
		return "restart-master"
	case FaultIsolateSlave:
		return "isolate-slave"
	case FaultHealSlave:
		return "heal-slave"
	case FaultLinkLatency:
		return "link-latency"
	case FaultSkewSlave:
		return "skew-slave"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultEvent is one scheduled fault action.
type FaultEvent struct {
	// At is the offset from the plan's start at which the event fires.
	At   time.Duration
	Kind FaultKind
	// Target is the flat Scenario index of the slave or master acted on.
	Target int
	// Behavior is the model installed by FaultSetBehavior.
	Behavior core.Behavior
	// Latency is the link latency installed by FaultLinkLatency.
	Latency sim.Latency
	// Skew is the clock offset installed by FaultSkewSlave.
	Skew time.Duration
}

// FaultPlan is a named, time-ordered schedule of fault events.
type FaultPlan struct {
	Name   string
	Events []FaultEvent
}

// FaultRun reports a running plan's progress. Its fields are written by
// the scheduler task and read after the simulation stops (or from other
// sim tasks, which the simulator serializes).
type FaultRun struct {
	Fired int // events applied so far
}

// StartFaults schedules plan against the scenario: a simulation task
// sleeps to each event's offset (measured from the moment StartFaults is
// called inside virtual time) and applies it. Events fire in At order
// regardless of their order in the slice. The returned FaultRun counts
// applied events. Call from inside a simulation task or before Run.
func (sc *Scenario) StartFaults(plan FaultPlan) *FaultRun {
	run := &FaultRun{}
	events := append([]FaultEvent(nil), plan.Events...)
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	sc.S.Go(func() {
		elapsed := time.Duration(0)
		for _, ev := range events {
			if ev.At > elapsed {
				if sc.S.Sleep(ev.At-elapsed) != nil {
					return // simulation stopped
				}
				elapsed = ev.At
			}
			sc.applyFault(ev)
			run.Fired++
		}
	})
	return run
}

// applyFault executes one event against the live deployment.
func (sc *Scenario) applyFault(ev FaultEvent) {
	switch ev.Kind {
	case FaultSetBehavior:
		sc.Slaves[ev.Target].SetBehavior(ev.Behavior)
	case FaultKillMaster:
		sc.KillMaster(ev.Target)
	case FaultRestartMaster:
		sc.RestartMaster(ev.Target)
	case FaultIsolateSlave:
		sc.Net.Isolate(sc.Slaves[ev.Target].Addr(), true)
	case FaultHealSlave:
		sc.Net.Isolate(sc.Slaves[ev.Target].Addr(), false)
	case FaultLinkLatency:
		l := ev.Latency
		if l == nil {
			l = sc.Cfg.Latency
		}
		sc.Net.DefaultLatency = l
	case FaultSkewSlave:
		sc.SlaveClocks[ev.Target].SetSkew(ev.Skew)
	}
}

// ConvergedDigests reports whether every replica agrees with its group:
// within each group, every master and every slave must hold the same
// state digest as the group's first master. It is the matrix's quiesced
// digest check; call it only after traffic has stopped and the fleet had
// time to settle (or poll it).
func (sc *Scenario) ConvergedDigests() bool {
	return sc.DivergentReplicas() == 0
}

// DivergentReplicas counts the replicas (masters and slaves) whose state
// digest differs from their group's reference master digest — the
// detail behind ConvergedDigests, useful in test failure messages. A
// slave the directory lists as excluded is out of service (§3.5: its
// master stopped updating it) and is not counted.
func (sc *Scenario) DivergentReplicas() int {
	divergent := 0
	for _, g := range sc.Groups {
		ref := sc.Masters[g.Masters[0]].StateDigest()
		for _, mi := range g.Masters[1:] {
			if !sc.Masters[mi].StateDigest().Equal(ref) {
				divergent++
			}
		}
		for _, si := range g.Slaves {
			if sc.Dir.IsExcluded(sc.Owner.Public, sc.Slaves[si].PublicKey()) {
				continue
			}
			if !sc.Slaves[si].StateDigest().Equal(ref) {
				divergent++
			}
		}
	}
	return divergent
}
