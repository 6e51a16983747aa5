// Package harness builds complete simulated deployments of the
// replication system and runs the experiments indexed by Registry.
// Every experiment function is deterministic for a fixed seed and
// returns metrics tables; each experiment names the paper claim it
// validates (E1's read-cost comparison of §1/§5 through E14's §3.5
// recovery, plus the scaling experiments the reproduction adds: E15
// batched commits for §3.4's signing bottleneck, E16 stability
// checkpointing for bounded master memory).
//
// The experiments live one topic to a file: paper_reads.go (E1–E4, read
// cost, detection, master load, audit), paper_protocol.go (E5–E12),
// paper_costs_recovery.go (E13 cost ablation, E14 recovery), batching.go
// (E15), checkpointing.go (E16), crashrecovery.go (E17), hotpath.go (E18)
// and sharding.go (E19).
//
// NewScenario wires masters, slaves, the auditor and clients onto one
// sim.Sim + rpc.SimNet; experiments drive workloads against it in
// virtual time and read the role stats afterwards.
//
// # Scripted fault schedules
//
// A FaultPlan is a named list of FaultEvents applied at fixed offsets
// by Scenario.StartFaults; the vocabulary (FaultKind) covers behaviour
// swaps (FaultSetBehavior — lying reads via core.AlwaysLie and kin,
// forged acks via core.LieAcks, withheld acks via core.WithholdAcks),
// master kills and restarts, slave partitions (FaultIsolateSlave /
// FaultHealSlave — traffic lost in flight, process alive), default
// link-latency changes, and per-slave clock skew (FaultSkewSlave,
// backed by the sim.SkewedRuntime each slave runs on). After a run,
// DivergentReplicas gives the quiesced convergence check and
// TotalMasterStats folds in instances retired by RestartMaster.
// internal/matrix crosses these plans with workload cells; tests script
// them directly (see faults.go).
//
// Timing gotchas when writing experiments (the sim package doc has the
// full list): a Scenario's sim can be Run only once, so express phases
// as one task chain; Params.KeepAliveEvery doubles as the broadcast RPC
// timeout, so keep link latency well under KeepAliveEvery/2 when
// shrinking timers; and Warmup() is the earliest moment slaves can
// serve (first keep-alives).
package harness
