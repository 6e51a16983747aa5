package matrix

import (
	"reflect"
	"testing"
	"time"
)

// TestSmokeGridShape pins the grid contract the benchmark trajectory
// depends on: enough cells, all valid, no duplicate labels, and at
// least one cell per adversarial fault family.
func TestSmokeGridShape(t *testing.T) {
	cells := SmokeGrid()
	if len(cells) < 12 {
		t.Fatalf("smoke grid has %d cells, want >= 12", len(cells))
	}
	seen := map[string]bool{}
	faults := map[string]int{}
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid cell: %v", err)
		}
		if seen[c.Label()] {
			t.Errorf("duplicate cell label %q", c.Label())
		}
		seen[c.Label()] = true
		faults[c.Fault]++
	}
	for _, f := range []string{FaultLyingSlave, FaultReadLiar, FaultWithholdAcks, FaultMasterCrash, FaultPartition, FaultLatencySpike, FaultClockSkew} {
		if faults[f] == 0 {
			t.Errorf("smoke grid has no %s cell", f)
		}
	}
}

func TestFullGridValid(t *testing.T) {
	cells := FullGrid()
	if len(cells) <= len(SmokeGrid()) {
		t.Fatalf("full grid (%d cells) should exceed the smoke grid (%d)", len(cells), len(SmokeGrid()))
	}
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid cell: %v", err)
		}
	}
}

func TestCellValidate(t *testing.T) {
	bad := []Cell{
		{Dist: "pareto", Mix: MixReadMostly, Clients: 1, Shards: 1, Fault: FaultNone},
		{Dist: DistZipf, Mix: "mixed", Clients: 1, Shards: 1, Fault: FaultNone},
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 0, Shards: 1, Fault: FaultNone},
		{Dist: DistZipf, Mix: MixScan, Clients: 1, Shards: 4, Fault: FaultNone},
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 1, Shards: 1, Fault: "gamma-rays"},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("cell %+v validated but should not", c)
		}
	}
}

// TestCellFaultFamilies runs one reduced cell per adversarial family
// end to end and demands the full ground truth: converged digests,
// committed writes, zero lost, zero duplicated, and the slave that lied
// on reads — nobody else — excluded on an auditor's report.
func TestCellFaultFamilies(t *testing.T) {
	cells := []Cell{
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 6, Shards: 1, Fault: FaultLyingSlave, Duration: 1500 * time.Millisecond},
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 6, Shards: 1, Fault: FaultReadLiar, Duration: 1500 * time.Millisecond},
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 6, Shards: 1, Fault: FaultMasterCrash, Duration: 1500 * time.Millisecond},
		{Dist: DistUniform, Mix: MixWriteHeavy, Clients: 6, Shards: 1, Fault: FaultPartition, Duration: 1500 * time.Millisecond},
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 6, Shards: 1, Fault: FaultClockSkew, Duration: 1500 * time.Millisecond},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.Label(), func(t *testing.T) {
			r, err := RunCell(cell, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if r.FaultsFired == 0 {
				t.Error("fault plan fired no events")
			}
			if !r.OK() {
				t.Errorf("cell failed: committed=%d lost=%d dup=%d converged=%v divergent=%d liars at large=%d honest excluded=%d audit reports=%d",
					r.Committed, r.Lost, r.Duplicated, r.Converged, r.Divergent, r.LiarsAtLarge, r.HonestExcluded, r.AuditReports)
			}
			if r.Committed > 0 && r.MasterWritesApplied < uint64(r.Committed) {
				t.Errorf("masters applied %d writes < %d committed", r.MasterWritesApplied, r.Committed)
			}
		})
	}
}

// TestCellSharded runs a multi-shard cell: routed writes across groups
// must still produce a clean per-group ledger.
func TestCellSharded(t *testing.T) {
	cell := Cell{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 8, Shards: 4, Fault: FaultNone, Duration: 1500 * time.Millisecond}
	r, err := RunCell(cell, 11, "")
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Errorf("cell failed: committed=%d lost=%d dup=%d converged=%v divergent=%d",
			r.Committed, r.Lost, r.Duplicated, r.Converged, r.Divergent)
	}
}

// TestCellDeterminism: the same cell under the same seed reproduces
// its Result exactly — the property that makes the matrix a usable
// regression trajectory.
func TestCellDeterminism(t *testing.T) {
	cell := Cell{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 6, Shards: 1, Fault: FaultPartition, Duration: 1200 * time.Millisecond}
	a, err := RunCell(cell, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(cell, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n  a=%+v\n  b=%+v", a, b)
	}
}
