// Cell/Result/grid definitions and the consolidated JSON report.
package matrix

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"
)

// Key-popularity distributions.
const (
	DistZipf    = "zipf"
	DistUniform = "uniform"
)

// Query mixes. Scan cells run unsharded only: across more than one range
// the client routes point reads alone (a dynamic query fails with
// core.ErrUnroutableQuery), and degrading a scan cell to point reads is
// exactly the kind of quiet coverage loss the matrix exists to avoid.
const (
	MixReadMostly = "read-mostly"
	MixWriteHeavy = "write-heavy"
	MixScan       = "scan"
)

// Cell is one experiment point: a workload crossed with a fault plan.
type Cell struct {
	Name    string `json:"name"`
	Dist    string `json:"dist"`
	Mix     string `json:"mix"`
	Clients int    `json:"clients"`
	Shards  int    `json:"shards"`
	Fault   string `json:"fault"`
	// Duration is the traffic window in virtual time (0 = 2.5s default).
	Duration time.Duration `json:"duration_ns,omitempty"`
}

// Label is the cell's canonical name (Name if set, composed otherwise).
func (c Cell) Label() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("%s/%s/c%d/s%d/%s", c.Dist, c.Mix, c.Clients, c.Shards, c.Fault)
}

// Validate rejects malformed cells before any scenario is built.
func (c Cell) Validate() error {
	switch c.Dist {
	case DistZipf, DistUniform:
	default:
		return fmt.Errorf("cell %s: unknown dist %q", c.Label(), c.Dist)
	}
	switch c.Mix {
	case MixReadMostly, MixWriteHeavy, MixScan:
	default:
		return fmt.Errorf("cell %s: unknown mix %q", c.Label(), c.Mix)
	}
	if c.Clients < 1 {
		return fmt.Errorf("cell %s: clients must be >= 1", c.Label())
	}
	if c.Shards < 1 {
		return fmt.Errorf("cell %s: shards must be >= 1", c.Label())
	}
	if c.Mix == MixScan && c.Shards > 1 {
		return fmt.Errorf("cell %s: scan mix requires shards=1 (dynamic queries are unroutable)", c.Label())
	}
	if !KnownFault(c.Fault) {
		return fmt.Errorf("cell %s: unknown fault %q", c.Label(), c.Fault)
	}
	return nil
}

// Result is one cell's measured outcome. Every field is derived from
// virtual time and deterministic counters, so a cell re-run with the
// same seed reproduces its Result bit for bit.
type Result struct {
	Cell Cell `json:"cell"`

	// Correctness: the quiesced ground-truth checks.
	Committed    int  `json:"committed_writes"`
	FailedWrites int  `json:"failed_writes"`
	Lost         int  `json:"lost_writes"`
	Duplicated   int  `json:"duplicated_writes"`
	Converged    bool `json:"converged"`
	Divergent    int  `json:"divergent_replicas"`
	FaultsFired  int  `json:"faults_fired"`

	// Traffic and latency.
	Reads        int     `json:"reads_ok"`
	ReadsFailed  int     `json:"reads_failed"`
	WritesPerSec float64 `json:"writes_per_sec"`
	WriteP50ms   float64 `json:"write_p50_ms"`
	WriteP99ms   float64 `json:"write_p99_ms"`
	ReadP50ms    float64 `json:"read_p50_ms"`
	ReadP99ms    float64 `json:"read_p99_ms"`

	// Trust: a slave the fault plan made lie on reads that the directory
	// does not list as excluded at quiesce, a slave it lists that never
	// lied, the reports the auditors sent, the frames they settled as late
	// (never judged), and the most frames one of them held at once ahead of
	// its delivery.
	LiarsAtLarge    int    `json:"liars_at_large"`
	HonestExcluded  int    `json:"honest_excluded"`
	AuditReports    uint64 `json:"audit_reports"`
	AuditLate       uint64 `json:"audit_late"`
	AuditBacklogMax int    `json:"audit_backlog_max"`

	// MasterWritesApplied is the deployment-wide applied-write counter
	// (crash-retired instances included), a cross-check on Committed.
	MasterWritesApplied uint64 `json:"master_writes_applied"`
}

// OK reports whether the cell passed: converged digests, a non-empty
// write ledger, zero lost or duplicated writes, no failed write where no
// fault was injected, and the slave that lied on reads — nobody else —
// excluded on an auditor's report.
func (r Result) OK() bool {
	return r.Converged && r.Lost == 0 && r.Duplicated == 0 && r.Committed > 0 &&
		(r.Cell.Fault != FaultNone || r.FailedWrites == 0) &&
		r.LiarsAtLarge == 0 && r.HonestExcluded == 0 &&
		(readLiar(r.Cell.Fault) < 0 || r.AuditReports > 0)
}

// SmokeGrid is the CI-sized matrix: both distributions, all three
// mixes, 10–100 clients, 1–8 shards, and at least one cell for every
// fault plan in the library (lying slave, read liar, withheld acks,
// master crash, partition, latency spike, clock skew).
func SmokeGrid() []Cell {
	d := 2500 * time.Millisecond
	return []Cell{
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 10, Shards: 1, Fault: FaultNone, Duration: d},
		{Dist: DistUniform, Mix: MixReadMostly, Clients: 10, Shards: 1, Fault: FaultNone, Duration: d},
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 10, Shards: 1, Fault: FaultNone, Duration: d},
		{Dist: DistZipf, Mix: MixScan, Clients: 10, Shards: 1, Fault: FaultNone, Duration: d},
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 100, Shards: 4, Fault: FaultNone, Duration: d},
		{Dist: DistUniform, Mix: MixWriteHeavy, Clients: 100, Shards: 8, Fault: FaultNone, Duration: d},
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 10, Shards: 1, Fault: FaultLyingSlave, Duration: d},
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 100, Shards: 1, Fault: FaultLyingSlave, Duration: d},
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 10, Shards: 1, Fault: FaultWithholdAcks, Duration: d},
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 10, Shards: 1, Fault: FaultMasterCrash, Duration: d},
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 10, Shards: 4, Fault: FaultMasterCrash, Duration: d},
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 10, Shards: 1, Fault: FaultPartition, Duration: d},
		{Dist: DistUniform, Mix: MixReadMostly, Clients: 100, Shards: 1, Fault: FaultLatencySpike, Duration: d},
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 10, Shards: 1, Fault: FaultClockSkew, Duration: d},
		{Dist: DistZipf, Mix: MixWriteHeavy, Clients: 100, Shards: 4, Fault: FaultClockSkew, Duration: d},
		// Last, so the cells above keep their per-index seeds.
		{Dist: DistZipf, Mix: MixReadMostly, Clients: 10, Shards: 1, Fault: FaultReadLiar, Duration: d},
	}
}

// FullGrid is the exhaustive matrix behind MATRIX_FULL=1: the full
// fault-free cross product (scan capped to one shard, 1000 clients
// capped to read-mostly so offered writes stay under group capacity)
// plus every fault plan crossed with both write intensities and both
// shard regimes.
func FullGrid() []Cell {
	d := 2500 * time.Millisecond
	var cells []Cell
	for _, dist := range []string{DistZipf, DistUniform} {
		for _, mix := range []string{MixReadMostly, MixWriteHeavy, MixScan} {
			for _, clients := range []int{10, 100, 1000} {
				for _, shards := range []int{1, 4, 8} {
					if mix == MixScan && shards > 1 {
						continue
					}
					if clients == 1000 && (mix != MixReadMostly || shards == 1) {
						continue
					}
					cells = append(cells, Cell{
						Dist: dist, Mix: mix, Clients: clients, Shards: shards,
						Fault: FaultNone, Duration: d,
					})
				}
			}
		}
	}
	for _, fault := range FaultNames() {
		if fault == FaultNone {
			continue
		}
		for _, mix := range []string{MixReadMostly, MixWriteHeavy} {
			for _, clients := range []int{10, 100} {
				for _, shards := range []int{1, 4} {
					cells = append(cells, Cell{
						Dist: DistZipf, Mix: mix, Clients: clients, Shards: shards,
						Fault: fault, Duration: d,
					})
				}
			}
		}
	}
	return cells
}

// Report is the consolidated benchmark-trajectory document written to
// BENCH_matrix.json: one grid run, every cell's Result.
type Report struct {
	Grid        string   `json:"grid"`
	Seed        int64    `json:"seed"`
	FailedCells int      `json:"failed_cells"`
	Cells       []Result `json:"cells"`
}

// BuildReport assembles the document and counts failed cells.
func BuildReport(grid string, seed int64, results []Result) Report {
	rep := Report{Grid: grid, Seed: seed, Cells: results}
	for _, r := range results {
		if !r.OK() {
			rep.FailedCells++
		}
	}
	return rep
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport reads a report WriteFile wrote.
func ReadReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &r)
	}
	return r, err
}

// Diff lists every cell whose figures differ between two runs of a grid,
// one line per cell: its label, then each figure that moved as
// "name before → after". A cell that only one run has is listed as such.
func Diff(base, head Report) []string {
	before := make(map[string]Result, len(base.Cells))
	for _, r := range base.Cells {
		before[r.Cell.Label()] = r
	}
	var out []string
	for _, h := range head.Cells {
		label := h.Cell.Label()
		b, ok := before[label]
		if !ok {
			out = append(out, label+": only in the second run")
			continue
		}
		delete(before, label)
		if moved := movedFigures(b, h); len(moved) > 0 {
			out = append(out, label+": "+strings.Join(moved, ", "))
		}
	}
	for _, b := range base.Cells {
		if _, ok := before[b.Cell.Label()]; ok {
			out = append(out, b.Cell.Label()+": only in the first run")
		}
	}
	return out
}

// movedFigures names each Result figure (by its JSON name) that differs.
func movedFigures(b, h Result) []string {
	bv, hv := reflect.ValueOf(b), reflect.ValueOf(h)
	var moved []string
	for i := 0; i < bv.NumField(); i++ {
		name, _, _ := strings.Cut(bv.Type().Field(i).Tag.Get("json"), ",")
		x, y := bv.Field(i).Interface(), hv.Field(i).Interface()
		if name != "cell" && x != y {
			moved = append(moved, fmt.Sprintf("%s %s → %s", name, figure(x), figure(y)))
		}
	}
	return moved
}

// figure prints a count as it is and a float to six significant digits.
func figure(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.6g", f)
	}
	return fmt.Sprint(v)
}
