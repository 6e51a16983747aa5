// Package workload generates the read/write traffic the experiments
// drive through the system: Zipf-skewed key popularity, configurable
// query mixes (point reads vs. scans, aggregations and greps — §2's
// "complex" reads), Poisson arrivals, and the diurnal (daily-peak)
// arrival pattern the paper's auditor argument relies on (§3.4).
package workload

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/query"
	"repro/internal/store"
)

// catalogKeys interns the hot low-index catalog keys: every generated
// read and write goes through CatalogKey, and the experiments' catalogs
// are small, so a precomputed table makes the common case alloc-free.
var catalogKeys = func() (t [4096]string) {
	for i := range t {
		t[i] = padded("catalog/", i, 5)
	}
	return
}()

// CatalogKey formats the i-th content key; the experiments' content is a
// product-catalogue-like keyspace plus a few document files.
func CatalogKey(i int) string {
	if i >= 0 && i < len(catalogKeys) {
		return catalogKeys[i]
	}
	return padded("catalog/", i, 5)
}

// DocKey formats the i-th document path.
func DocKey(i int) string { return padded("docs/file", i, 3) }

// padded is prefix then i zero-padded to width characters, sign included:
// fmt.Sprintf(prefix+"%0*d", width, i), without fmt's reflection.
func padded(prefix string, i, width int) string {
	var digits [20]byte
	var buf [48]byte // the string is the only allocation for a short key
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	b := append(buf[:0], prefix...)
	if i < 0 {
		b, d, width = append(b, '-'), d[1:], width-1
	}
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// BuildContent creates the initial data content: nCatalog numeric catalog
// entries and nDocs small text documents (grep targets). The bodies are
// formatted with strconv: a deployment builds 20 000 of them before it
// serves.
func BuildContent(nCatalog, nDocs int) *store.Store {
	s := store.New()
	for i := 0; i < nCatalog; i++ {
		s.Apply(store.Put{Key: CatalogKey(i), Value: strconv.AppendInt(nil, int64(100+i), 10)})
	}
	for i := 0; i < nDocs; i++ {
		status := "archived"
		if i%3 != 0 {
			status = "active"
		}
		body := padded("title doc", i, 3) + "\nprice " + strconv.Itoa(10*i) + "\nstatus " + status + "\n"
		s.Apply(store.Put{Key: DocKey(i), Value: []byte(body)})
	}
	return s
}

// KeyDist draws key indexes from a popularity distribution. The matrix
// crosses Zipf-skewed (Keys) against uniform (UniformKeys) popularity.
type KeyDist interface {
	Next() int
}

// Keys draws catalog indexes with Zipf popularity.
type Keys struct {
	zipf *rand.Zipf
	n    int
}

// NewKeys creates a Zipf(1.1) popularity distribution over n keys.
func NewKeys(rng *rand.Rand, n int) *Keys {
	return &Keys{zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), n: n}
}

// Next returns the next key index.
func (k *Keys) Next() int { return int(k.zipf.Uint64()) }

// UniformKeys draws catalog indexes uniformly — the skew-free contrast
// case in the workload matrix.
type UniformKeys struct {
	rng *rand.Rand
	n   int
}

// NewUniformKeys creates a uniform distribution over n keys.
func NewUniformKeys(rng *rand.Rand, n int) *UniformKeys {
	return &UniformKeys{rng: rng, n: n}
}

// Next returns the next key index.
func (u *UniformKeys) Next() int { return u.rng.Intn(u.n) }

// Mix describes the query mix as weights; they need not sum to one.
type Mix struct {
	Get    float64 // point lookup (static read)
	Range  float64 // ordered scan
	Count  float64 // aggregation
	Sum    float64 // aggregation
	Grep   float64 // file search
	Prefix float64 // listing
}

// DefaultMix is the read-heavy catalogue mix: mostly point reads with a
// meaningful tail of dynamic queries.
func DefaultMix() Mix {
	return Mix{Get: 0.70, Range: 0.08, Count: 0.07, Sum: 0.07, Grep: 0.05, Prefix: 0.03}
}

// StaticOnly is a mix of point reads only (state-signing's sweet spot).
func StaticOnly() Mix { return Mix{Get: 1} }

// ReadMostly is the matrix's point-read-dominated mix: almost all
// traffic is cheap static reads with a sliver of dynamic queries.
func ReadMostly() Mix {
	return Mix{Get: 0.95, Range: 0.03, Count: 0.01, Prefix: 0.01}
}

// ScanHeavy leans on ordered scans, aggregations, and listings — the
// expensive dynamic-query corner of the matrix.
func ScanHeavy() Mix {
	return Mix{Get: 0.30, Range: 0.40, Count: 0.10, Sum: 0.10, Grep: 0.05, Prefix: 0.05}
}

// Gen generates queries from a mix over the standard content layout.
type Gen struct {
	rng      *rand.Rand
	keys     KeyDist
	mix      Mix
	total    float64
	nCatalog int
	nDocs    int
}

// NewGen creates a generator with Zipf key popularity; nCatalog/nDocs
// must match BuildContent.
func NewGen(rng *rand.Rand, mix Mix, nCatalog, nDocs int) *Gen {
	return NewGenKeys(rng, NewKeys(rng, nCatalog), mix, nCatalog, nDocs)
}

// NewGenKeys creates a generator drawing keys from an explicit
// distribution (the matrix crosses Zipf and uniform popularity over the
// same mixes).
func NewGenKeys(rng *rand.Rand, keys KeyDist, mix Mix, nCatalog, nDocs int) *Gen {
	return &Gen{
		rng:      rng,
		keys:     keys,
		mix:      mix,
		total:    mix.Get + mix.Range + mix.Count + mix.Sum + mix.Grep + mix.Prefix,
		nCatalog: nCatalog,
		nDocs:    nDocs,
	}
}

// Next draws the next query.
func (g *Gen) Next() query.Query {
	x := g.rng.Float64() * g.total
	switch {
	case x < g.mix.Get:
		return query.Get{Key: CatalogKey(g.keys.Next())}
	case x < g.mix.Get+g.mix.Range:
		lo := g.keys.Next()
		return query.Range{From: CatalogKey(lo), To: CatalogKey(lo + 10), Limit: 10}
	case x < g.mix.Get+g.mix.Range+g.mix.Count:
		return query.Count{P: "catalog/"}
	case x < g.mix.Get+g.mix.Range+g.mix.Count+g.mix.Sum:
		return query.Sum{P: "catalog/"}
	case x < g.mix.Get+g.mix.Range+g.mix.Count+g.mix.Sum+g.mix.Grep:
		pats := []string{"price", "active", "doc0", "status"}
		return query.Grep{Pattern: pats[g.rng.Intn(len(pats))], PathPrefix: "docs/"}
	default:
		return query.Prefix{P: "docs/", Limit: 20}
	}
}

// IsStatic reports whether q is verifiable from signed state alone (a
// point read); everything else is "dynamic" in the paper's sense.
func IsStatic(q query.Query) bool {
	_, ok := q.(query.Get)
	return ok
}

// NextWrite draws a write op (a price update on a Zipf-popular key).
func (g *Gen) NextWrite(seq int) store.Op {
	return store.Put{
		Key:   CatalogKey(g.keys.Next()),
		Value: strconv.AppendInt(nil, int64(100+seq), 10),
	}
}

// Arrivals produces inter-arrival gaps.
type Arrivals interface {
	// NextGap returns the time until the next arrival, given the current
	// elapsed time since the workload started.
	NextGap(elapsed time.Duration) time.Duration
}

// Poisson is a constant-rate memoryless arrival process.
type Poisson struct {
	Rate float64 // arrivals per second
	Rng  *rand.Rand
}

// NextGap implements Arrivals.
func (p Poisson) NextGap(time.Duration) time.Duration {
	if p.Rate <= 0 {
		return time.Hour
	}
	gap := p.Rng.ExpFloat64() / p.Rate
	return time.Duration(gap * float64(time.Second))
}

// Uniform spaces arrivals evenly.
type Uniform struct {
	Every time.Duration
}

// NextGap implements Arrivals.
func (u Uniform) NextGap(time.Duration) time.Duration { return u.Every }

// Diurnal modulates a Poisson process with a sinusoidal day profile:
// rate(t) = Base + Amplitude * max(0, sin(2π t/Day - phase)). With the
// default phase the trough ("3AM in the night", §3.4) is at t=0 and the
// peak at half a Day.
type Diurnal struct {
	Base      float64 // floor arrivals/sec (never zero to keep progress)
	Amplitude float64 // peak addition at the top of the day
	Day       time.Duration
	Rng       *rand.Rand
}

// RateAt returns the instantaneous arrival rate at elapsed time t.
func (d Diurnal) RateAt(t time.Duration) float64 {
	frac := math.Mod(float64(t)/float64(d.Day), 1.0)
	// Shift so the minimum is at t=0.
	s := math.Sin(2*math.Pi*frac - math.Pi/2)
	return d.Base + d.Amplitude*(s+1)/2
}

// NextGap implements Arrivals.
func (d Diurnal) NextGap(elapsed time.Duration) time.Duration {
	rate := d.RateAt(elapsed)
	if rate <= 0 {
		rate = 0.01
	}
	gap := d.Rng.ExpFloat64() / rate
	return time.Duration(gap * float64(time.Second))
}

// Bursty is an on/off Poisson process: the first BurstFrac of every
// Period runs at Peak arrivals/sec, the rest at Base — flash-crowd
// traffic, the hostile arrival shape for admission pacing and batching.
type Bursty struct {
	Base      float64 // arrivals/sec outside the burst
	Peak      float64 // arrivals/sec during the burst
	Period    time.Duration
	BurstFrac float64 // fraction of each period spent at Peak (0..1)
	Rng       *rand.Rand
}

// RateAt returns the instantaneous arrival rate at elapsed time t.
func (b Bursty) RateAt(t time.Duration) float64 {
	if b.Period <= 0 {
		return b.Base
	}
	frac := math.Mod(float64(t)/float64(b.Period), 1.0)
	if frac < 0 {
		frac += 1.0
	}
	if frac < b.BurstFrac {
		return b.Peak
	}
	return b.Base
}

// NextGap implements Arrivals.
func (b Bursty) NextGap(elapsed time.Duration) time.Duration {
	rate := b.RateAt(elapsed)
	if rate <= 0 {
		rate = 0.01
	}
	gap := b.Rng.ExpFloat64() / rate
	return time.Duration(gap * float64(time.Second))
}
