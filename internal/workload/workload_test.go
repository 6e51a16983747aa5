package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/store"
)

func TestBuildContentLayout(t *testing.T) {
	s := BuildContent(100, 10)
	if s.Len() != 110 {
		t.Fatalf("len = %d", s.Len())
	}
	if v, ok := s.Get(CatalogKey(0)); !ok || string(v) != "100" {
		t.Fatalf("catalog[0] = %q ok=%v", v, ok)
	}
	if _, ok := s.Get(DocKey(9)); !ok {
		t.Fatal("doc missing")
	}
	// Content is deterministic.
	if BuildContent(100, 10).StateDigest() != s.StateDigest() {
		t.Fatal("content not deterministic")
	}
}

// TestBuildContentMatchesSprintf pins the strconv formatting to the
// fmt.Sprintf layout the content has always had: the same keys, values and
// document bodies, so the same state digest; and padded to fmt's %0*d
// across widths, signs and the interned table's edge.
func TestBuildContentMatchesSprintf(t *testing.T) {
	want := store.New()
	for i := 0; i < 5000; i++ {
		want.Apply(store.Put{Key: fmt.Sprintf("catalog/%05d", i), Value: []byte(fmt.Sprintf("%d", 100+i))})
	}
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf("title doc%03d\nprice %d\nstatus %s\n",
			i, 10*i, map[bool]string{true: "active", false: "archived"}[i%3 != 0])
		want.Apply(store.Put{Key: fmt.Sprintf("docs/file%03d", i), Value: []byte(body)})
	}
	if BuildContent(5000, 40).StateDigest() != want.StateDigest() {
		t.Fatal("BuildContent differs from its fmt.Sprintf layout")
	}
	for _, i := range []int{-123456, -1000, -12, -1, 0, 7, 999, 1000, 4095, 4096, 99999, 123456} {
		for _, width := range []int{0, 3, 5} {
			if got, want := padded("p/", i, width), fmt.Sprintf("p/%0*d", width, i); got != want {
				t.Errorf("padded(%d, %d) = %q, want %q", i, width, got, want)
			}
		}
	}
}

func TestKeysZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := NewKeys(rng, 1000)
	counts := make(map[int]int)
	for i := 0; i < 10000; i++ {
		counts[k.Next()]++
	}
	if counts[0] < counts[500]*2 {
		t.Fatalf("no zipf skew: head=%d mid=%d", counts[0], counts[500])
	}
}

func TestGenRespectsStaticOnlyMix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGen(rng, StaticOnly(), 100, 10)
	for i := 0; i < 200; i++ {
		if !IsStatic(g.Next()) {
			t.Fatal("static-only mix produced dynamic query")
		}
	}
}

func TestGenMixProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGen(rng, DefaultMix(), 100, 10)
	static := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if IsStatic(g.Next()) {
			static++
		}
	}
	frac := float64(static) / n
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("static fraction = %v, want ~0.70", frac)
	}
}

func TestGenQueriesExecutable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := BuildContent(100, 10)
	g := NewGen(rng, DefaultMix(), 100, 10)
	for i := 0; i < 300; i++ {
		q := g.Next()
		if _, err := q.Execute(s); err != nil {
			t.Fatalf("%v: %v", q, err)
		}
	}
}

func TestNextWriteTargetsCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGen(rng, DefaultMix(), 100, 10)
	s := BuildContent(100, 10)
	for i := 0; i < 50; i++ {
		if err := s.Apply(g.NextWrite(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 110 {
		t.Fatalf("writes created keys outside the catalog: len=%d", s.Len())
	}
}

func TestPoissonMeanGap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Poisson{Rate: 100, Rng: rng}
	var total time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		total += p.NextGap(0)
	}
	mean := total / n
	want := 10 * time.Millisecond
	if mean < want/2 || mean > want*2 {
		t.Fatalf("mean gap = %v, want ~%v", mean, want)
	}
}

func TestUniformGap(t *testing.T) {
	u := Uniform{Every: 7 * time.Millisecond}
	if u.NextGap(0) != 7*time.Millisecond {
		t.Fatal("uniform gap wrong")
	}
}

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{Base: 1, Amplitude: 10, Day: 24 * time.Hour}
	trough := d.RateAt(0)
	peak := d.RateAt(12 * time.Hour)
	if trough != 1 {
		t.Fatalf("trough rate = %v, want 1", trough)
	}
	if peak < 10.9 || peak > 11.1 {
		t.Fatalf("peak rate = %v, want ~11", peak)
	}
	// Next day repeats.
	if d.RateAt(36*time.Hour) != peak {
		t.Fatalf("not periodic")
	}
}

func TestDiurnalGapsFollowRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := Diurnal{Base: 1, Amplitude: 50, Day: time.Hour, Rng: rng}
	gapAt := func(t0 time.Duration) time.Duration {
		var total time.Duration
		for i := 0; i < 500; i++ {
			total += d.NextGap(t0)
		}
		return total / 500
	}
	if gapAt(0) < 2*gapAt(30*time.Minute) {
		t.Fatalf("trough gaps (%v) should be much larger than peak gaps (%v)",
			gapAt(0), gapAt(30*time.Minute))
	}
}

// TestZipfTopKeyMass pins the distribution shape the matrix's "zipf"
// cells assume: the hottest key carries a large, bounded share of the
// draws and the head dominates the tail.
func TestZipfTopKeyMass(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	k := NewKeys(rng, 96)
	const n = 20000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		idx := k.Next()
		if idx < 0 || idx >= 96 {
			t.Fatalf("key index %d outside catalog", idx)
		}
		counts[idx]++
	}
	top := float64(counts[0]) / n
	if top < 0.15 || top > 0.45 {
		t.Fatalf("top-key mass = %.3f, want within [0.15, 0.45] for Zipf(1.1)", top)
	}
	head := 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	if frac := float64(head) / n; frac < 0.5 {
		t.Fatalf("top-10 mass = %.3f, want >= 0.5", frac)
	}
}

// TestUniformKeysFlat pins the contrast case: no key is hot.
func TestUniformKeysFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u := NewUniformKeys(rng, 96)
	const n = 20000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		idx := u.Next()
		if idx < 0 || idx >= 96 {
			t.Fatalf("key index %d outside catalog", idx)
		}
		counts[idx]++
	}
	if len(counts) != 96 {
		t.Fatalf("only %d of 96 keys drawn", len(counts))
	}
	for idx, c := range counts {
		if frac := float64(c) / n; frac > 0.03 {
			t.Fatalf("uniform key %d carries %.3f of the mass (mean is %.4f)", idx, frac, 1.0/96)
		}
	}
}

// TestMixRatiosHonored checks the matrix's named mixes produce their
// advertised static/dynamic split over a large sample.
func TestMixRatiosHonored(t *testing.T) {
	cases := []struct {
		name   string
		mix    Mix
		lo, hi float64 // static-fraction band
	}{
		{"read-mostly", ReadMostly(), 0.92, 0.98},
		{"scan-heavy", ScanHeavy(), 0.25, 0.35},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(10))
		g := NewGen(rng, tc.mix, 96, 8)
		static := 0
		const n = 10000
		for i := 0; i < n; i++ {
			if IsStatic(g.Next()) {
				static++
			}
		}
		frac := float64(static) / n
		if frac < tc.lo || frac > tc.hi {
			t.Errorf("%s: static fraction %.3f outside [%.2f, %.2f]", tc.name, frac, tc.lo, tc.hi)
		}
	}
}

// TestGenDeterministicFromSeed: two generators built from equal seeds
// emit identical query and write streams — the property that makes a
// matrix cell reproducible.
func TestGenDeterministicFromSeed(t *testing.T) {
	build := func() *Gen {
		rng := rand.New(rand.NewSource(11))
		return NewGenKeys(rng, NewUniformKeys(rng, 96), ScanHeavy(), 96, 8)
	}
	a, b := build(), build()
	for i := 0; i < 500; i++ {
		qa, qb := a.Next(), b.Next()
		if fmt.Sprintf("%#v", qa) != fmt.Sprintf("%#v", qb) {
			t.Fatalf("query %d diverged: %#v vs %#v", i, qa, qb)
		}
		wa, wb := a.NextWrite(i), b.NextWrite(i)
		if fmt.Sprintf("%#v", wa) != fmt.Sprintf("%#v", wb) {
			t.Fatalf("write %d diverged: %#v vs %#v", i, wa, wb)
		}
	}
}

// TestBurstyShape pins the on/off arrival profile: Peak inside the
// burst window, Base outside, periodic, and visibly shorter gaps
// during the burst.
func TestBurstyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := Bursty{Base: 1, Peak: 100, Period: time.Minute, BurstFrac: 0.1, Rng: rng}
	if got := b.RateAt(3 * time.Second); got != 100 {
		t.Fatalf("burst rate = %v, want 100", got)
	}
	if got := b.RateAt(30 * time.Second); got != 1 {
		t.Fatalf("off rate = %v, want 1", got)
	}
	if got := b.RateAt(time.Minute + 3*time.Second); got != 100 {
		t.Fatal("burst not periodic")
	}
	gapAt := func(t0 time.Duration) time.Duration {
		var total time.Duration
		for i := 0; i < 500; i++ {
			total += b.NextGap(t0)
		}
		return total / 500
	}
	if burst, off := gapAt(time.Second), gapAt(30*time.Second); off < 20*burst {
		t.Fatalf("burst gaps (%v) should dwarf off gaps (%v)", burst, off)
	}
}

func TestIsStatic(t *testing.T) {
	if !IsStatic(query.Get{Key: "x"}) {
		t.Fatal("get not static")
	}
	if IsStatic(query.Count{P: "x"}) || IsStatic(query.Grep{Pattern: "a"}) {
		t.Fatal("dynamic classified static")
	}
}
