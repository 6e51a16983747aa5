package analysis_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// seededBugs are the bugs each analyzer exists to catch, seeded one at a
// time into a copy of the module's real sources: from (which must occur
// once in file) becomes to, and the seeded file must then draw a report on
// the line where at (which must occur once in it) begins.
var seededBugs = []struct {
	name     string
	analyzer *analysis.Analyzer
	file     string
	from, to string
	at       string
}{
	{
		name: "master report counter unlocked", analyzer: analysis.Lockcheck, file: "internal/core/master.go",
		from: "\tm.mu.Lock()\n\tm.stats.Reports++\n\tproven := false\n\tif m.store.Version() == pledge.Stamp.Version {\n\t\tproven, _ = pledge.contradictedBy(m.store, tab)\n\t}\n\tm.mu.Unlock()\n",
		to:   "\tm.stats.Reports++\n\tproven := false\n\tif m.store.Version() == pledge.Stamp.Version {\n\t\tproven, _ = pledge.contradictedBy(m.store, tab)\n\t}\n",
		at:   "\tm.stats.Reports++\n",
	},
	{
		name: "slave keep-alive unlocked", analyzer: analysis.Lockcheck, file: "internal/core/slave.go",
		from: "\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n\ts.stats.KeepAlives++\n",
		to:   "\ts.stats.KeepAlives++\n",
		at:   "\ts.stats.KeepAlives++\n",
	},
	// The one rule every batch a replica takes passes through, with one of
	// its checks dropped: what it returns is reported.
	{
		name: "one rule without stamp check", analyzer: analysis.Trustcheck, file: "internal/core/types.go",
		from: "\tif err = stamps.verifyStamp(&bu.Stamp, trusted, m); err != nil {\n\t\treturn b, err\n\t}\n",
		at:   "\treturn openedBatch{BatchUpdate: bu, ops: decoded}, nil\n",
	},
	{
		name: "one rule without VerifyMembers", analyzer: analysis.Trustcheck, file: "internal/core/types.go",
		from: "\tif err := bu.VerifyMembers(); err != nil {\n\t\treturn b, err\n\t}\n",
		at:   "\treturn openedBatch{BatchUpdate: bu, ops: decoded}, nil\n",
	},
	// A consumer that reads its batch with a rule of its own, missing one
	// check, instead of opening it through the one rule: the batch is
	// reported where it is applied, installed or handed back as verified.
	{
		name: "slave keep-alive without stamp check", analyzer: analysis.Trustcheck, file: "internal/core/slave.go",
		from: "\tif err := s.stamps.verifyStamp(&stamp, s.cfg.MasterPubs, s.meter); err != nil {\n\t\treturn nil, err\n\t}\n",
		at:   "\t_, _ = s.adoptTransferLocked(&stateTransfer{snapStamp: stamp})\n",
	},
	{
		name: "WAL replay without VerifyMembers", analyzer: analysis.Trustcheck, file: "internal/core/durable.go",
		from: "\tb, err := openBatch(r, []cryptoutil.PublicKey{m.cfg.Keys.Public}, nil, nil)\n",
		to:   "\tbu, err := decodeBatchEntry(r)\n\tif err == nil {\n\t\terr = bu.Stamp.Verify([]cryptoutil.PublicKey{m.cfg.Keys.Public})\n\t}\n\tb := openedBatch{BatchUpdate: bu}\n",
		at:   "m.adoptTransferLocked(&stateTransfer{batches: []openedBatch{b}, anchor: seq})",
	},
	{
		name: "WAL replay without stamp check", analyzer: analysis.Trustcheck, file: "internal/core/durable.go",
		from: "\tb, err := openBatch(r, []cryptoutil.PublicKey{m.cfg.Keys.Public}, nil, nil)\n",
		to:   "\tbu, err := decodeBatchEntry(r)\n\tif err == nil {\n\t\terr = bu.VerifyMembers()\n\t}\n\tb := openedBatch{BatchUpdate: bu}\n",
		at:   "m.adoptTransferLocked(&stateTransfer{batches: []openedBatch{b}, anchor: seq})",
	},
	{
		name: "state transfer without VerifyMembers", analyzer: analysis.Trustcheck, file: "internal/core/statetransfer.go",
		from: "\t\tb, err := openBatch(r, trusted, stamps, m)\n",
		to:   "\t\tbu, err := decodeBatchEntry(r)\n\t\t_ = stamps.verifyStamp(&bu.Stamp, trusted, m)\n\t\tb := openedBatch{BatchUpdate: bu}\n",
		at:   "\treturn st, nil\n}\n\n// stamp is",
	},
	{
		name: "state transfer without stamp check", analyzer: analysis.Trustcheck, file: "internal/core/statetransfer.go",
		from: "\t\tb, err := openBatch(r, trusted, stamps, m)\n",
		to:   "\t\tbu, err := decodeBatchEntry(r)\n\t\t_ = bu.VerifyMembers()\n\t\tb := openedBatch{BatchUpdate: bu}\n",
		at:   "\treturn st, nil\n}\n\n// stamp is",
	},
}

// TestAnalyzersCatchSeededBugs shows each analyzer catching its bug class
// in the real tree, not only in its golden files: the unseeded copy draws
// no report, and every seeded row draws one at its line.
func TestAnalyzersCatchSeededBugs(t *testing.T) {
	root := copyModule(t)
	analyzers := []*analysis.Analyzer{analysis.Lockcheck, analysis.Trustcheck}
	for _, d := range analyze(t, root, "internal/core", analyzers) {
		t.Errorf("unseeded tree: %s", d)
	}
	for _, row := range seededBugs {
		t.Run(row.name, func(t *testing.T) {
			path := filepath.Join(root, row.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, orig, 0o644)
			if n := strings.Count(string(orig), row.from); n != 1 {
				t.Fatalf("%s: the seed's text occurs %d times, want 1", row.file, n)
			}
			seeded := strings.Replace(string(orig), row.from, row.to, 1)
			if n := strings.Count(seeded, row.at); n != 1 {
				t.Fatalf("%s: %q occurs %d times in the seeded file, want 1", row.file, row.at, n)
			}
			line := strings.Count(seeded[:strings.Index(seeded, row.at)], "\n") + 1
			if err := os.WriteFile(path, []byte(seeded), 0o644); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%s:%d:", row.file, line)
			got := analyze(t, root, filepath.Dir(row.file), []*analysis.Analyzer{row.analyzer})
			for _, d := range got {
				if strings.HasPrefix(d, want) {
					return
				}
			}
			t.Errorf("no %s report at %s %s; got %q", row.analyzer.Name, want, strings.TrimSpace(row.at), got)
		})
	}
}

// analyze loads the package at dir (relative to root) and the module
// packages it imports, fails on any type error, and returns the
// diagnostics as "file:line:col: analyzer: message", file relative to root.
func analyze(t *testing.T, root, dir string, analyzers []*analysis.Analyzer) []string {
	t.Helper()
	pkgs, err := analysis.LoadModule(root, []string{"./" + filepath.ToSlash(dir)})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range pkgs[0].TypeErrors {
		t.Fatalf("type error: %v", err)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		rel, _ := filepath.Rel(root, pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d:%d: %s: %s", filepath.ToSlash(rel), pos.Line, pos.Column, d.Analyzer, d.Message))
	}
	return out
}

// copyModule copies go.mod and every non-test Go file of the module
// containing the working directory into a temporary directory, leaving
// out testdata, hidden directories and nested modules.
func copyModule(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if e.IsDir() {
			name := e.Name()
			if path != src && (strings.HasPrefix(name, ".") || name == "testdata" || exists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
