package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const beforeText = `goos: linux
pkg: wsnbcast/internal/sim
BenchmarkEngine/2D-4    	   34014	     36140 ns/op	   36536 B/op	     358 allocs/op
BenchmarkEngineSmall 	  170578	      7575 ns/op	    6104 B/op	      82 allocs/op
BenchmarkGone        	     100	      9999 ns/op	     100 B/op	      10 allocs/op
pkg: wsnbcast/internal/mc
BenchmarkMCReliability 	     104	  11189134 ns/op	 5873663 B/op	   88504 allocs/op
`

const afterText = `goos: linux
pkg: wsnbcast/internal/sim
BenchmarkEngine/2D-4    	  100000	     14047 ns/op	    4640 B/op	       5 allocs/op
BenchmarkEngineSmall 	  400000	      2530 ns/op	     672 B/op	       5 allocs/op
BenchmarkNew         	  200000	      5000 ns/op	     300 B/op	       3 allocs/op
pkg: wsnbcast/internal/mc
BenchmarkMCReliability 	     500	   2487367 ns/op	 1238158 B/op	   14736 allocs/op
`

func TestParseBench(t *testing.T) {
	results, pkgs, err := parseBench(strings.NewReader(beforeText))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(results))
	}
	key := "wsnbcast/internal/sim.BenchmarkEngine/2D-4"
	m, ok := results[key]
	if !ok {
		t.Fatalf("missing %s; got keys %v", key, results)
	}
	if m.NsPerOp != 36140 || m.BytesPerOp != 36536 || m.AllocsPerOp != 358 || m.Iterations != 34014 {
		t.Errorf("wrong metrics: %+v", m)
	}
	if pkgs[key] != "wsnbcast/internal/sim" {
		t.Errorf("pkg = %q", pkgs[key])
	}
}

// TestParseBenchCustomMetricColumns: b.ReportMetric columns between
// ns/op and B/op must not hide the allocation numbers.
func TestParseBenchCustomMetricColumns(t *testing.T) {
	const row = "pkg: wsnbcast/internal/life\n" +
		"BenchmarkLifetime \t      19\t  60279110 ns/op\t      1062 rounds/sec\t24145510 B/op\t    3447 allocs/op\n"
	results, _, err := parseBench(strings.NewReader(row))
	if err != nil {
		t.Fatal(err)
	}
	m := results["wsnbcast/internal/life.BenchmarkLifetime"]
	if m.NsPerOp != 60279110 || m.BytesPerOp != 24145510 || m.AllocsPerOp != 3447 || m.Iterations != 19 {
		t.Errorf("custom-metric row parsed wrong: %+v", m)
	}
}

// A run at GOMAXPROCS 2 suffixes every name with "-2". The suffix is
// dropped from the key and kept as the gomaxprocs field, so the row
// pairs with a baseline recorded at GOMAXPROCS 1, while a name that
// merely ends in digits keeps them.
func TestMergePairsAcrossGOMAXPROCS(t *testing.T) {
	const base = "pkg: wsnbcast/internal/life\n" +
		"BenchmarkLifetime \t 19\t 60279110 ns/op\t 24145510 B/op\t 3447 allocs/op\n" +
		"pkg: wsnbcast/internal/sim\n" +
		"BenchmarkEngine/2D-4 \t 34014\t 36140 ns/op\t 36536 B/op\t 358 allocs/op\n"
	const cur = "pkg: wsnbcast/internal/life\n" +
		"BenchmarkLifetime-2 \t 25\t 48000000 ns/op\t 8000000 B/op\t 1200 allocs/op\n" +
		"pkg: wsnbcast/internal/sim\n" +
		"BenchmarkEngine/2D-4-2 \t 100000\t 14047 ns/op\t 4640 B/op\t 5 allocs/op\n"
	before, pkgs, err := parseBench(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := parseBench(strings.NewReader(cur))
	if err != nil {
		t.Fatal(err)
	}
	entries := merge(before, after, pkgs)
	if len(entries) != 2 {
		t.Fatalf("merged %d entries, want 2 pairs: %+v", len(entries), entries)
	}
	for _, e := range entries {
		if e.Before == nil || e.After == nil {
			t.Fatalf("%s.%s did not pair: before %v, after %v", e.Pkg, e.Name, e.Before, e.After)
		}
		if e.Before.GOMAXPROCS != 1 || e.After.GOMAXPROCS != 2 {
			t.Errorf("%s: gomaxprocs %d -> %d, want 1 -> 2", e.Name, e.Before.GOMAXPROCS, e.After.GOMAXPROCS)
		}
	}
	if entries[0].Name != "BenchmarkLifetime" || entries[1].Name != "BenchmarkEngine/2D-4" {
		t.Errorf("names %q, %q; want BenchmarkLifetime and BenchmarkEngine/2D-4", entries[0].Name, entries[1].Name)
	}
}

func TestParseBenchWithoutBenchmem(t *testing.T) {
	results, _, err := parseBench(strings.NewReader("pkg: p\nBenchmarkX \t 10\t 123 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := results["p.BenchmarkX"]
	if m.NsPerOp != 123 || m.BytesPerOp != 0 || m.AllocsPerOp != 0 {
		t.Errorf("plain -bench row parsed wrong: %+v", m)
	}
}

func TestMergeComputesRatiosAndKeepsOrphans(t *testing.T) {
	before, pkgsB, _ := parseBench(strings.NewReader(beforeText))
	after, pkgsA, _ := parseBench(strings.NewReader(afterText))
	for k, p := range pkgsB {
		if _, ok := pkgsA[k]; !ok {
			pkgsA[k] = p
		}
	}
	entries := merge(before, after, pkgsA)
	if len(entries) != 5 {
		t.Fatalf("merged %d entries, want 5 (3 shared + 1 removed + 1 added)", len(entries))
	}
	byName := map[string]entry{}
	for _, e := range entries {
		byName[e.Pkg+"."+e.Name] = e
	}
	e := byName["wsnbcast/internal/sim.BenchmarkEngine/2D-4"]
	if e.Speedup < 2.5 || e.Speedup > 2.6 {
		t.Errorf("speedup = %v, want ~2.57", e.Speedup)
	}
	if e.AllocRatio < 71 || e.AllocRatio > 72 {
		t.Errorf("alloc ratio = %v, want ~71.6", e.AllocRatio)
	}
	if g := byName["wsnbcast/internal/sim.BenchmarkGone"]; g.After != nil || g.Before == nil || g.Speedup != 0 {
		t.Errorf("removed benchmark not reported as baseline-only: %+v", g)
	}
	if n := byName["wsnbcast/internal/sim.BenchmarkNew"]; n.Before != nil || n.After == nil {
		t.Errorf("added benchmark not reported as current-only: %+v", n)
	}
	// Deterministic order: sorted by pkg then name.
	if entries[0].Pkg > entries[len(entries)-1].Pkg {
		t.Errorf("entries not sorted by package: %v ... %v", entries[0], entries[len(entries)-1])
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bp := filepath.Join(dir, "before.txt")
	ap := filepath.Join(dir, "after.txt")
	if err := os.WriteFile(bp, []byte(beforeText), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ap, []byte(afterText), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(bp, ap, "", "2026-08-06", "", &buf); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.History) != 1 {
		t.Fatalf("stdout document has %d history entries, want 1", len(doc.History))
	}
	snap := doc.History[0]
	if snap.Date != "2026-08-06" || snap.Baseline != bp || len(snap.Results) != 5 {
		t.Errorf("snapshot = date %q baseline %q with %d results", snap.Date, snap.Baseline, len(snap.Results))
	}
}

// TestRunAppendsHistory drives the committed-file workflow: a first
// run creates a one-entry history, a second run appends a second dated
// entry, and a pre-history legacy snapshot is converted rather than
// clobbered.
func TestRunAppendsHistory(t *testing.T) {
	dir := t.TempDir()
	bp := filepath.Join(dir, "before.txt")
	ap := filepath.Join(dir, "after.txt")
	out := filepath.Join(dir, "BENCH_sim.json")
	os.WriteFile(bp, []byte(beforeText), 0o644)
	os.WriteFile(ap, []byte(afterText), 0o644)

	if err := run(bp, ap, out, "2026-08-05", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run(bp, ap, out, "2026-08-06", "", nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("history file is not valid JSON: %v", err)
	}
	if len(doc.History) != 2 || doc.History[0].Date != "2026-08-05" || doc.History[1].Date != "2026-08-06" {
		t.Fatalf("history entries wrong: %d entries", len(doc.History))
	}

	// Legacy single-snapshot file: converted, old results preserved.
	legacy := filepath.Join(dir, "legacy.json")
	var buf bytes.Buffer
	if err := run(bp, ap, "", "", "", &buf); err != nil {
		t.Fatal(err)
	}
	var one document
	json.Unmarshal(buf.Bytes(), &one)
	legacyBytes, _ := json.Marshal(one.History[0]) // {baseline, units, results}, dateless
	os.WriteFile(legacy, legacyBytes, 0o644)
	if err := run(bp, ap, legacy, "2026-08-06", "", nil); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(legacy)
	doc = document{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.History) != 2 || len(doc.History[0].Results) != 5 || doc.History[1].Date != "2026-08-06" {
		t.Fatalf("legacy conversion wrong: %d entries", len(doc.History))
	}

	// Garbage in the output path must error, not be overwritten.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if err := run(bp, ap, bad, "2026-08-06", "", nil); err == nil {
		t.Error("corrupt history file silently overwritten")
	}
}

// TestRunReplacesSameDateSnapshot: re-running bench-json on a date
// that already has an entry refreshes that entry in place instead of
// appending a duplicate, while legacy dateless entries are never
// matched by the upsert.
func TestRunReplacesSameDateSnapshot(t *testing.T) {
	dir := t.TempDir()
	bp := filepath.Join(dir, "before.txt")
	ap := filepath.Join(dir, "after.txt")
	out := filepath.Join(dir, "BENCH_sim.json")
	os.WriteFile(bp, []byte(beforeText), 0o644)
	os.WriteFile(ap, []byte(afterText), 0o644)

	if err := run(bp, ap, out, "2026-08-05", "", nil); err != nil {
		t.Fatal(err)
	}
	// Same date, different measurement (before vs itself: all pairs
	// shared, so the entry count changes from 5 to 4).
	if err := run(bp, bp, out, "2026-08-05", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run(bp, ap, out, "2026-08-06", "", nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.History) != 2 {
		t.Fatalf("history has %d entries, want 2 (same-date rerun must replace)", len(doc.History))
	}
	if doc.History[0].Date != "2026-08-05" || doc.History[1].Date != "2026-08-06" {
		t.Fatalf("history dates wrong: %q, %q", doc.History[0].Date, doc.History[1].Date)
	}
	if n := len(doc.History[0].Results); n != 4 {
		t.Errorf("replaced snapshot kept stale results: %d entries, want 4 from the rerun", n)
	}

	// Dateless snapshots (legacy conversions) never collide.
	hist := upsert([]snapshot{{Baseline: "old"}}, snapshot{Baseline: "new"})
	if len(hist) != 2 {
		t.Errorf("dateless snapshot replaced a legacy entry: %d entries, want 2", len(hist))
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	full := filepath.Join(dir, "full.txt")
	os.WriteFile(empty, []byte("no benchmarks here\n"), 0o644)
	os.WriteFile(full, []byte(beforeText), 0o644)
	if err := run(empty, full, "", "", "", &bytes.Buffer{}); err == nil {
		t.Error("empty baseline accepted")
	}
	if err := run(full, empty, "", "", "", &bytes.Buffer{}); err == nil {
		t.Error("empty current run accepted")
	}
}

// TestParseBenchMedianOfRepeatedRows: go test -count N prints one row
// per run; they fold into each column's median and the run count.
func TestParseBenchMedianOfRepeatedRows(t *testing.T) {
	const rows = "pkg: wsnbcast/internal/life\n" +
		"BenchmarkLifetime-2 \t 10\t 300 ns/op\t 7 rounds/sec\t 50 B/op\t 5 allocs/op\n" +
		"BenchmarkLifetime-2 \t 12\t 100 ns/op\t 9 rounds/sec\t 40 B/op\t 4 allocs/op\n" +
		"BenchmarkLifetime-2 \t 11\t 200 ns/op\t 8 rounds/sec\t 60 B/op\t 6 allocs/op\n" +
		"BenchmarkOnce-2 \t 3\t 42 ns/op\t 1 B/op\t 1 allocs/op\n"
	results, _, err := parseBench(strings.NewReader(rows))
	if err != nil {
		t.Fatal(err)
	}
	m := results["wsnbcast/internal/life.BenchmarkLifetime"]
	if m.NsPerOp != 200 || m.BytesPerOp != 50 || m.AllocsPerOp != 5 || m.Iterations != 11 ||
		m.Extra["rounds/sec"] != 8 || m.Runs != 3 || m.GOMAXPROCS != 2 {
		t.Errorf("median of three rows = %+v", m)
	}
	if once := results["wsnbcast/internal/life.BenchmarkOnce"]; once.Runs != 0 || once.NsPerOp != 42 {
		t.Errorf("single row = %+v, want it unchanged with no run count", once)
	}
}

// TestRunRecordsNote: -note lands in the snapshot.
func TestRunRecordsNote(t *testing.T) {
	dir := t.TempDir()
	bp := filepath.Join(dir, "before.txt")
	ap := filepath.Join(dir, "after.txt")
	if err := os.WriteFile(bp, []byte(beforeText), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ap, []byte(afterText), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(bp, ap, "", "2026-08-06", "5 runs on 2 vCPUs", &buf); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.History[0].Note; got != "5 runs on 2 vCPUs" {
		t.Errorf("note = %q", got)
	}
}
