// Command benchjson merges two `go test -bench -benchmem` text outputs
// — a pinned baseline and a current run — into a machine-readable
// record of before/after pairs with computed speedups, and appends it
// as a dated snapshot to a history document. The Makefile's bench-json
// target uses it to maintain BENCH_sim.json, the committed perf record
// for the engine work: each invocation adds one entry to the history
// array instead of overwriting the document, so the measurement
// trajectory across PRs stays reviewable. Re-running on a date that
// already has a snapshot replaces that day's entry rather than
// appending a duplicate. CI regenerates and uploads the same document
// as a build artifact.
//
// Usage:
//
//	benchjson -before bench/baseline.txt -after /tmp/bench.txt -o BENCH_sim.json
//
// A pre-history BENCH_sim.json (a single {baseline, units, results}
// snapshot) is converted in place: the old snapshot becomes the first
// history entry. Benchmarks present in only one input appear with the
// other side null, so a renamed or newly added benchmark is visible
// rather than silently dropped. Rows pair by name without the "-N"
// GOMAXPROCS suffix go test appends; each side records its GOMAXPROCS
// as a field. A benchmark that ran several times (go test -count N)
// records the median of each column and the number of runs. -note
// attaches a free-text remark to the snapshot: how it was measured,
// and on what host.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metrics is one side of a before/after pair. Extra holds custom
// b.ReportMetric columns keyed by their unit — the lifetime
// benchmarks' "rounds/sec" headline — so domain metrics survive into
// the history instead of only ns/op. GOMAXPROCS is the value the run
// used, read off the suffix go test appends to benchmark names.
type metrics struct {
	NsPerOp     float64            `json:"ns_op"`
	BytesPerOp  int64              `json:"b_op"`
	AllocsPerOp int64              `json:"allocs_op"`
	Iterations  int64              `json:"iterations"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	Runs        int                `json:"runs,omitempty"` // rows folded into the medians, when more than one
}

// entry is one benchmark's merged record. Speedup and AllocRatio are
// baseline/current — values above 1 mean the current run is better —
// and are omitted when either side is missing.
type entry struct {
	Name       string   `json:"name"`
	Pkg        string   `json:"pkg"`
	Before     *metrics `json:"before"`
	After      *metrics `json:"after"`
	Speedup    float64  `json:"speedup,omitempty"`
	AllocRatio float64  `json:"alloc_ratio,omitempty"`
}

// benchLine matches a -benchmem result row:
//
//	BenchmarkEngine/2D-4    34014    36140 ns/op    36536 B/op    358 allocs/op
//
// The B/op and allocs/op columns are optional (plain -bench output),
// and custom b.ReportMetric columns — "1062 rounds/sec" — may appear
// between ns/op and B/op without hiding the allocation numbers.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+[\d.eE+-]+ \S+)*?(?:\s+(\d+) B/op\s+(\d+) allocs/op)?\s*$`)

// parseBench reads `go test -bench` text output, returning metrics
// keyed by "pkg.Name" (the pkg: header lines scope the names, so equal
// benchmark names in different packages never collide). Names are
// keyed without their GOMAXPROCS suffix (see procsSuffix), so a run at
// GOMAXPROCS 2 pairs with a baseline recorded at 1.
func parseBench(r io.Reader) (map[string]metrics, map[string]string, error) {
	type row struct {
		pkg, name string
		mt        metrics
	}
	var rows []row
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		mt := metrics{NsPerOp: ns, Iterations: iters}
		// Columns after "ns/op" come in (value, unit) pairs: the
		// optional -benchmem columns, plus any custom ReportMetric
		// columns, which are kept under their unit string.
		f := strings.Fields(line)
		for i := 4; i+1 < len(f); i += 2 {
			val, unit := f[i], f[i+1]
			switch unit {
			case "B/op":
				mt.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				mt.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			default:
				if x, err := strconv.ParseFloat(val, 64); err == nil {
					if mt.Extra == nil {
						mt.Extra = make(map[string]float64)
					}
					mt.Extra[unit] = x
				}
			}
		}
		rows = append(rows, row{pkg, m[1], mt})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	names := make([]string, len(rows))
	for i, rw := range rows {
		names[i] = rw.name
	}
	suffix, procs := procsSuffix(names)
	runs := make(map[string][]metrics)
	pkgs := make(map[string]string)
	for _, rw := range rows {
		rw.mt.GOMAXPROCS = procs
		key := rw.pkg + "." + strings.TrimSuffix(rw.name, suffix)
		runs[key] = append(runs[key], rw.mt)
		pkgs[key] = rw.pkg
	}
	results := make(map[string]metrics, len(runs))
	for key, ms := range runs {
		results[key] = medianOf(ms)
	}
	return results, pkgs, nil
}

// medianOf folds the rows of one benchmark into one: each column's
// median (the mean of the middle two for an even count), and the row
// count when there is more than one. A single row comes back as is.
func medianOf(ms []metrics) metrics {
	if len(ms) == 1 {
		return ms[0]
	}
	col := func(f func(metrics) float64) float64 {
		v := make([]float64, len(ms))
		for i, m := range ms {
			v[i] = f(m)
		}
		sort.Float64s(v)
		mid := len(v) / 2
		if len(v)%2 == 1 {
			return v[mid]
		}
		return (v[mid-1] + v[mid]) / 2
	}
	out := metrics{
		NsPerOp:     col(func(m metrics) float64 { return m.NsPerOp }),
		BytesPerOp:  int64(col(func(m metrics) float64 { return float64(m.BytesPerOp) })),
		AllocsPerOp: int64(col(func(m metrics) float64 { return float64(m.AllocsPerOp) })),
		Iterations:  int64(col(func(m metrics) float64 { return float64(m.Iterations) })),
		GOMAXPROCS:  ms[0].GOMAXPROCS,
		Runs:        len(ms),
	}
	for unit := range ms[0].Extra {
		if out.Extra == nil {
			out.Extra = make(map[string]float64)
		}
		out.Extra[unit] = col(func(m metrics) float64 { return m.Extra[unit] })
	}
	return out
}

// procsSuffix returns the "-P" suffix go test appended to the
// benchmark names of one run, and P, its GOMAXPROCS: go test names a
// benchmark "BenchmarkLifetime-2" at GOMAXPROCS 2 and leaves the name
// bare at 1. The suffix is the "-P", P >= 2, that every name ends
// with; names that merely end in digits (BenchmarkEngine/2D-3 and
// BenchmarkEngine/2D-4 at GOMAXPROCS 1) share none, and then it is
// ("", 1).
func procsSuffix(names []string) (string, int) {
	suffix := ""
	for _, n := range names {
		i := strings.LastIndexByte(n, '-')
		if i < 0 || (suffix != "" && n[i:] != suffix) {
			return "", 1
		}
		suffix = n[i:]
	}
	p, err := strconv.Atoi(strings.TrimPrefix(suffix, "-"))
	if err != nil || p < 2 {
		return "", 1
	}
	return suffix, p
}

// merge joins the two parses into sorted entries.
func merge(before, after map[string]metrics, pkgs map[string]string) []entry {
	keys := make(map[string]bool)
	for k := range before {
		keys[k] = true
	}
	for k := range after {
		keys[k] = true
	}
	var out []entry
	for k := range keys {
		e := entry{Pkg: pkgs[k], Name: strings.TrimPrefix(k, pkgs[k]+".")}
		if m, ok := before[k]; ok {
			m := m
			e.Before = &m
		}
		if m, ok := after[k]; ok {
			m := m
			e.After = &m
		}
		if e.Before != nil && e.After != nil && e.After.NsPerOp > 0 {
			e.Speedup = round2(e.Before.NsPerOp / e.After.NsPerOp)
			if e.After.AllocsPerOp > 0 {
				e.AllocRatio = round2(float64(e.Before.AllocsPerOp) / float64(e.After.AllocsPerOp))
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// snapshot is one dated measurement: a full before/after merge.
type snapshot struct {
	Date     string            `json:"date,omitempty"`
	Note     string            `json:"note,omitempty"`
	Baseline string            `json:"baseline"`
	Units    map[string]string `json:"units"`
	Results  []entry           `json:"results"`
}

// document is the history file layout.
type document struct {
	History []snapshot `json:"history"`
}

// loadHistory reads the existing output file, if any. A legacy
// single-snapshot file (the pre-history {baseline, units, results}
// layout, no date) is wrapped as the first history entry so nothing
// measured before the format change is lost.
func loadHistory(path string) ([]snapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err == nil && doc.History != nil {
		return doc.History, nil
	}
	var legacy snapshot
	if err := json.Unmarshal(data, &legacy); err == nil && len(legacy.Results) > 0 {
		return []snapshot{legacy}, nil
	}
	return nil, fmt.Errorf("%s exists but is neither a history document nor a legacy snapshot", path)
}

// buildSnapshot parses and merges one before/after pair.
func buildSnapshot(beforePath, afterPath, date, note string) (snapshot, error) {
	var snap snapshot
	bf, err := os.Open(beforePath)
	if err != nil {
		return snap, err
	}
	defer bf.Close()
	af, err := os.Open(afterPath)
	if err != nil {
		return snap, err
	}
	defer af.Close()

	before, pkgsB, err := parseBench(bf)
	if err != nil {
		return snap, fmt.Errorf("parse %s: %w", beforePath, err)
	}
	after, pkgsA, err := parseBench(af)
	if err != nil {
		return snap, fmt.Errorf("parse %s: %w", afterPath, err)
	}
	if len(before) == 0 {
		return snap, fmt.Errorf("%s contains no benchmark results", beforePath)
	}
	if len(after) == 0 {
		return snap, fmt.Errorf("%s contains no benchmark results", afterPath)
	}
	for k, p := range pkgsB {
		if _, ok := pkgsA[k]; !ok {
			pkgsA[k] = p
		}
	}
	return snapshot{
		Date:     date,
		Note:     note,
		Baseline: beforePath,
		Units:    map[string]string{"ns_op": "ns/op", "b_op": "B/op", "allocs_op": "allocs/op"},
		Results:  merge(before, after, pkgsA),
	}, nil
}

// upsert adds snap to the history. A snapshot dated the same as an
// existing entry replaces that entry in place — re-running bench-json
// twice in a day must refresh the day's measurement, not record it
// twice. Legacy dateless entries are never matched (and a dateless
// snap never matches them), so converted pre-history files only grow.
func upsert(hist []snapshot, snap snapshot) []snapshot {
	if snap.Date != "" {
		for i := range hist {
			if hist[i].Date == snap.Date {
				hist[i] = snap
				return hist
			}
		}
	}
	return append(hist, snap)
}

// run upserts a dated snapshot into outPath's history (creating or
// converting the file as needed), or writes a one-entry history to w
// when outPath is empty.
func run(beforePath, afterPath, outPath, date, note string, w io.Writer) error {
	snap, err := buildSnapshot(beforePath, afterPath, date, note)
	if err != nil {
		return err
	}
	hist := []snapshot{snap}
	if outPath != "" {
		prev, err := loadHistory(outPath)
		if err != nil {
			return err
		}
		hist = upsert(prev, snap)
	}
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(document{History: hist}); err != nil {
		return err
	}
	if outPath == "" {
		_, err := io.WriteString(w, buf.String())
		return err
	}
	return os.WriteFile(outPath, []byte(buf.String()), 0o644)
}

func main() {
	before := flag.String("before", "", "baseline `file` (go test -bench -benchmem output)")
	after := flag.String("after", "", "current `file` (same format)")
	out := flag.String("o", "", "history file to append to (default: print a one-entry history to stdout)")
	date := flag.String("date", "", "snapshot date (default today, YYYY-MM-DD)")
	note := flag.String("note", "", "free-text remark recorded with the snapshot (how and where it was measured)")
	flag.Parse()
	if *before == "" || *after == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -before and -after are required")
		flag.Usage()
		os.Exit(2)
	}
	if *date == "" {
		*date = time.Now().Format("2006-01-02")
	}
	if err := run(*before, *after, *out, *date, *note, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
