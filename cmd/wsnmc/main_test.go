package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsnbcast/internal/mc"
)

func study(workers int) options {
	return options{
		topo: "2d4", proto: "paper", m: 8, n: 6,
		seed: 42, reps: 8,
		loss: "0,0.1", failure: "0",
		workers: workers, disableRepair: true,
	}
}

func TestStudyTablesAndZeroLossRow(t *testing.T) {
	var buf bytes.Buffer
	if err := run(study(0), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2D-4 paper-2d4 src=(4,3) nodes=48 seed=42 replications=8") {
		t.Errorf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "failure rate 0") {
		t.Errorf("missing failure-rate section:\n%s", out)
	}
	// The error-free grid point is deterministic: every replication
	// reaches every node, so the CI collapses to zero.
	if !strings.Contains(out, "1.0000 ± 0.0000") || !strings.Contains(out, "8/8") {
		t.Errorf("loss=0 row should be fully reached with zero CI:\n%s", out)
	}
}

// The report must be byte-identical for every -workers value.
func TestStudyWorkersByteIdentical(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		var buf bytes.Buffer
		if err := run(study(workers), &buf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			want = buf.String()
			continue
		}
		if buf.String() != want {
			t.Errorf("workers=%d output differs from workers=1", workers)
		}
	}
}

func TestJSONLRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	o := study(0)
	o.jsonl = path
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []mc.Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r mc.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*8 {
		t.Fatalf("got %d records, want 16 (2 grid points x 8 replications)", len(recs))
	}
	for _, r := range recs {
		if r.Total != 48 || r.Seed == 0 {
			t.Errorf("suspicious record %+v", r)
		}
		if r.LossRate == 0 && r.Reached != r.Total {
			t.Errorf("loss=0 rep %d reached %d/%d", r.Rep, r.Reached, r.Total)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	cases := map[string]struct {
		mutate func(*options)
		want   string
	}{
		"zero reps":        {func(o *options) { o.reps = 0 }, "-reps"},
		"negative reps":    {func(o *options) { o.reps = -3 }, "-reps"},
		"negative workers": {func(o *options) { o.workers = -1 }, "-workers"},
		"bad topo":         {func(o *options) { o.topo = "hex" }, "unknown topology"},
		"bad proto":        {func(o *options) { o.proto = "gossip" }, "unknown protocol"},
		"loss above one":   {func(o *options) { o.loss = "0,1.5" }, "outside [0, 1]"},
		"garbage loss":     {func(o *options) { o.loss = "abc" }, "invalid -loss rate"},
		"empty failure":    {func(o *options) { o.failure = "," }, "at least one rate"},
		"bad source":       {func(o *options) { o.source = "99,99" }, "outside"},
		"partial mesh":     {func(o *options) { o.m = 8; o.n = 0 }, "-m and -n"},
	}
	for name, tc := range cases {
		o := study(0)
		tc.mutate(&o)
		err := run(o, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}
}

func TestCanonicalMeshDefault(t *testing.T) {
	o := study(0)
	o.m, o.n = 0, 0
	o.topo = "3d6"
	o.reps = 2
	o.loss = "0"
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3D-6") {
		t.Errorf("canonical 3d6 header missing:\n%s", buf.String())
	}
}

// TestStoreModeByteIdentical: with -store, the first invocation
// computes and stores, repeats serve from the store, and every
// invocation prints the exact bytes of the storeless path.
func TestStoreModeByteIdentical(t *testing.T) {
	var direct bytes.Buffer
	if err := run(study(0), &direct); err != nil {
		t.Fatal(err)
	}

	o := study(0)
	o.storeDir = filepath.Join(t.TempDir(), "store")
	var first bytes.Buffer
	if err := run(o, &first); err != nil {
		t.Fatal(err)
	}
	if first.String() != direct.String() {
		t.Errorf("store-mode output differs from direct output:\n--- direct\n%s--- store\n%s", direct.String(), first.String())
	}
	objects, err := filepath.Glob(filepath.Join(o.storeDir, "objects", "*", "*"))
	if err != nil || len(objects) == 0 {
		t.Fatalf("store holds no objects after the first run (%v)", err)
	}
	var second bytes.Buffer
	if err := run(o, &second); err != nil {
		t.Fatal(err)
	}
	if second.String() != first.String() {
		t.Error("store-served repeat differs from the computed run")
	}
}

func TestStoreRejectsJSONL(t *testing.T) {
	o := study(0)
	o.storeDir = t.TempDir()
	o.jsonl = filepath.Join(t.TempDir(), "runs.jsonl")
	var buf bytes.Buffer
	err := run(o, &buf)
	if err == nil || !strings.Contains(err.Error(), "-jsonl") {
		t.Errorf("run(-store with -jsonl) = %v, want a -jsonl conflict error", err)
	}
}
