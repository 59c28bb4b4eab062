package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/service"
	"wsnbcast/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden CSV files")

func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errCh := make(chan error, 1)
	go func() {
		errCh <- f()
		w.Close()
	}()
	out, readErr := io.ReadAll(r)
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(out), <-errCh
}

func TestSweepCSV(t *testing.T) {
	out, err := capture(t, func() error { return run("2d4", "paper", 6, 4, 0, 0, "") })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+24 {
		t.Fatalf("line count = %d, want header + 24 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "topology,protocol,src_x") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		fields := strings.Split(l, ",")
		if len(fields) != 14 {
			t.Fatalf("row %q has %d fields", l, len(fields))
		}
		if fields[12] != fields[13] {
			t.Errorf("row %q: reached != total", l)
		}
	}
}

func TestSweepFloodingProto(t *testing.T) {
	out, err := capture(t, func() error { return run("2d8", "flooding-jitter", 5, 4, 0, 0, "") })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "flooding-jitter") {
		t.Error("protocol column wrong")
	}
}

// The CSV must be byte-identical for every -workers value: the sweep
// engine orders rows by job, not by completion.
func TestSweepWorkersByteIdentical(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		out, err := capture(t, func() error { return run("", "paper", 8, 4, 2, workers, "") })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			want = out
			continue
		}
		if out != want {
			t.Errorf("workers=%d output differs from workers=1", workers)
		}
	}
}

// TestSweepGolden pins the CSV bytes of the paper protocol on all four
// kinds and of jittered flooding on 2D-8, computed fresh and served
// from a store, at one and four workers. Regenerate with -update after
// an intended output change.
func TestSweepGolden(t *testing.T) {
	cases := []struct {
		golden, topo, proto string
		m, n, l             int
	}{
		{"paper-8x4x2.golden", "", "paper", 8, 4, 2},
		{"flooding-jitter-2d8-5x4.golden", "2d8", "flooding-jitter", 5, 4, 0},
	}
	for _, tc := range cases {
		path := filepath.Join("testdata", tc.golden)
		if *update {
			out, err := capture(t, func() error { return run(tc.topo, tc.proto, tc.m, tc.n, tc.l, 1, "") })
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			dir := filepath.Join(t.TempDir(), "store")
			// "" computes directly; the store runs twice: computed and
			// stored, then served from the store.
			for i, storeDir := range []string{"", dir, dir} {
				out, err := capture(t, func() error { return run(tc.topo, tc.proto, tc.m, tc.n, tc.l, workers, storeDir) })
				if err != nil {
					t.Fatalf("%s workers=%d run %d: %v", tc.golden, workers, i, err)
				}
				if out != string(want) {
					t.Errorf("%s workers=%d run %d (store %q): CSV differs from the golden file", tc.golden, workers, i, storeDir)
				}
			}
		}
	}
}

// A custom mesh needs both -m and -n, each >= 1; anything else used to
// fall back to the canonical mesh silently.
func TestRejectsPartialMesh(t *testing.T) {
	for _, mn := range [][2]int{{5, 0}, {0, 5}, {-1, 4}, {4, -2}} {
		out, err := capture(t, func() error { return run("2d4", "paper", mn[0], mn[1], 0, 0, "") })
		if err == nil || !strings.Contains(err.Error(), "mesh needs -m and -n >= 1") {
			t.Errorf("-m %d -n %d: err = %v, want the mesh-size error", mn[0], mn[1], err)
		}
		if out != "" {
			t.Errorf("-m %d -n %d: wrote %q before failing", mn[0], mn[1], out)
		}
	}
}

func TestKindsAndProtocolParsing(t *testing.T) {
	ks, err := kinds("")
	if err != nil || len(ks) != 4 {
		t.Errorf("kinds('') = %v, %v", ks, err)
	}
	if _, err := kinds("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
	if _, err := protocol("bogus", grid.Mesh2D4); err == nil {
		t.Error("bogus protocol accepted")
	}
	p, err := protocol("", grid.Mesh2D8)
	if err != nil || p.Name() != "paper-2d8" {
		t.Errorf("default protocol = %v, %v", p, err)
	}
}

func TestRejectsNegativeWorkers(t *testing.T) {
	err := run("2d4", "paper", 4, 4, 0, -1, "")
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("run(workers=-1) = %v, want -workers validation error", err)
	}
}

// TestStoreModeByteIdentical: with -store, the first invocation
// computes and stores each topology's sweep, repeats serve from the
// store, and the CSV is byte-identical to the direct path either way.
func TestStoreModeByteIdentical(t *testing.T) {
	direct, err := capture(t, func() error { return run("", "paper", 6, 4, 2, 0, "") })
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	first, err := capture(t, func() error { return run("", "paper", 6, 4, 2, 0, dir) })
	if err != nil {
		t.Fatal(err)
	}
	if first != direct {
		t.Errorf("store-mode CSV differs from direct CSV:\n--- direct\n%s--- store\n%s", direct, first)
	}
	second, err := capture(t, func() error { return run("", "paper", 6, 4, 2, 0, dir) })
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("store-served repeat differs from the computed run")
	}
}

// TestStoreSharedWithService: a sweep computed by the CLI serves the
// HTTP service from the store without simulating, byte-identically —
// the CLI and the service share one content-addressed identity.
func TestStoreSharedWithService(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := capture(t, func() error { return run("2d4", "paper", 6, 4, 0, 0, dir) }); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Store: st})
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"topology": {"kind": "2d4", "m": 6, "n": 4}}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("service sweep over CLI store: %d, body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Cache"); got != "store" {
		t.Errorf("X-Cache = %q, want store (CLI-computed entry)", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
