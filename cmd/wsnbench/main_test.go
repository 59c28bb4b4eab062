package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// capture runs f with os.Stdout redirected and returns what it wrote.
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

func TestRunSingleTables(t *testing.T) {
	out, err := capture(t, func() error { return run(1, false, false, false, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2/3") || !strings.Contains(out, "Optimal ETR") {
		t.Errorf("table 1 output:\n%s", out)
	}
	out, err = capture(t, func() error { return run(2, false, false, false, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "255") || !strings.Contains(out, "2.61e-02") {
		t.Errorf("table 2 output:\n%s", out)
	}
}

func TestRunMarkdown(t *testing.T) {
	out, err := capture(t, func() error { return run(1, false, false, true, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "|---|") || !strings.Contains(out, "| 2D-3 | 2/3 |") {
		t.Errorf("markdown output:\n%s", out)
	}
}

func TestRunBadTable(t *testing.T) {
	if _, err := capture(t, func() error { return run(9, false, false, false, 0) }); err == nil {
		t.Error("table 9 accepted")
	}
}

func TestRunAblationsOnly(t *testing.T) {
	out, err := capture(t, func() error { return run(0, true, false, false, 0) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Ablation A1", "Ablation A2", "Ablation A3", "Ablation A4"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(out, "Table 2") {
		t.Error("ablations-only printed tables")
	}
}

func TestRunExtensionsOnly(t *testing.T) {
	out, err := capture(t, func() error { return run(0, false, true, false, 0) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Extension E1", "Extension E2", "Extension E3", "Extension E4", "Extension E5"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRejectsNegativeWorkers(t *testing.T) {
	err := run(1, false, false, false, -1)
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("run(workers=-1) = %v, want -workers validation error", err)
	}
}

// TestRunScale exercises the large-grid one-shot mode on a mesh small
// enough for CI.
func TestRunScale(t *testing.T) {
	out, err := capture(t, func() error { return runScale("2D-8", 64, 64, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4096 nodes") || !strings.Contains(out, "reached   4096/4096") {
		t.Errorf("2D-8 scale output:\n%s", out)
	}
	out, err = capture(t, func() error { return runScale("3D-6", 8, 8, 8) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "512 nodes") {
		t.Errorf("3D scale output:\n%s", out)
	}
}

func TestRunScaleRejectsBadInput(t *testing.T) {
	if err := runScale("2D-9", 8, 8, 1); err == nil || !strings.Contains(err.Error(), "-kind") {
		t.Errorf("bad kind: %v", err)
	}
	if err := runScale("2D-4", 0, 8, 1); err == nil {
		t.Error("zero width accepted")
	}
	if err := runScale("2D-4", 8, 8, 3); err == nil || !strings.Contains(err.Error(), "planar") {
		t.Errorf("planar kind with depth: %v", err)
	}
}
