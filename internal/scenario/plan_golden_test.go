package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsnbcast/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files")

// planGolden is one testdata/plan-*.golden file: a request kind, its
// canonical document, the SHA-256 of every point payload, and the
// merged response body.
type planGolden struct {
	kind   string
	doc    []byte
	points []string
	body   []byte
}

func readPlanGolden(t *testing.T, path string) planGolden {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, body, ok := bytes.Cut(raw, []byte("body:\n"))
	if !ok {
		t.Fatalf("%s: no body section", path)
	}
	g := planGolden{body: body}
	for _, line := range strings.Split(strings.TrimSuffix(string(head), "\n"), "\n") {
		key, val, _ := strings.Cut(line, " ")
		switch key {
		case "kind:":
			g.kind = val
		case "scenario:":
			g.doc = []byte(val)
		case "point":
			var i int
			var sum string
			if _, err := fmt.Sscanf(val, "%d %s", &i, &sum); err != nil || i != len(g.points) {
				t.Fatalf("%s: bad point line %q", path, line)
			}
			g.points = append(g.points, sum)
		default:
			t.Fatalf("%s: unknown line %q", path, line)
		}
	}
	return g
}

func (g planGolden) write(path string) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "kind: %s\nscenario: %s\n", g.kind, g.doc)
	for i, sum := range g.points {
		fmt.Fprintf(&b, "point %d %s\n", i, sum)
	}
	b.WriteString("body:\n")
	b.Write(g.body)
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// TestPlanGolden pins every shape's output bytes: the in-process
// Plan.Run at 1 and 4 workers and the job path (Exec, Encode, Decode,
// Merge) must both reproduce the merged body, and every point payload
// its digest. The goldens were first captured from the separate sync
// and job implementations this plan replaced.
// Regenerate with: go test ./internal/scenario -run PlanGolden -update
func TestPlanGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "plan-*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no plan goldens (err %v)", err)
	}
	ctx := context.Background()
	for _, path := range paths {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".golden"), func(t *testing.T) {
			g := readPlanGolden(t, path)
			sc, err := Load(bytes.NewReader(g.doc))
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlan(g.kind, sc)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]any, p.Points())
			sums := make([]string, p.Points())
			for i := range parts {
				v, err := p.Exec(ctx, i, nil, 0)
				if err != nil {
					t.Fatalf("point %d: %v", i, err)
				}
				raw, err := p.Encode(v)
				if err != nil {
					t.Fatal(err)
				}
				sums[i] = fmt.Sprintf("%x", sha256.Sum256(raw))
				if parts[i], err = p.Decode(i, raw); err != nil {
					t.Fatalf("point %d: %v", i, err)
				}
			}
			rep, err := p.Merge(parts)
			if err != nil {
				t.Fatal(err)
			}
			jobBody, err := store.EncodeBody(rep)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				g.points, g.body = sums, jobBody
				if err := g.write(path); err != nil {
					t.Fatal(err)
				}
			}
			if len(sums) != len(g.points) {
				t.Fatalf("%d points, golden has %d", len(sums), len(g.points))
			}
			for i := range sums {
				if sums[i] != g.points[i] {
					t.Errorf("point %d payload digest %s, golden %s", i, sums[i], g.points[i])
				}
			}
			if !bytes.Equal(jobBody, g.body) {
				t.Errorf("job-path body differs from golden:\n%s", jobBody)
			}
			for _, workers := range []int{1, 4} {
				rep, err := p.Run(ctx, workers, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				body, err := store.EncodeBody(rep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, g.body) {
					t.Errorf("workers=%d: Run body differs from golden:\n%s", workers, body)
				}
			}
			// The golden document is canonical, so it is the plan's own.
			if doc, err := json.Marshal(p.Scenario()); err != nil || !bytes.Equal(doc, g.doc) {
				t.Errorf("plan document %s differs from golden %s (err %v)", doc, g.doc, err)
			}
		})
	}
}
