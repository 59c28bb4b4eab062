package life

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
)

// quietSpec is one static, churn-free cell: the only kind whose rounds
// quiet batches.
func quietSpec(topo grid.Topology, src grid.Coord, budgetJ float64, rounds int) Spec {
	return Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(topo.Kind()),
		Source:       src,
		BudgetJ:      budgetJ,
		MaxRounds:    rounds,
		Seed:         5,
		Replications: 1,
		Strategies:   []Strategy{Static},
	}
}

// quietRounds drives spec's cell the way RunCell does, without
// checkpoints, and returns how many of its rounds quiet ran.
func quietRounds(t *testing.T, spec Spec) int {
	t.Helper()
	st, err := newCellState(spec, spec.CellAt(0))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for !st.stopped() {
		if err := st.round(); err != nil {
			t.Fatal(err)
		}
		r := st.rep.Rounds
		st.quiet(DefaultCheckpointEvery)
		n += st.rep.Rounds - r
	}
	return n
}

// TestQuietStretchDifferential holds cells whose rounds are mostly
// batched by quiet to the per-round reference, byte for byte: the
// paper-scale 2D-4 64x64 cell from three sources (20-21 deaths, most of
// them between curve samples), cells of all four mesh kinds with
// several deaths each, a 1x40 line that dies node by node, and one
// long cell resumed from every checkpoint it saves. Every cell must
// run most of its rounds through quiet, so the test cannot pass on the
// per-round path alone.
func TestQuietStretchDifferential(t *testing.T) {
	type cell struct {
		name string
		spec Spec
	}
	var cells []cell
	for _, k := range grid.Kinds() {
		topo := grid.New(k, 8, 8, 4)
		cells = append(cells, cell{k.String(), quietSpec(topo, topo.At(0), 0.02, 1024)})
	}
	line := grid.NewMesh2D4(40, 1)
	cells = append(cells, cell{"line-1x40", quietSpec(line, grid.C2(1, 1), 0.02, 1024)})
	if !raceEnabled && !testing.Short() {
		big := grid.NewMesh2D4(64, 64)
		for _, src := range []grid.Coord{grid.C2(1, 1), grid.C2(32, 32), grid.C2(1, 32)} {
			cells = append(cells, cell{"2D-4-64x64-" + src.String(), quietSpec(big, src, 0.5, 4096)})
		}
	}
	t.Run("checkpoint-resume", testQuietCheckpointResume)
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			want, err := referenceCell(c.spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want.Deaths == 0 {
				t.Fatalf("cell has no deaths in %d rounds", want.Rounds)
			}
			got, err := RunCell(context.Background(), c.spec, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("batched cell differs from reference:\n got %s\nwant %s", g, w)
			}
			if q := quietRounds(t, c.spec); 2*q < want.Rounds {
				t.Errorf("quiet ran %d of %d rounds, want most", q, want.Rounds)
			}
		})
	}
}

// testQuietCheckpointResume: a batched cell resumed from each of its
// checkpoints finishes with the reference's bytes. Saves land between
// stretches, and a resumed cell rebuilds its memo and batches again.
func testQuietCheckpointResume(t *testing.T) {
	topo := grid.NewMesh2D4(16, 16)
	spec := quietSpec(topo, grid.C2(1, 1), 0.1, 2048)
	spec.CheckpointEvery = 96 // not a multiple of the 32-round sample cadence
	base, err := referenceCell(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Deaths < 2 {
		t.Fatalf("cell has %d deaths, want several", base.Deaths)
	}
	want := mustJSON(t, base)
	rec := &memCkpt{}
	full, err := RunCell(context.Background(), spec, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, full); !bytes.Equal(got, want) {
		t.Fatalf("checkpointed batched run differs from reference:\n got %s\nwant %s", got, want)
	}
	if len(rec.saves) < 4 {
		t.Fatalf("%d checkpoints over %d rounds, want several", len(rec.saves), full.Rounds)
	}
	for si, save := range rec.saves {
		resumed, err := RunCell(context.Background(), spec, 0, &memCkpt{loaded: save})
		if err != nil {
			t.Fatalf("resume from save %d: %v", si, err)
		}
		if got := mustJSON(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("resume from save %d differs from reference:\n got %s\nwant %s", si, got, want)
		}
	}
}

// plainDebit is what debit must equal: k subtractions, one at a time.
func plainDebit(b, e float64, k int) float64 {
	for range k {
		b -= e
	}
	return b
}

// debitSeeds are the kernel's edge cases: half-ulp ties with even and
// odd ulp counts, binade tops and bottoms, subnormals, e >= b, and
// values that reach zero or go negative.
func debitSeeds() [][3]float64 {
	ulp1 := 0x1p-52 // ulp of [1, 2)
	return [][3]float64{
		{1, ulp1 / 2, 9},                  // tie, q = 0
		{1 + ulp1, ulp1 / 2, 9},           // tie from an odd mantissa
		{1.75, 1.5 * ulp1, 1000},          // tie, q odd
		{1.75 + ulp1, 2.5 * ulp1, 1000},   // tie, q even, odd start
		{2, ulp1, 100},                    // binade bottom
		{2 - ulp1, 0.75 * ulp1, 100},      // binade top
		{math.Nextafter(2, 3), ulp1, 5},   // one ulp above a bottom
		{1 + 36*ulp1, 3.3 * ulp1, 14},     // a jump could end on the bottom, f in (1/4, 1/2)
		{1 + 40*ulp1, 2.5 * ulp1, 30},     // a jump could end on the bottom, tie
		{0.5, 1.2345e-4, 4096},            // a battery drained through many binades
		{0.5, 0.5, 3},                     // e == b
		{0.5, 0.75, 3},                    // e > b
		{1, 0.1, 12},                      // through zero and below
		{5e-324 * 1000, 5e-324 * 3, 400},  // subnormal
		{0x1p-1022, 5e-324, 10},           // smallest normal, subnormal e
		{0x1p-1022 * 3, 0x1p-1022, 5},     // into the subnormals
		{1e300, 1e-300, 1 << 15},          // e far below half an ulp
		{math.MaxFloat64, 1e292, 1 << 12}, // top binade
		{1, 0, 10},                        // e == 0
		{1, -0.25, 10},                    // e < 0
		{math.Inf(1), 1, 3},
		{1, math.Inf(1), 3},
		{1, math.NaN(), 3},
	}
}

// FuzzQuietDebit checks the debit kernel against the plain loop, bit
// for bit, over fuzzed (b, e, k).
func FuzzQuietDebit(f *testing.F) {
	for _, s := range debitSeeds() {
		f.Add(s[0], s[1], uint16(s[2]))
	}
	f.Fuzz(func(t *testing.T, b, e float64, k uint16) {
		got, want := debit(b, e, int(k)), plainDebit(b, e, int(k))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("debit(%v, %v, %d) = %v (%#x), loop gives %v (%#x)",
				b, e, k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// Random batteries and per-round energies in the ranges the lifetime
// engine produces: debit equals the plain loop, and survivingDebits'
// count of debits leaves the battery positive.
func TestDebitRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		b := math.Ldexp(1+rng.Float64(), -rng.IntN(40))
		e := b * math.Ldexp(1+rng.Float64(), -4-rng.IntN(30))
		k := rng.IntN(3000)
		if got, want := debit(b, e, k), plainDebit(b, e, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("debit(%v, %v, %d) = %v, loop gives %v", b, e, k, got, want)
		}
		if s := survivingDebits(b, e); s > 0 && s < 1<<16 {
			if left := plainDebit(b, e, s); !(left > 0) {
				t.Fatalf("survivingDebits(%v, %v) = %d, but that many debits leave %v", b, e, s, left)
			}
		}
	}
}

// survivingDebits is a lower bound that is tight to a round or two.
func TestSurvivingDebitsTight(t *testing.T) {
	for _, c := range []struct{ b, e float64 }{{0.5, 1.2345e-4}, {1, 0.1}, {0.02, 3.3e-5}, {1e-300, 1e-303}} {
		s := survivingDebits(c.b, c.e)
		exact := 0
		for b := c.b; b-c.e > 0; b -= c.e {
			exact++
		}
		if s > exact || s < exact-2 {
			t.Errorf("survivingDebits(%v, %v) = %d, exact count %d", c.b, c.e, s, exact)
		}
	}
}
