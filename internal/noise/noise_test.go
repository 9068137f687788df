package noise

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gossipkit/noisyrumor/internal/rng"
)

func mustUniform(t *testing.T, k int, eps float64) *Matrix {
	t.Helper()
	m, err := Uniform(k, eps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
	}{
		{"empty", nil},
		{"ragged", [][]float64{{1, 0}, {1}}},
		{"negative", [][]float64{{1.5, -0.5}, {0, 1}}},
		{"not stochastic", [][]float64{{0.5, 0.4}, {0, 1}}},
		{"nan", [][]float64{{math.NaN(), 1}, {0, 1}}},
	}
	for _, c := range cases {
		if _, err := New(c.rows); err == nil {
			t.Fatalf("%s matrix accepted", c.name)
		}
	}
}

func TestNewAccepts(t *testing.T) {
	m, err := New([][]float64{{0.7, 0.3}, {0.2, 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 || m.At(0, 1) != 0.3 || m.At(1, 0) != 0.2 {
		t.Fatalf("matrix contents wrong: %v", m)
	}
}

func TestRowIsCopy(t *testing.T) {
	m := mustUniform(t, 3, 0.1)
	r := m.Row(0)
	r[0] = 42
	if m.At(0, 0) == 42 {
		t.Fatal("Row did not copy")
	}
}

func TestIdentity(t *testing.T) {
	m, err := Identity(4)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsIdentity() {
		t.Fatal("Identity is not the identity")
	}
	u := mustUniform(t, 4, 0.1)
	if u.IsIdentity() {
		t.Fatal("Uniform claims to be the identity")
	}
	if _, err := Identity(0); err == nil {
		t.Fatal("Identity(0) accepted")
	}
}

func TestFHKBinaryMatchesEq1(t *testing.T) {
	m, err := FHKBinary(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0.7 || m.At(0, 1) != 0.3 ||
		m.At(1, 0) != 0.3 || m.At(1, 1) != 0.7 {
		t.Fatalf("FHK matrix wrong:\n%v", m)
	}
	for _, bad := range []float64{0, -0.1, 0.6, math.NaN()} {
		if _, err := FHKBinary(bad); err == nil {
			t.Fatalf("FHKBinary(%v) accepted", bad)
		}
	}
}

func TestUniformRowStochastic(t *testing.T) {
	f := func(kRaw uint8, epsRaw uint16) bool {
		k := int(kRaw%10) + 2
		maxEps := float64(k-1) / float64(k)
		eps := (float64(epsRaw) + 1) / (math.MaxUint16 + 2) * maxEps
		m, err := Uniform(k, eps)
		if err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			sum := 0.0
			for j := 0; j < k; j++ {
				if m.At(i, j) < 0 {
					return false
				}
				sum += m.At(i, j)
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return m.At(0, 0) > m.At(0, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformReducesToFHKForK2(t *testing.T) {
	u := mustUniform(t, 2, 0.15)
	f, err := FHKBinary(0.15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(u.At(i, j)-f.At(i, j)) > 1e-12 {
				t.Fatalf("Uniform(2) != FHKBinary at (%d,%d)", i, j)
			}
		}
	}
}

func TestUniformRejects(t *testing.T) {
	if _, err := Uniform(1, 0.1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Uniform(3, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := Uniform(3, 0.7); err == nil {
		t.Fatal("eps beyond bound accepted")
	}
	if _, err := Uniform(3, math.NaN()); err == nil {
		t.Fatal("eps=NaN accepted")
	}
}

func TestDominantCycleMatchesPaper(t *testing.T) {
	// Section 4 example for k=3. The paper prints the transpose (its
	// Section-4 LP multiplies P·c); under the row convention of
	// Eq. (2) the counterexample is the forward cycle.
	m, err := DominantCycle(3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{0.6, 0.4, 0},
		{0, 0.6, 0.4},
		{0.4, 0, 0.6},
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(m.At(i, j)-want[i][j]) > 1e-12 {
				t.Fatalf("DominantCycle(3,0.1) entry (%d,%d) = %v, want %v",
					i, j, m.At(i, j), want[i][j])
			}
		}
	}
	if _, err := DominantCycle(2, 0.1); err == nil {
		t.Fatal("k=2 accepted")
	}
	if _, err := DominantCycle(3, 0.5); err == nil {
		t.Fatal("eps=1/2 accepted")
	}
	if _, err := DominantCycle(3, math.NaN()); err == nil {
		t.Fatal("eps=NaN accepted")
	}
}

func TestResetMatrix(t *testing.T) {
	m, err := Reset(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 {
		t.Fatal("opinion 0 must survive intact")
	}
	if m.At(1, 1) != 0.75 || m.At(1, 0) != 0.25 {
		t.Fatalf("row 1 = %v", m.Row(1))
	}
	if _, err := Reset(3, 1.5); err == nil {
		t.Fatal("rho > 1 accepted")
	}
	if _, err := Reset(3, math.NaN()); err == nil {
		t.Fatal("rho=NaN accepted")
	}
	if _, err := Reset(1, 0.5); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestNearUniformRowStochastic(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 100; trial++ {
		k := 3 + r.Intn(6)
		diag := 0.3 + r.Float64()*0.5
		base := (1 - diag) / float64(k-1)
		spread := r.Float64() * base
		m, err := NearUniform(k, diag, spread, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			sum := 0.0
			for j := 0; j < k; j++ {
				if m.At(i, j) < -1e-12 {
					t.Fatalf("negative entry (%d,%d) = %v", i, j, m.At(i, j))
				}
				sum += m.At(i, j)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row %d sums to %v", i, sum)
			}
			if math.Abs(m.At(i, i)-diag) > 1e-12 {
				t.Fatalf("diagonal (%d,%d) = %v, want %v", i, i, m.At(i, i), diag)
			}
		}
		lo, hi := m.OffDiagRange()
		if lo < base-spread-1e-9 || hi > base+spread+1e-9 {
			t.Fatalf("off-diagonal range [%v,%v] outside [%v,%v]",
				lo, hi, base-spread, base+spread)
		}
	}
}

func TestNearUniformRejects(t *testing.T) {
	r := rng.New(1)
	if _, err := NearUniform(2, 0.5, 0.1, r); err == nil {
		t.Fatal("k=2 accepted")
	}
	if _, err := NearUniform(3, 1.2, 0.1, r); err == nil {
		t.Fatal("diag > 1 accepted")
	}
	if _, err := NearUniform(3, 0.4, 0.9, r); err == nil {
		t.Fatal("excessive spread accepted")
	}
	if _, err := NearUniform(3, math.NaN(), 0.1, r); err == nil {
		t.Fatal("diag=NaN accepted")
	}
	if _, err := NearUniform(3, 0.4, math.NaN(), r); err == nil {
		t.Fatal("spread=NaN accepted")
	}
}

func TestApplyPreservesMass(t *testing.T) {
	r := rng.New(7)
	f := func(kRaw uint8) bool {
		k := int(kRaw%8) + 2
		m, err := Uniform(k, 0.1)
		if err != nil {
			return false
		}
		c := make([]float64, k)
		total := 0.0
		for i := range c {
			c[i] = r.Float64()
			total += c[i]
		}
		for i := range c {
			c[i] /= total
		}
		out := m.Apply(c, nil)
		sum := 0.0
		for _, v := range out {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyIdentityFixesDistribution(t *testing.T) {
	m, _ := Identity(3)
	c := []float64{0.2, 0.5, 0.3}
	out := m.Apply(c, nil)
	for i := range c {
		if math.Abs(out[i]-c[i]) > 1e-12 {
			t.Fatalf("identity moved mass: %v -> %v", c, out)
		}
	}
}

func TestApplyExpectedContraction(t *testing.T) {
	// Under Uniform(k, ε), Eq. (2) contracts every bias by the factor
	// ε·k/(k−1): (cP)_m − (cP)_i = (diag−off)(c_m−c_i).
	m := mustUniform(t, 4, 0.2)
	c := []float64{0.4, 0.3, 0.2, 0.1}
	out := m.Apply(c, nil)
	factor := m.At(0, 0) - m.At(0, 1)
	for i := 1; i < 4; i++ {
		want := factor * (c[0] - c[i])
		if math.Abs((out[0]-out[i])-want) > 1e-12 {
			t.Fatalf("bias vs %d: got %v, want %v", i, out[0]-out[i], want)
		}
	}
}

func TestApplyDstReuse(t *testing.T) {
	m := mustUniform(t, 3, 0.1)
	dst := make([]float64, 3)
	out := m.Apply([]float64{1, 0, 0}, dst)
	if &out[0] != &dst[0] {
		t.Fatal("dst not reused")
	}
}

func TestApplyPanicsOnDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	mustUniform(t, 3, 0.1).Apply([]float64{1, 0}, nil)
}

func TestBias(t *testing.T) {
	c := []float64{0.5, 0.3, 0.2}
	if got := Bias(c, 0); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("bias = %v", got)
	}
	if got := Bias(c, 2); got >= 0 {
		t.Fatalf("losing opinion has bias %v", got)
	}
	if got := Bias([]float64{1}, 0); got != 1 {
		t.Fatalf("k=1 bias = %v", got)
	}
}

func TestPerturbDistribution(t *testing.T) {
	m := mustUniform(t, 3, 0.3)
	tables := m.RowTables()
	r := rng.New(99)
	const draws = 60000
	counts := make([]int, 3)
	for i := 0; i < draws; i++ {
		counts[Perturb(tables, r, 0)]++
	}
	for j := 0; j < 3; j++ {
		want := m.At(0, j) * draws
		sd := math.Sqrt(want * (1 - m.At(0, j)))
		if math.Abs(float64(counts[j])-want) > 6*sd {
			t.Fatalf("perturb 0→%d: %d draws, want ~%v", j, counts[j], want)
		}
	}
}

func TestSplitCountsConservesAndMatchesPerturb(t *testing.T) {
	m := mustUniform(t, 3, 0.3)
	sent := []int{40000, 15000, 5000}
	total := 60000

	// Aggregate split.
	r := rng.New(7)
	dst := make([]int, 3)
	scratch := make([]int, 3)
	m.SplitCounts(r, sent, dst, scratch)
	got := 0
	for _, c := range dst {
		if c < 0 {
			t.Fatal("negative received count")
		}
		got += c
	}
	if got != total {
		t.Fatalf("SplitCounts conserves %d of %d messages", got, total)
	}

	// Per-message reference: perturb each message individually.
	r2 := rng.New(8)
	tables := m.RowTables()
	ref := make([]int, 3)
	for i, h := range sent {
		for x := 0; x < h; x++ {
			ref[Perturb(tables, r2, i)]++
		}
	}
	// The two received vectors are draws from the same distribution;
	// each component should agree within normal fluctuation (6σ on a
	// conservative per-opinion variance bound).
	for j := range dst {
		want := 0.0
		for i, h := range sent {
			want += float64(h) * m.At(i, j)
		}
		sd := math.Sqrt(want)
		if math.Abs(float64(dst[j])-want) > 6*sd || math.Abs(float64(ref[j])-want) > 6*sd {
			t.Fatalf("opinion %d: split %d, per-message %d, want ~%.0f ± %.0f",
				j, dst[j], ref[j], want, 6*sd)
		}
	}
}

func TestSplitCountsIdentity(t *testing.T) {
	m, err := Identity(3)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 3)
	m.SplitCounts(rng.New(1), []int{5, 0, 9}, dst, make([]int, 3))
	if dst[0] != 5 || dst[1] != 0 || dst[2] != 9 {
		t.Fatalf("identity split = %v", dst)
	}
}

func TestSplitCountsPanicsOnBadLengths(t *testing.T) {
	m := mustUniform(t, 2, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	m.SplitCounts(rng.New(1), []int{1}, make([]int, 2), make([]int, 2))
}

func TestStringFormat(t *testing.T) {
	m := mustUniform(t, 2, 0.1)
	s := m.String()
	if !strings.Contains(s, "0.6000") || !strings.Contains(s, "0.4000") {
		t.Fatalf("String = %q", s)
	}
}
