package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeSetDense(t *testing.T) {
	u := New()
	for i := 0; i < 100; i++ {
		if got := u.MakeSet(); got != uint32(i) {
			t.Fatalf("MakeSet #%d = %d, want %d", i, got, i)
		}
	}
	if u.Len() != 100 {
		t.Fatalf("Len = %d, want 100", u.Len())
	}
}

func TestFindSingleton(t *testing.T) {
	u := New()
	a := u.MakeSet()
	if u.Find(a) != a {
		t.Errorf("Find(%d) = %d, want itself", a, u.Find(a))
	}
	if u.SizeOf(a) != 1 {
		t.Errorf("SizeOf = %d, want 1", u.SizeOf(a))
	}
}

func TestUnionBasic(t *testing.T) {
	u := New()
	a, b, c := u.MakeSet(), u.MakeSet(), u.MakeSet()
	u.Union(a, b)
	if !u.SameSet(a, b) {
		t.Error("a and b should be in the same set after Union")
	}
	if u.SameSet(a, c) {
		t.Error("a and c should not be in the same set")
	}
	if u.SizeOf(a) != 2 {
		t.Errorf("SizeOf(a) = %d, want 2", u.SizeOf(a))
	}
	u.Union(b, c)
	if !u.SameSet(a, c) {
		t.Error("transitivity: a ~ c expected")
	}
	if u.SizeOf(c) != 3 {
		t.Errorf("SizeOf(c) = %d, want 3", u.SizeOf(c))
	}
}

func TestUnionIdempotent(t *testing.T) {
	u := New()
	a, b := u.MakeSet(), u.MakeSet()
	r1 := u.Union(a, b)
	r2 := u.Union(a, b)
	if r1 != r2 {
		t.Errorf("repeated Union returned different roots: %d vs %d", r1, r2)
	}
	if u.SizeOf(a) != 2 {
		t.Errorf("size inflated by repeated union: %d", u.SizeOf(a))
	}
}

// TestAgainstNaive cross-checks the forest against a naive quadratic
// implementation on random union sequences.
func TestAgainstNaive(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		u := New()
		naive := make([]int, n) // naive[i] = set label
		for i := 0; i < n; i++ {
			u.MakeSet()
			naive[i] = i
		}
		for step := 0; step < 300; step++ {
			a := uint32(rng.Intn(n))
			b := uint32(rng.Intn(n))
			u.Union(a, b)
			la, lb := naive[a], naive[b]
			if la != lb {
				for i := range naive {
					if naive[i] == lb {
						naive[i] = la
					}
				}
			}
			// Spot-check a few pairs.
			for k := 0; k < 5; k++ {
				x := uint32(rng.Intn(n))
				y := uint32(rng.Intn(n))
				if u.SameSet(x, y) != (naive[x] == naive[y]) {
					t.Fatalf("trial %d step %d: SameSet(%d,%d)=%v, naive=%v",
						trial, step, x, y, u.SameSet(x, y), naive[x] == naive[y])
				}
			}
		}
	}
}

// Property: Find is stable — calling it twice yields the same root, and the
// root is always a member of its own set.
func TestFindStableProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		u := New()
		const n = 32
		for i := 0; i < n; i++ {
			u.MakeSet()
		}
		for _, op := range ops {
			a := uint32(op % n)
			b := uint32((op / n) % n)
			u.Union(a, b)
		}
		for i := uint32(0); i < n; i++ {
			r := u.Find(i)
			if u.Find(i) != r || u.Find(r) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 14
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := New()
		for j := 0; j < n; j++ {
			u.MakeSet()
		}
		for j := 1; j < n; j++ {
			u.Union(uint32(j), uint32(j/2))
		}
		if u.SizeOf(0) != n {
			b.Fatal("bad size")
		}
	}
}
