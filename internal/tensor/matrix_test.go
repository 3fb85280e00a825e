package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"vrex/internal/mathx"
)

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := [][]float32{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("MatMul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := mathx.NewRNG(1)
	a := NewMatrix(4, 4)
	a.Randomize(rng, 1)
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	c := MatMul(a, id)
	for i := range a.Data {
		if math.Abs(float64(c.Data[i]-a.Data[i])) > 1e-6 {
			t.Fatalf("A*I != A at flat index %d", i)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddScale(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := FromRows([][]float32{{3, 4}})
	AddInPlace(a, b)
	if a.At(0, 0) != 4 || a.At(0, 1) != 6 {
		t.Fatal("AddInPlace wrong")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A*B)*C == A*(B*C) within float tolerance, for random small matrices.
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		a := NewMatrix(3, 4)
		b := NewMatrix(4, 2)
		c := NewMatrix(2, 3)
		a.Randomize(rng, 0.5)
		b.Randomize(rng, 0.5)
		c.Randomize(rng, 0.5)
		l := MatMul(MatMul(a, b), c)
		r := MatMul(a, MatMul(b, c))
		for i := range l.Data {
			if math.Abs(float64(l.Data[i]-r.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
