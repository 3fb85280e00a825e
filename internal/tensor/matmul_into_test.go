package tensor

import (
	"testing"

	"vrex/internal/mathx"
)

// TestMatMulTIntoMatchesMatMulT: the in-place kernel must fully overwrite a
// dirty destination with values bit-identical to the unpaired reference.
func TestMatMulTIntoMatchesMatMulT(t *testing.T) {
	rng := mathx.NewRNG(61)
	a := NewMatrix(9, 33)
	b := NewMatrix(17, 33)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	want := refMatMulT(a, b)
	dst := NewMatrix(9, 17)
	for i := range dst.Data {
		dst.Data[i] = 99 // must be fully overwritten
	}
	MatMulTInto(dst, a, b)
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %v != %v", i, dst.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTIntoShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mis-shaped dst")
		}
	}()
	MatMulTInto(NewMatrix(2, 3), a, b)
}

// TestReshape: growth, shrink and content length semantics.
func TestReshape(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Reshape(4, 5)
	if m.Rows != 4 || m.Cols != 5 || len(m.Data) != 20 {
		t.Fatalf("reshape grow wrong: %v len=%d", m, len(m.Data))
	}
	data := &m.Data[0]
	m.Reshape(2, 2)
	if m.Rows != 2 || m.Cols != 2 || len(m.Data) != 4 {
		t.Fatalf("reshape shrink wrong: %v", m)
	}
	if &m.Data[0] != data {
		t.Fatal("shrinking reshape must not reallocate")
	}
}

// TestMatMulTIntoSequentialAllocFree: with one worker the kernel must not
// allocate (it sits inside ReSV's allocation-free hot path).
func TestMatMulTIntoSequentialAllocFree(t *testing.T) {
	SetWorkers(1)
	t.Cleanup(func() { SetWorkers(0) })
	rng := mathx.NewRNG(62)
	a := NewMatrix(16, 64)
	b := NewMatrix(80, 64)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	dst := NewMatrix(16, 80)
	allocs := testing.AllocsPerRun(50, func() {
		MatMulTInto(dst, a, b)
	})
	if allocs != 0 {
		t.Fatalf("sequential MatMulTInto allocates %v times per call, want 0", allocs)
	}
}
