package kvpool

import (
	"testing"

	"vrex/internal/memsim"
)

// TestTransferZeroAlloc guards the paging hot path on both backing stores.
func TestTransferZeroAlloc(t *testing.T) {
	ssd := memsim.KioxiaBG6()
	for _, tr := range []Transfer{
		{Link: memsim.PCIe3x4(), SSD: &ssd, Host: memsim.DDR4Host(), PageBytes: 1 << 20},
		{Link: memsim.PCIe4x16(), Host: memsim.DDR4Host(), PageBytes: 1 << 20},
	} {
		if n := testing.AllocsPerRun(100, func() { tr.PageIn(4); tr.PageOut(4) }); n != 0 {
			t.Fatalf("ssd=%v: %v allocs, want 0", tr.SSD != nil, n)
		}
	}
}
