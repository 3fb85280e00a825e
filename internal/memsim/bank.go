package memsim

// BankModel is a DRAMSim3-style row-buffer model at the granularity the
// evaluation needs: accesses to an open row hit the row buffer (column
// access only); accesses to a different row in the same bank pay precharge +
// activate. Streaming (sequential) traffic achieves near-peak efficiency,
// scattered traffic degrades — the same efficiency knee the DRAM.Efficiency
// constant encodes analytically.
//
//vrex:testonly reference model that the analytic DRAM efficiency is checked against
type BankModel struct {
	// Banks is the number of independent banks.
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// TCol is the column access time (row hit) per burst, seconds.
	TCol float64
	// TRowMiss is precharge+activate+column time on a row miss, seconds.
	TRowMiss float64
	// BurstBytes is the data moved per access.
	BurstBytes int

	openRow []int64 // currently open row id per bank, -1 if none
}

// NewBankModel returns a model sized like a 256-bit LPDDR5 subsystem:
// 16 banks, 2 KiB rows, 64 B bursts, ~5 ns column access, ~35 ns row miss.
//
//vrex:testonly builds the reference model the analytic DRAM efficiency is checked against
func NewBankModel() *BankModel {
	b := &BankModel{
		Banks:      16,
		RowBytes:   2048,
		TCol:       5e-9,
		TRowMiss:   35e-9,
		BurstBytes: 64,
	}
	b.Reset()
	return b
}

// Reset closes all rows.
func (b *BankModel) Reset() {
	b.openRow = make([]int64, b.Banks)
	for i := range b.openRow {
		b.openRow[i] = -1
	}
}

// Access simulates reading length bytes starting at addr and returns the
// time spent, counting row hits and misses. Banks interleave at row
// granularity.
func (b *BankModel) Access(addr, length int64) (t float64, hits, misses int) {
	if length <= 0 {
		return 0, 0, 0
	}
	burst := int64(b.BurstBytes)
	for off := int64(0); off < length; off += burst {
		a := addr + off
		row := a / int64(b.RowBytes)
		bank := int(row % int64(b.Banks))
		if b.openRow[bank] == row {
			t += b.TCol
			hits++
		} else {
			t += b.TRowMiss
			b.openRow[bank] = row
			misses++
		}
	}
	return t, hits, misses
}

// StreamEfficiency returns achieved/peak efficiency for a sequential stream
// of the given size, where peak is one burst per TCol.
func (b *BankModel) StreamEfficiency(bytes int64) float64 {
	b.Reset()
	t, _, _ := b.Access(0, bytes)
	if t <= 0 {
		return 1
	}
	ideal := float64(bytes) / float64(b.BurstBytes) * b.TCol
	return ideal / t
}

// ScatterEfficiency returns efficiency for n accesses of chunk bytes at
// stride-separated addresses (the scattered KV gather pattern).
func (b *BankModel) ScatterEfficiency(chunk, n, stride int64) float64 {
	b.Reset()
	var t float64
	for i := int64(0); i < n; i++ {
		dt, _, _ := b.Access(i*stride, chunk)
		t += dt
	}
	if t <= 0 {
		return 1
	}
	ideal := float64(chunk*n) / float64(b.BurstBytes) * b.TCol
	return ideal / t
}
