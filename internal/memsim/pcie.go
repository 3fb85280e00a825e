// Package memsim provides the memory-system models the V-Rex evaluation
// plugs into its cycle-level simulator: a PCIe link with per-transaction
// overhead (so transfer efficiency depends on segment size — the effect the
// KVMU's cluster-contiguous mapping exploits), an NVMe SSD model in the
// spirit of MQSim (bandwidth + per-IO latency with queueing), and a DRAM
// bandwidth model in the spirit of DRAMSim3 (sustained bandwidth with a
// utilisation-dependent efficiency knee).
package memsim

// PCIeLink models a PCIe connection between device memory and CPU memory /
// storage. Transfers are split into contiguous segments; each segment pays a
// fixed setup latency, so many small segments waste bandwidth (Sec. V's
// "irregular and sparse KV cache fetching ... causes underutilization of
// PCIe bandwidth").
type PCIeLink struct {
	// Bandwidth is the peak payload bandwidth in bytes/second.
	Bandwidth float64
	// SegmentLatency is the fixed per-segment cost in seconds (DMA setup,
	// TLP header overhead, doorbell).
	SegmentLatency float64
	// Lanes is the lane count (power model: ~3 W per lane under load).
	Lanes int
}

// PCIe3x4 returns the edge link of Table I: PCIe 3.0 x4, 4 GB/s.
func PCIe3x4() PCIeLink {
	return PCIeLink{Bandwidth: 4e9, SegmentLatency: 2e-6, Lanes: 4}
}

// PCIe4x16 returns the server link of Table I: PCIe 4.0 x16, 32 GB/s.
func PCIe4x16() PCIeLink {
	return PCIeLink{Bandwidth: 32e9, SegmentLatency: 1.5e-6, Lanes: 16}
}

// TransferTime returns the time to move bytes split into segments contiguous
// runs. segments <= 0 is treated as a single segment; zero bytes cost zero.
func (l PCIeLink) TransferTime(bytes float64, segments int) float64 {
	if bytes <= 0 {
		return 0
	}
	if segments <= 0 {
		segments = 1
	}
	return bytes/l.Bandwidth + float64(segments)*l.SegmentLatency
}

// Power returns the link's active power draw in watts (3 W/lane under load,
// the paper's estimate).
func (l PCIeLink) Power() float64 { return 3 * float64(l.Lanes) }
