package kvpool

import "vrex/internal/memsim"

// Transfer prices page movement through the memsim models: pages cross the
// PCIe link one segment each (page-granular scatter, so transfer efficiency
// follows the link's per-segment setup cost), and the far side is either an
// NVMe drive (edge devices) or host DRAM (servers). The slower of link and
// backing store bounds each direction, mirroring how hwsim prices KV
// fetches.
type Transfer struct {
	// Link is the device's PCIe connection.
	Link memsim.PCIeLink
	// SSD, when non-nil, is the NVMe backing store; nil spills to host DRAM.
	SSD *memsim.SSD
	// Host is the host DRAM on the far side of the link.
	Host memsim.DRAM
	// PageBytes is the KV bytes per page.
	PageBytes float64
}

// moveTime prices moving pages across the link, bounded by whichever of the
// link and the backing store is slower.
//
//vrex:noalloc
func (t Transfer) moveTime(pages int) float64 {
	if pages <= 0 {
		return 0
	}
	bytes := float64(pages) * t.PageBytes
	d := t.Link.TransferTime(bytes, pages)
	if t.SSD != nil {
		if st := t.SSD.ReadTime(bytes, pages); st > d {
			d = st
		}
	} else if ht := t.Host.AccessTime(bytes); ht > d {
		d = ht
	}
	return d
}

// PageIn implements Mover: read pages back from the backing store.
//
//vrex:noalloc
func (t Transfer) PageIn(pages int) float64 { return t.moveTime(pages) }

// PageOut implements Mover: write pages out to the backing store. NVMe
// writes are approximated with the drive's read-path model (flash program
// time is hidden behind the device write cache at these batch sizes, so the
// link and queue overheads dominate, as in the SSD read model).
//
//vrex:noalloc
func (t Transfer) PageOut(pages int) float64 { return t.moveTime(pages) }
