package memsim

// NICLink models the network leg of a cross-node KV move: a session's pages
// leave the source node over PCIe, cross the datacenter (or WAN) fabric, and
// land on the destination node's PCIe. Like PCIeLink, transfers are split
// into messages that each pay a fixed per-message overhead, and the whole
// move pays a one-time setup latency (connection/RPC establishment — a
// round-trip on LAN, tens of milliseconds across regions).
type NICLink struct {
	Name string
	// Bandwidth is the sustained payload bandwidth in bytes/second.
	Bandwidth float64
	// Setup is the one-time per-transfer latency in seconds (RPC setup,
	// TCP/RDMA connection reuse handshake; dominated by RTT).
	Setup float64
	// MsgOverhead is the fixed per-message cost in seconds (framing,
	// interrupt/poll, protocol headers).
	MsgOverhead float64
}

// LAN100G returns a 100 GbE / RDMA-class fabric: ~12 GB/s payload, ~10 us
// setup.
func LAN100G() NICLink {
	return NICLink{Name: "lan100", Bandwidth: 12e9, Setup: 10e-6, MsgOverhead: 1e-6}
}

// WAN returns a cross-region link: ~1.25 GB/s (10 Gb/s provisioned) with a
// 30 ms RTT-dominated setup — the cost of migrating a session between
// geo-distributed sites.
func WAN() NICLink {
	return NICLink{Name: "wan", Bandwidth: 1.25e9, Setup: 30e-3, MsgOverhead: 5e-6}
}

// TransferTime returns the time to move bytes split into messages discrete
// sends. messages <= 0 is treated as a single message; zero bytes cost zero.
func (l NICLink) TransferTime(bytes float64, messages int) float64 {
	if bytes <= 0 {
		return 0
	}
	if messages <= 0 {
		messages = 1
	}
	return l.Setup + bytes/l.Bandwidth + float64(messages)*l.MsgOverhead
}
