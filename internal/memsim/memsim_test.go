package memsim

import (
	"math"
	"testing"
)

func TestPCIeTransferTimeScalesWithBytes(t *testing.T) {
	l := PCIe3x4()
	t1 := l.TransferTime(4e9, 1)
	if math.Abs(t1-1.000002) > 1e-4 {
		t.Fatalf("4GB over 4GB/s should take ~1s, got %v", t1)
	}
	if l.TransferTime(0, 5) != 0 {
		t.Fatal("zero bytes should be free")
	}
}

func TestPCIeSegmentationPenalty(t *testing.T) {
	l := PCIe3x4()
	contig := l.TransferTime(1e6, 1)
	scattered := l.TransferTime(1e6, 1000)
	if scattered <= contig {
		t.Fatal("scattered transfer must be slower")
	}
	// 1000 segments x 2us = 2ms vs 0.25ms payload: scattered is latency-bound.
	if scattered < 0.002 {
		t.Fatalf("scattered time %v, want >= 2ms", scattered)
	}
}

func TestPCIeDefaultSegments(t *testing.T) {
	l := PCIe3x4()
	if l.TransferTime(1e6, 0) != l.TransferTime(1e6, 1) {
		t.Fatal("segments <= 0 should mean one segment")
	}
}

func TestPCIePower(t *testing.T) {
	if PCIe3x4().Power() != 12 {
		t.Fatal("x4 power should be 12W")
	}
	if PCIe4x16().Power() != 48 {
		t.Fatal("x16 power should be 48W")
	}
}

func TestSSDSequentialBandwidthBound(t *testing.T) {
	s := KioxiaBG6()
	// 3.5 GB sequential read ~ 1s.
	got := s.ReadTime(3.5e9, 1)
	if math.Abs(got-1) > 0.01 {
		t.Fatalf("sequential read time %v, want ~1s", got)
	}
}

func TestSSDScatteredLatencyBound(t *testing.T) {
	s := KioxiaBG6()
	// 10000 tiny segments: latency-bound at 10000*60us/64 ≈ 9.4ms.
	got := s.ReadTime(10e6, 10000)
	want := 10000 * 60e-6 / 64
	if math.Abs(got-want) > want*0.01 {
		t.Fatalf("scattered read time %v, want ~%v", got, want)
	}
	if s.ReadTime(10e6, 10000) <= s.ReadTime(10e6, 1) {
		t.Fatal("scattered must be slower than sequential")
	}
}

func TestSSDZeroBytes(t *testing.T) {
	if KioxiaBG6().ReadTime(0, 100) != 0 {
		t.Fatal("zero read should be free")
	}
}

func TestSSDDegenerateQueueDepth(t *testing.T) {
	s := SSD{ReadBandwidth: 1e9, IOLatency: 1e-3, QueueDepth: 0}
	// QD 0 treated as 1: 10 IOs x 1ms = 10ms >= bandwidth time.
	if got := s.ReadTime(1e6, 10); math.Abs(got-0.01) > 1e-6 {
		t.Fatalf("QD0 read time %v, want 10ms", got)
	}
}

func TestDRAMPresetsOrdering(t *testing.T) {
	lp, hbm, ddr := LPDDR5_256(), HBM2e5120(), DDR4Host()
	if !(hbm.Bandwidth > lp.Bandwidth && lp.Bandwidth > ddr.Bandwidth) {
		t.Fatal("bandwidth ordering HBM > LPDDR5 > DDR4 violated")
	}
	if hbm.EnergyPerByte >= ddr.EnergyPerByte {
		t.Fatal("HBM should be more energy-efficient per byte than DDR4")
	}
}

func TestDRAMAccessTimeAndEnergy(t *testing.T) {
	d := LPDDR5_256()
	bytes := 204.8e9 * d.Efficiency // exactly one second of traffic
	if got := d.AccessTime(bytes); math.Abs(got-1) > 1e-9 {
		t.Fatalf("access time %v, want 1s", got)
	}
	if d.AccessTime(0) != 0 || d.AccessEnergy(0) != 0 {
		t.Fatal("zero access should be free")
	}
	if d.AccessEnergy(1e9) <= 0 {
		t.Fatal("energy should be positive")
	}
}

// The KVMU claim in miniature: fetching the same bytes in cluster-contiguous
// segments beats token-scattered segments on both PCIe and SSD.
func TestClusterContiguityHelpsEndToEnd(t *testing.T) {
	const bytes = 50e6 // ~400 tokens x 128KB
	link := PCIe3x4()
	ssd := KioxiaBG6()
	clustered := link.TransferTime(bytes, 40) + ssd.ReadTime(bytes, 40)
	scattered := link.TransferTime(bytes, 12800) + ssd.ReadTime(bytes, 12800)
	if scattered/clustered < 1.3 {
		t.Fatalf("clustering should speed fetch >= 1.3x, got %v", scattered/clustered)
	}
}

func TestNICTransferTimeScalesWithBytes(t *testing.T) {
	l := LAN100G()
	small := l.TransferTime(1e6, 1)
	big := l.TransferTime(2e6, 1)
	if big <= small {
		t.Fatalf("more bytes should take longer: %g vs %g", small, big)
	}
	// One message of b bytes costs exactly Setup + b/BW + MsgOverhead.
	want := l.Setup + 1e6/l.Bandwidth + l.MsgOverhead
	if small != want {
		t.Fatalf("TransferTime(1e6,1) = %g, want %g", small, want)
	}
}

func TestNICSetupDominatesWAN(t *testing.T) {
	// A small move across the WAN is RTT-bound: halving the payload barely
	// changes the latency, unlike on the LAN.
	w, lan := WAN(), LAN100G()
	smallWAN := w.TransferTime(1e5, 1)
	if smallWAN < w.Setup {
		t.Fatalf("WAN transfer %g must include setup %g", smallWAN, w.Setup)
	}
	if ratio := w.TransferTime(2e5, 1) / smallWAN; ratio > 1.01 {
		t.Fatalf("small WAN moves should be setup-bound, got ratio %g", ratio)
	}
	if lr := lan.TransferTime(2e8, 1) / lan.TransferTime(1e8, 1); lr < 1.8 {
		t.Fatalf("large LAN moves should be bandwidth-bound, got ratio %g", lr)
	}
}

func TestNICMessageOverheadPenalty(t *testing.T) {
	l := LAN100G()
	one := l.TransferTime(1e7, 1)
	many := l.TransferTime(1e7, 1000)
	if many <= one {
		t.Fatalf("fragmented transfer should be slower: %g vs %g", one, many)
	}
	if got, want := many-one, 999*l.MsgOverhead; math.Abs(got-want) > 1e-12 {
		t.Fatalf("fragmentation penalty = %g, want %g", got, want)
	}
}

func TestNICZeroAndDegenerate(t *testing.T) {
	l := LAN100G()
	if got := l.TransferTime(0, 5); got != 0 {
		t.Fatalf("zero bytes must cost zero, got %g", got)
	}
	if got := l.TransferTime(-1, 1); got != 0 {
		t.Fatalf("negative bytes must cost zero, got %g", got)
	}
	if l.TransferTime(1e6, 0) != l.TransferTime(1e6, 1) {
		t.Fatal("messages<=0 must behave as a single message")
	}
}

func TestNICPresetsOrdering(t *testing.T) {
	// The LAN beats the WAN on bandwidth; the WAN has the larger setup.
	if !(LAN100G().Bandwidth > WAN().Bandwidth) {
		t.Fatal("preset bandwidth ordering violated")
	}
	if !(WAN().Setup > LAN100G().Setup) {
		t.Fatal("WAN must have the largest setup latency")
	}
}
