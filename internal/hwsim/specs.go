// Package hwsim is the performance plane: an analytic, phase-level hardware
// simulator for streaming video LLM inference on edge/server GPUs and the
// V-Rex accelerator. It models compute with a roofline per kernel class
// (dense vs irregular), KV movement through the memsim PCIe/SSD/DRAM models,
// the DRE's cycle-level unit models (HCU, WTU, KVMU), and the Fig. 5 overlap
// pipeline. All Fig. 13-18 experiments run on top of it.
package hwsim

import (
	"strings"

	"vrex/internal/memsim"
)

// DeviceSpec describes one execution platform (Table I).
type DeviceSpec struct {
	Name string
	// PeakFLOPS is the peak dense throughput (FP16/BF16), FLOP/s.
	PeakFLOPS float64
	// Mem is device-attached memory.
	Mem memsim.DRAM
	// MemCapacity is device memory size in bytes.
	MemCapacity float64
	// Link is the PCIe connection to host/storage.
	Link memsim.PCIeLink
	// OffloadSSD, when non-nil, is the NVMe target for KV offload (edge);
	// nil means offload goes to host DRAM over PCIe (server).
	OffloadSSD *memsim.SSD
	// HostMem is the CPU memory on the far side of the link (server offload
	// target); used for host-side read bandwidth when fetching.
	HostMem memsim.DRAM
	// Power is the system power envelope in watts (device + DRAM + PCIe +
	// storage, per Table I).
	Power float64
	// IdlePower is the floor draw in watts.
	IdlePower float64
	// DenseEff is the achievable fraction of PeakFLOPS on dense GEMM.
	DenseEff float64
	// AttnEff is the achievable fraction of PeakFLOPS on attention kernels
	// (lower: memory-bound, small tiles).
	AttnEff float64
	// IrregularEff is the achievable fraction of PeakFLOPS on conditional /
	// data-dependent kernels (clustering, sorting, thresholding) — the GPU
	// inefficiency that motivates the DRE (Sec. V).
	IrregularEff float64
	// HasDRE marks V-Rex devices: KV prediction runs on the DRE concurrently
	// with LLM compute, and the KVMU's cluster mapping is available.
	HasDRE bool
	// Freq is the accelerator clock for DRE cycle models (Hz).
	Freq float64
	// Cores is the V-Rex core count (0 for GPUs).
	Cores int
	// FrameOverhead is the fixed host-side cost per video frame (decode,
	// resize, tokenize, launch) in seconds.
	FrameOverhead float64
}

// kvWorkspaceBytes is the activation/workspace floor reserved out of device
// memory before KV; the cost model's OOM check (Sim.oom) adds 0.1 GB per
// stream on top of it.
const kvWorkspaceBytes = 2e9

// KVBudgetBytes returns the device memory left for resident session KV after
// model weights and activation workspace — the budget the serving plane's KV
// pool derives per-device capacity from (serve.AutoCapacity).
func (d DeviceSpec) KVBudgetBytes(llm LLMSpec) float64 {
	b := d.MemCapacity - llm.WeightBytes() - kvWorkspaceBytes
	if b < 0 {
		return 0
	}
	return b
}

// AGXOrin returns the edge GPU of Table I: 54 TFLOPS FP16, LPDDR5
// 204.8 GB/s, 32 GB, PCIe 3.0 x4 to an NVMe SSD, ~40 W.
func AGXOrin() DeviceSpec {
	ssd := memsim.KioxiaBG6()
	return DeviceSpec{
		Name:          "AGX Orin",
		PeakFLOPS:     54e12,
		Mem:           memsim.LPDDR5_256(),
		MemCapacity:   32e9,
		Link:          memsim.PCIe3x4(),
		OffloadSSD:    &ssd,
		HostMem:       memsim.DDR4Host(),
		Power:         40,
		IdlePower:     12,
		DenseEff:      0.4,
		AttnEff:       0.25,
		IrregularEff:  0.03,
		FrameOverhead: 0.08,
	}
}

// A100 returns the server GPU of Table I: 312 TFLOPS BF16, HBM2e 1935 GB/s,
// 80 GB, PCIe 4.0 x16 to DDR4 CPU memory, ~300 W.
func A100() DeviceSpec {
	return DeviceSpec{
		Name:          "A100",
		PeakFLOPS:     312e12,
		Mem:           memsim.HBM2e5120(),
		MemCapacity:   80e9,
		Link:          memsim.PCIe4x16(),
		HostMem:       memsim.DDR4Host(),
		Power:         300,
		IdlePower:     60,
		DenseEff:      0.6,
		AttnEff:       0.4,
		IrregularEff:  0.05,
		FrameOverhead: 0.012,
	}
}

// VRexCoreFLOPS is one core's dense throughput: an N_DPE-h=64 x N_DPE-w=64
// MAC tree at 800 MHz -> 64*64*2*0.8e9 ≈ 6.55 TFLOPS; 8 cores give the
// paper's 53.3 TFLOPS, 48 give 319.5.
const VRexCoreFLOPS = 64 * 64 * 2 * 800e6

// VRex8 returns the edge V-Rex instantiation of Table I: 8 cores
// (53.3 TFLOPS), LPDDR5, PCIe 3.0 x4 + M.2 NVMe for KV offload, 35 W.
func VRex8() DeviceSpec {
	ssd := memsim.KioxiaBG6()
	return DeviceSpec{
		Name:          "V-Rex8",
		PeakFLOPS:     8 * VRexCoreFLOPS,
		Mem:           memsim.LPDDR5_256(),
		MemCapacity:   32e9,
		Link:          memsim.PCIe3x4(),
		OffloadSSD:    &ssd,
		HostMem:       memsim.DDR4Host(),
		Power:         35,
		IdlePower:     8,
		DenseEff:      0.85, // systolic MAC trees sustain near-peak on GEMM
		AttnEff:       0.7,
		IrregularEff:  0.05, // only relevant if ReSV ran on the LXE
		HasDRE:        true,
		Freq:          800e6,
		Cores:         8,
		FrameOverhead: 0.08,
	}
}

// VRex48 returns the server V-Rex instantiation: 48 cores (319.5 TFLOPS),
// HBM2e, PCIe 4.0 x16 to DDR4 CPU memory, 203.68 W.
func VRex48() DeviceSpec {
	return DeviceSpec{
		Name:          "V-Rex48",
		PeakFLOPS:     48 * VRexCoreFLOPS,
		Mem:           memsim.HBM2e5120(),
		MemCapacity:   80e9,
		Link:          memsim.PCIe4x16(),
		HostMem:       memsim.DDR4Host(),
		Power:         203.68,
		IdlePower:     40,
		DenseEff:      0.85,
		AttnEff:       0.7,
		IrregularEff:  0.05,
		HasDRE:        true,
		Freq:          800e6,
		Cores:         48,
		FrameOverhead: 0.012,
	}
}

// DeviceByName resolves a CLI/scenario device name to its spec. Accepted
// names (case-insensitive): agx | agxorin | orin, a100, vrex8 | v-rex8,
// vrex48 | v-rex48.
func DeviceByName(name string) (DeviceSpec, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "agx", "agxorin", "orin":
		return AGXOrin(), true
	case "a100":
		return A100(), true
	case "vrex8", "v-rex8":
		return VRex8(), true
	case "vrex48", "v-rex48":
		return VRex48(), true
	}
	return DeviceSpec{}, false
}

// DeviceNames returns the canonical device names DeviceByName accepts.
func DeviceNames() []string { return []string{"agx", "a100", "vrex8", "vrex48"} }
