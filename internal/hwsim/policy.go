package hwsim

// PredKind classifies a retrieval policy's KV-prediction computation.
type PredKind int

const (
	// PredNone: no prediction compute (FlexGen fetches everything, Dense
	// attends everything resident).
	PredNone PredKind = iota
	// PredTopK: score all cached tokens and top-k sort (InfiniGen/ReKV).
	PredTopK
	// PredReSV: hash-bit clustering + WiCSum over clusters (score work
	// shrinks by the cluster compression ratio).
	PredReSV
)

// PolicyModel is the performance-plane description of a retrieval policy:
// how much KV it fetches, what its prediction computes, where that
// prediction runs, and how its fetches are laid out. The ratio fields are
// typically measured on the functional plane (core/retrieval packages) and
// carried over, keeping both planes consistent.
type PolicyModel struct {
	Name string
	// FrameRatio / TextRatio: fraction of the cached KV fetched per layer in
	// each stage.
	FrameRatio float64
	TextRatio  float64
	// Pred selects the prediction cost model.
	Pred PredKind
	// PredOnDevice: prediction runs on the main compute device (GPU),
	// serialising with LLM kernels at IrregularEff for the irregular parts;
	// false on V-Rex, where the DRE runs it concurrently.
	PredOnDevice bool
	// SegmentTokens is the average contiguous run length (in tokens) of a
	// fetch: 1 for token-granular selection, the video tokens-per-frame for
	// ReKV, the mean cluster size for ReSV under the KVMU.
	SegmentTokens float64
	// Offloads: the full cache lives off-device and selected tokens must
	// cross the link. False for Dense/Oaken (resident cache, OOM risk).
	Offloads bool
	// ClusterCompression is tokens-per-cluster (ReSV): prediction scores
	// clusters, not tokens. 1 for token-granular policies.
	ClusterCompression float64
	// KVQuantBits is the resident-KV precision (16 default, 4 for Oaken).
	KVQuantBits int
	// PrefetchOverlap: selected KV for layer l+1 is prefetched during layer
	// l's computation (Fig. 5 ii/iii). FlexGen's vanilla loop (Fig. 5 i)
	// loads serially.
	PrefetchOverlap bool
	// ResidentReuse is the fraction of a chunk's selected tokens already
	// resident from the previous chunk's fetch (temporal selection
	// stability; high for ReSV because cluster-level selections are stable
	// across adjacent frames and the retrieved-KV region of Fig. 12 is
	// reused).
	ResidentReuse float64
}

func (p *PolicyModel) ratio(stage StageKind) float64 {
	if stage == StageFramePhase {
		return p.FrameRatio
	}
	return p.TextRatio
}

func (p *PolicyModel) quantFactor() float64 {
	if p.KVQuantBits <= 0 || p.KVQuantBits >= 16 {
		return 1
	}
	return float64(p.KVQuantBits) / 16
}

// KVBytesPerToken returns the resident KV footprint of one token under this
// policy's storage precision — the page-sizing input of the serving plane's
// KV pool (internal/kvpool).
func (p PolicyModel) KVBytesPerToken(llm LLMSpec) float64 {
	return llm.KVBytesPerToken() * p.quantFactor()
}

// StageKind mirrors model.Stage for the performance plane.
type StageKind int

const (
	// StageFramePhase is iterative prefill of a video frame.
	StageFramePhase StageKind = iota
	// StageTextPhase is question prefill / answer generation.
	StageTextPhase
)

// Default policy models. The ratios are the Table II averages (frame/text):
// FlexGen 100/100, InfiniGen 100/6.8, InfiniGenP 50.8/6.8, ReKV 58.4/31.2,
// ReSV 32.7/2.5. Experiments may override with functionally measured values.

// FlexGenModel returns the offload-everything baseline.
func FlexGenModel() PolicyModel {
	return PolicyModel{
		Name: "FlexGen", FrameRatio: 1, TextRatio: 1,
		Pred: PredNone, SegmentTokens: 4096, Offloads: true,
		ClusterCompression: 1, KVQuantBits: 16,
		PrefetchOverlap: false, // vanilla serial load (Fig. 5 i)
	}
}

// InfiniGenModel returns generation-only top-k retrieval.
func InfiniGenModel() PolicyModel {
	return PolicyModel{
		Name: "InfiniGen", FrameRatio: 1, TextRatio: 0.068,
		Pred: PredTopK, PredOnDevice: true, SegmentTokens: 1, Offloads: true,
		ClusterCompression: 1, KVQuantBits: 16,
		PrefetchOverlap: true,
	}
}

// InfiniGenPModel returns prefill-extended top-k retrieval.
func InfiniGenPModel() PolicyModel {
	return PolicyModel{
		Name: "InfiniGenP", FrameRatio: 0.508, TextRatio: 0.068,
		Pred: PredTopK, PredOnDevice: true, SegmentTokens: 1, Offloads: true,
		ClusterCompression: 1, KVQuantBits: 16,
		PrefetchOverlap: true,
	}
}

// ReKVModel returns frame-granular top-k retrieval (segment = 10 video
// tokens).
func ReKVModel() PolicyModel {
	return PolicyModel{
		Name: "ReKV", FrameRatio: 0.584, TextRatio: 0.312,
		Pred: PredTopK, PredOnDevice: true, SegmentTokens: 10, Offloads: true,
		ClusterCompression: 1, KVQuantBits: 16,
		PrefetchOverlap: true, ResidentReuse: 0.2,
	}
}

// ReSVModel returns ReSV under V-Rex: clustered prediction (avg 32
// tokens/cluster, the paper's measured occupancy), KVMU cluster-contiguous
// fetches, DRE execution.
func ReSVModel() PolicyModel {
	return PolicyModel{
		Name: "ReSV", FrameRatio: 0.327, TextRatio: 0.025,
		Pred: PredReSV, PredOnDevice: false, SegmentTokens: 32, Offloads: true,
		ClusterCompression: 32, KVQuantBits: 16,
		PrefetchOverlap: true, ResidentReuse: 0.65,
	}
}

// ReSVOnGPUModel returns the AGX+ReSV ablation of Fig. 16: same algorithm,
// but prediction executes on the GPU (irregular kernels) and fetches lose
// the KVMU's contiguity (online reordering is impractical on GPUs,
// Sec. V-C).
func ReSVOnGPUModel() PolicyModel {
	m := ReSVModel()
	m.Name = "ReSV-on-GPU"
	m.PredOnDevice = true
	m.SegmentTokens = 4 // partial contiguity from natural temporal runs
	return m
}

// DenseModel returns the no-offload baseline (vanilla VideoLLM-Online /
// AGX Orin in Fig. 15): everything resident, OOM when the cache outgrows
// device memory.
func DenseModel() PolicyModel {
	return PolicyModel{
		Name: "Dense", FrameRatio: 1, TextRatio: 1,
		Pred: PredNone, SegmentTokens: 4096, Offloads: false,
		ClusterCompression: 1, KVQuantBits: 16,
	}
}

// OakenModel returns the Oaken comparison point of Fig. 15: online 4-bit KV
// quantisation, no offload — 4x more cache fits, but growth is unbounded so
// OOM still occurs past ~4x the dense limit.
func OakenModel() PolicyModel {
	m := DenseModel()
	m.Name = "Oaken"
	m.KVQuantBits = 4
	return m
}
