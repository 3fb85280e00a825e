package memsim

import (
	"container/heap"
	"fmt"
)

// NVMeSim is an event-driven multi-queue SSD simulator in the spirit of
// MQSim: requests are submitted to submission queues, dispatched to a fixed
// number of flash channels, and serviced with per-chunk latency; channel
// parallelism and queue depth determine how much of the device's internal
// bandwidth a workload achieves. The analytic SSD model (SSD.ReadTime) is a
// closed-form approximation of this simulator; TestNVMeMatchesAnalytic keeps
// the two consistent.
//
//vrex:testonly reference model that the analytic SSD model is checked against
type NVMeSim struct {
	// Channels is the number of independent flash channels.
	Channels int
	// ChunkBytes is the flash read unit (page granularity).
	ChunkBytes int
	// ChunkLatency is the per-chunk flash read time in seconds.
	ChunkLatency float64
	// CommandOverhead is the per-request firmware/NVMe protocol cost.
	CommandOverhead float64

	clock    float64
	channels []float64 // next-free time per channel
}

// NewNVMeSim returns a simulator roughly matching the Kioxia BG6 analytic
// model: 4 channels x 4 KiB pages; per-page latency tuned so sequential
// reads sustain ~3.5 GB/s.
//
//vrex:testonly builds the reference model the analytic SSD model is checked against
func NewNVMeSim() *NVMeSim {
	s := &NVMeSim{
		Channels:        4,
		ChunkBytes:      4 * 1024,
		ChunkLatency:    4.5e-6,
		CommandOverhead: 2e-6,
	}
	s.Reset()
	return s
}

// Reset clears simulated time.
func (s *NVMeSim) Reset() {
	s.clock = 0
	s.channels = make([]float64, s.Channels)
}

// Clock returns the current simulated time.
func (s *NVMeSim) Clock() float64 { return s.clock }

// Request is one read request (a contiguous segment).
type Request struct {
	Bytes int
	// Submit is the submission time; requests may be submitted out of order.
	Submit float64
}

// channelHeap orders channels by next-free time.
type channelHeap []float64

func (h channelHeap) Len() int           { return len(h) }
func (h channelHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h channelHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *channelHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *channelHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Read services the batch of requests and returns the completion time of the
// last one (relative to time zero). Each request is striped across channels
// chunk by chunk; channels serve chunks first-come-first-served.
func (s *NVMeSim) Read(reqs []Request) float64 {
	if s.Channels <= 0 || s.ChunkBytes <= 0 {
		panic(fmt.Sprintf("memsim: invalid NVMeSim config %+v", s))
	}
	h := make(channelHeap, len(s.channels))
	copy(h, s.channels)
	heap.Init(&h)
	var done float64
	for _, r := range reqs {
		if r.Bytes <= 0 {
			continue
		}
		chunks := (r.Bytes + s.ChunkBytes - 1) / s.ChunkBytes
		reqDone := r.Submit
		for c := 0; c < chunks; c++ {
			free := heap.Pop(&h).(float64)
			start := free
			if r.Submit > start {
				start = r.Submit
			}
			if c == 0 {
				start += s.CommandOverhead
			}
			end := start + s.ChunkLatency
			heap.Push(&h, end)
			if end > reqDone {
				reqDone = end
			}
		}
		if reqDone > done {
			done = reqDone
		}
	}
	copy(s.channels, h)
	s.clock = done
	return done
}

// SequentialReadTime is a convenience: one large request at time zero.
func (s *NVMeSim) SequentialReadTime(bytes int) float64 {
	s.Reset()
	return s.Read([]Request{{Bytes: bytes}})
}

// ScatteredReadTime is a convenience: many small same-size requests at time
// zero (the token-granular KV fetch pattern).
func (s *NVMeSim) ScatteredReadTime(bytes, segments int) float64 {
	s.Reset()
	if segments <= 0 {
		segments = 1
	}
	per := bytes / segments
	if per <= 0 {
		per = 1
	}
	reqs := make([]Request, segments)
	for i := range reqs {
		reqs[i] = Request{Bytes: per}
	}
	return s.Read(reqs)
}

// EffectiveBandwidth returns achieved bytes/second for a workload shape.
func (s *NVMeSim) EffectiveBandwidth(bytes, segments int) float64 {
	t := s.ScatteredReadTime(bytes, segments)
	if t <= 0 {
		return 0
	}
	return float64(bytes) / t
}
