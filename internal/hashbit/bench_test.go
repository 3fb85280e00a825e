package hashbit

import (
	"fmt"
	"testing"

	"vrex/internal/mathx"
)

// BenchmarkHCTableInsert times HCTable.Insert at resv-stream's table size:
// 536 clusters of 64-wide keys, Th_hd 7. nhp=32 is the workload's N_hp, one
// signature word, which nearest scans with its one-word loop; nhp=128, two
// words, times its general loop. Each probe is a cluster's signature with
// one bit flipped, so it joins that cluster after the scan compares it with
// every representative; the table is rebuilt, untimed, every 1024 probes so
// memberships stay short. It reports ns per cluster compared beside ns/op
// and allocs/op.
func BenchmarkHCTableInsert(b *testing.B) {
	for _, nhp := range []int{32, 128} {
		b.Run(fmt.Sprintf("nhp=%d", nhp), func(b *testing.B) {
			const clusters, dim, probes = 536, 64, 1024
			words := (nhp + 63) / 64
			rng := mathx.NewRNG(63)
			// Representatives at least Th_hd apart, so each founds a cluster.
			var reps []Signature
			for len(reps) < clusters {
				sig := make(Signature, words)
				for k := range sig {
					sig[k] = rng.Uint64()
				}
				if r := nhp % 64; r != 0 {
					sig[words-1] &= 1<<uint(r) - 1
				}
				far := true
				for _, r := range reps {
					far = far && Hamming(sig, r) >= 7
				}
				if far {
					reps = append(reps, sig)
				}
			}
			key := make([]float32, dim)
			for i := range key {
				key[i] = rng.Norm32()
			}
			tab := NewHCTable(7)
			build := func() {
				tab.Reset()
				for tok, sig := range reps {
					tab.Insert(tok, key, sig)
				}
			}
			build()
			sigs := make([]Signature, probes)
			for i := range sigs {
				sigs[i] = append(Signature(nil), reps[rng.Intn(clusters)]...)
				bit := rng.Intn(nhp)
				sigs[i][bit/64] ^= 1 << uint(bit%64)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%probes == 0 && i > 0 {
					b.StopTimer()
					build()
					b.StartTimer()
				}
				tab.Insert(clusters+i%probes, key, sigs[i%probes])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/clusters, "ns/cluster")
		})
	}
}
