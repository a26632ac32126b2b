package live

import (
	"testing"
	"time"

	"repro/internal/ids"
)

// BenchmarkLiveCluster measures end-to-end live commits per wall second
// per protocol on a clean network — the live half of the benchmark
// trajectory (scripts/bench.sh). Each iteration runs a full cluster to
// its commit target and through shutdown, so goroutine startup, mailbox
// traffic and quiescence are all in the measured path.
func BenchmarkLiveCluster(b *testing.B) {
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		b.Run(p.String(), func(b *testing.B) {
			cfg := chaosConfig(p, 1, ChaosConfig{})
			var commits int64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				commits += res.Stats.Commits
			}
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(commits)/el, "commits/s")
			}
		})
	}
}

// BenchmarkTransport measures one message's trip through the transport
// layer — network.send, the destination's ring queue and pump, the
// resequencer, and the owner's channel — on a clean link, and on a lossy
// link where the ARQ layer acknowledges every delivery and retransmits
// what the link drops.
func BenchmarkTransport(b *testing.B) {
	for _, tc := range []struct {
		name string
		drop float64
	}{
		{"clean", 0},
		{"lossy-arq", 0.01},
	} {
		b.Run(tc.name, func(b *testing.B) {
			src, dst := newMailbox(1), newMailbox(1)
			src.owner, dst.owner = 0, 1
			boxes := map[ids.Client]*mailbox{0: src, 1: dst}
			var policy *linkPolicy
			if tc.drop > 0 {
				policy = newLinkPolicy(ChaosConfig{Drop: tc.drop}, 1)
			}
			net := newNetwork(0, func(c ids.Client) *mailbox { return boxes[c] }, policy)
			defer net.stop()
			if tc.drop > 0 {
				net.arq = newARQ(ARQConfig{}, net, func(err error) { b.Error(err) })
				src.arq, dst.arq = net.arq, net.arq
				defer net.arq.stop()
			}
			var m message = payload{src: 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.send(0, 1, m)
				<-dst.ch
			}
		})
	}
}
