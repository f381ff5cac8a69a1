package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/session"
)

// BenchmarkTotalSequencerMulticast8 is the acceptance benchmark for the
// batched ordering path: 8 members under fixed-sequencer total order, with
// and without sender-side batching. The batched configuration must clear
// at least 2x the unbatched msgs/sec (verified against the checked-in
// BENCH_<date>.json).
func BenchmarkTotalSequencerMulticast8(b *testing.B) {
	b.Run("unbatched", MulticastBench(MulticastOptions{
		Members: 8, Ordering: group.TotalSequencer, Seed: 1,
	}))
	b.Run("batched", MulticastBench(MulticastOptions{
		Members: 8, Ordering: group.TotalSequencer, Seed: 1,
		Batch: group.BatchConfig{MaxMsgs: 32},
	}))
}

// BenchmarkTotalTokenMulticast8 covers the circulating-token order the
// same way.
func BenchmarkTotalTokenMulticast8(b *testing.B) {
	b.Run("unbatched", MulticastBench(MulticastOptions{
		Members: 8, Ordering: group.TotalToken, Seed: 1,
	}))
	b.Run("batched", MulticastBench(MulticastOptions{
		Members: 8, Ordering: group.TotalToken, Seed: 1,
		Batch: group.BatchConfig{MaxMsgs: 32},
	}))
}

// BenchmarkOTRoundTrip prices the jupiter client/server round trip.
func BenchmarkOTRoundTrip(b *testing.B) {
	b.Run("4clients", OTBench(4))
}

// BenchmarkSessionPost prices one synchronous session post and push.
func BenchmarkSessionPost(b *testing.B) { SessionPostBench(1)(b) }

// BenchmarkCodecRoundTrip prices the wire codec on a representative session
// push and on a group data packet.
func BenchmarkCodecRoundTrip(b *testing.B) {
	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	payload := &session.MsgItems{Doc: "doc-7", Items: []session.Item{
		{Seq: 42, From: "alice", Kind: "edit", Body: "insert the quick brown fox", At: 1234567},
	}}
	b.Run("binary", CodecRoundTripBench(reg, payload))
	b.Run("group-packet", GroupPacketRoundTripBench())
}

// TestMulticastLatenciesDeterministic: the virtual-time profile is a pure
// function of the options — two runs agree exactly — and batching with an
// accumulation window shows more latency than unbatched, never less.
func TestMulticastLatenciesDeterministic(t *testing.T) {
	plain := MulticastOptions{Members: 5, Ordering: group.TotalSequencer, Seed: 7}
	batched := plain
	batched.Batch = group.BatchConfig{Window: time.Millisecond, MaxMsgs: 16}

	a := MulticastLatencies(plain, 64)
	b := MulticastLatencies(plain, 64)
	if a != b {
		t.Fatalf("latency profile not deterministic: %+v vs %+v", a, b)
	}
	if a.Samples != 64 {
		t.Fatalf("lost samples: %+v", a)
	}
	w := MulticastLatencies(batched, 64)
	if w.Samples != 64 {
		t.Fatalf("batched run lost samples: %+v", w)
	}
	if w.P50 < a.P50 {
		t.Fatalf("windowed batching cannot beat unbatched p50: %v < %v", w.P50, a.P50)
	}
}

// TestReportJSON pins the report schema: stable field names, sorted
// results, latency attachment. Its results are fixed benchmark outcomes, so
// nothing is timed.
func TestReportJSON(t *testing.T) {
	r := NewReport("2026-01-01", 7)
	r.Results = append(r.Results,
		FromBenchmark("zz", testing.BenchmarkResult{N: 1000, T: time.Millisecond}, 1),
		FromBenchmark("aa", testing.BenchmarkResult{N: 10, T: time.Millisecond}, 0))
	if err := r.Attach("zz", LatencyProfile{Samples: 3, P50: 5, P99: 9}); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach("nope", LatencyProfile{}); err == nil {
		t.Fatal("attach to unknown result succeeded")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.Date != "2026-01-01" || back.Seed != 7 {
		t.Fatalf("header mangled: %+v", back)
	}
	if len(back.Results) != 2 || back.Results[0].Name != "aa" || back.Results[1].Name != "zz" {
		t.Fatalf("results not sorted: %+v", back.Results)
	}
	if back.Results[1].P50VirtualNs != 5 || back.Results[1].P99VirtualNs != 9 {
		t.Fatalf("latency not attached: %+v", back.Results[1])
	}
	if !strings.Contains(buf.String(), `"msgs_per_sec"`) {
		t.Fatal("throughput field missing from zz")
	}
}
