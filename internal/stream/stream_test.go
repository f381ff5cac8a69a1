package stream

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/qos"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// audioTiers returns a 3-tier audio ladder: 50fps/160B, 25fps/80B, 10fps/40B.
func audioTiers() []Tier {
	return []Tier{
		{Name: "hq", Interval: ms(20), Size: 160, Contract: qos.Params{Throughput: 6_000, Latency: ms(60), Jitter: ms(30), Loss: 0.05}},
		{Name: "mq", Interval: ms(40), Size: 80, Contract: qos.Params{Throughput: 1_500, Latency: ms(120), Jitter: ms(60), Loss: 0.10}},
		{Name: "lq", Interval: ms(100), Size: 40, Contract: qos.Params{Throughput: 300, Latency: ms(400), Jitter: ms(200), Loss: 0.25}},
	}
}

func TestSourceSinkDelivery(t *testing.T) {
	sim := netsim.New(1, netsim.Link{Latency: ms(5)})
	sim.MustAddNode("src")
	dst := sim.MustAddNode("dst")
	src, err := NewSource(sim, fabric.FromSim(sim.Node("src")), "a", "audio", []string{"dst"}, audioTiers())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink(sim, "dst", ms(20), ms(30))
	fabric.FromSim(dst).SetHandler(sink.Handle)
	var played []uint64
	sink.OnPlay = func(f *Frame, _ time.Duration) {
		if f != nil {
			played = append(played, f.Seq)
		}
	}
	src.Start()
	sim.At(time.Second, src.Stop)
	sim.Run()
	// ~50 frames in 1s at 20ms.
	if len(played) < 45 || len(played) > 52 {
		t.Fatalf("played %d frames", len(played))
	}
	for i := 1; i < len(played); i++ {
		if played[i] != played[i-1]+1 {
			t.Fatalf("playout out of order at %d: %v", i, played[i])
		}
	}
	st := sink.Stats()
	if st.Skipped != 0 || st.Late != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestJitterBufferAbsorbsJitter(t *testing.T) {
	run := func(depth time.Duration) SinkStats {
		sim := netsim.New(9, netsim.Link{Latency: ms(10), Jitter: ms(25)})
		sim.MustAddNode("src")
		dst := sim.MustAddNode("dst")
		src, _ := NewSource(sim, fabric.FromSim(sim.Node("src")), "a", "audio", []string{"dst"}, audioTiers())
		sink := NewSink(sim, "dst", ms(20), depth)
		fabric.FromSim(dst).SetHandler(sink.Handle)
		src.Start()
		sim.At(2*time.Second, src.Stop)
		sim.Run()
		return sink.Stats()
	}
	shallow := run(ms(2))
	deep := run(ms(60))
	if shallow.Late == 0 {
		t.Error("shallow buffer should drop late frames under jitter")
	}
	if deep.Late >= shallow.Late {
		t.Errorf("deep buffer should reduce lateness: deep=%d shallow=%d", deep.Late, shallow.Late)
	}
}

func TestContinuousSyncBoundsSkew(t *testing.T) {
	// Audio (20ms) and video (40ms) to the same receiver over links with
	// very different delay. Unsynced, their playout offsets differ by the
	// path difference; slaved, the skew stays within one video frame.
	run := func(slave bool) time.Duration {
		sim := netsim.New(3, netsim.Link{Latency: ms(5)})
		sim.MustAddNode("asrc")
		sim.MustAddNode("vsrc")
		an := sim.MustAddNode("adst")
		vn := sim.MustAddNode("vdst")
		// Video takes a much slower path.
		sim.SetLink("vsrc", "vdst", netsim.Link{Latency: ms(90)})
		audio, _ := NewSource(sim, fabric.FromSim(sim.Node("asrc")), "a", "audio", []string{"adst"}, audioTiers())
		vt := []Tier{{Name: "v", Interval: ms(40), Size: 1000, Contract: qos.Params{}}}
		video, _ := NewSource(sim, fabric.FromSim(sim.Node("vsrc")), "v", "video", []string{"vdst"}, vt)
		asink := NewSink(sim, "adst", ms(20), ms(40))
		vsink := NewSink(sim, "vdst", ms(40), ms(40))
		if slave {
			NewSyncGroup(asink, vsink)
		}
		fabric.FromSim(an).SetHandler(asink.Handle)
		fabric.FromSim(vn).SetHandler(vsink.Handle)
		var maxSkew time.Duration
		asink.OnPlay = func(f *Frame, _ time.Duration) {
			if f != nil && vsink.LastGen() > 0 {
				if s := Skew(asink, vsink); s > maxSkew {
					maxSkew = s
				}
			}
		}
		audio.Start()
		video.Start()
		sim.At(time.Second, func() { audio.Stop(); video.Stop() })
		sim.Run()
		return maxSkew
	}
	unsynced := run(false)
	synced := run(true)
	if synced >= unsynced {
		t.Errorf("sync should reduce skew: synced=%v unsynced=%v", synced, unsynced)
	}
	if synced > ms(45) {
		t.Errorf("synced skew %v exceeds one video frame", synced)
	}
}

func TestEstablishNegotiatesTier(t *testing.T) {
	// A link that can only carry the middle tier.
	sim := netsim.New(1, netsim.Link{Latency: ms(20), Jitter: ms(10), Bandwidth: 3_000})
	sim.MustAddNode("src")
	sim.MustAddNode("dst")
	b, err := Establish(sim, "src", []string{"dst"}, "audio", audioTiers(),
		qos.Params{}, ms(60), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if b.Tier() != 1 {
		t.Errorf("negotiated tier = %d (%s), want 1 (mq)", b.Tier(), audioTiers()[b.Tier()].Name)
	}
}

func TestEstablishNoAgreement(t *testing.T) {
	sim := netsim.New(1, netsim.Link{Latency: time.Second, Jitter: time.Second, Bandwidth: 10})
	sim.MustAddNode("src")
	sim.MustAddNode("dst")
	if _, err := Establish(sim, "src", []string{"dst"}, "audio", audioTiers(), qos.Params{}, ms(60), time.Second); err == nil {
		t.Error("hopeless link should fail to establish")
	}
}

func TestBindingAdaptsUnderDegradation(t *testing.T) {
	// Start on a good LAN, then degrade the link mid-stream; the binding
	// must detect the violation and step down a tier.
	sim := netsim.New(5, netsim.Link{Latency: ms(2), Jitter: ms(1), Bandwidth: 50_000})
	sim.MustAddNode("src")
	sim.MustAddNode("dst")
	b, err := Establish(sim, "src", []string{"dst"}, "audio", audioTiers(), qos.Params{}, ms(60), 500*ms(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Tier() != 0 {
		t.Fatalf("should start at hq, got %d", b.Tier())
	}
	var adapted [][2]int
	b.OnAdapt = func(from, to int) { adapted = append(adapted, [2]int{from, to}) }
	violations := 0
	b.OnViolation = func(sink string, vs []qos.Violation) { violations += len(vs) }
	b.Start()
	// Degrade at 1s: radio-grade latency breaks the hq contract.
	sim.At(time.Second, func() {
		sim.SetLink("src", "dst", netsim.Link{Latency: ms(100), Jitter: ms(40), Bandwidth: 2_000})
	})
	sim.At(4*time.Second, b.Stop)
	sim.RunUntil(5 * time.Second)
	if len(adapted) == 0 {
		t.Fatal("binding never adapted")
	}
	if adapted[0] != [2]int{0, 1} {
		t.Errorf("first adaptation = %v", adapted[0])
	}
	if violations == 0 {
		t.Error("no violation alerts delivered")
	}
	if b.Stats().Renegotiations < 1 || b.Stats().Degradations < 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestGroupStreamBinding(t *testing.T) {
	sim := netsim.New(1, netsim.Link{Latency: ms(5)})
	sim.MustAddNode("src")
	for _, d := range []string{"d1", "d2", "d3"} {
		sim.MustAddNode(d)
	}
	b, err := Establish(sim, "src", []string{"d1", "d2", "d3"}, "video", audioTiers(), qos.Params{}, ms(40), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	sim.At(time.Second, b.Stop)
	sim.RunUntil(2 * time.Second)
	for i, s := range b.Sinks() {
		if s.Stats().Played < 40 {
			t.Errorf("sink %d played %d", i, s.Stats().Played)
		}
	}
}

func TestSourceTierSwitch(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	sim.MustAddNode("src")
	sim.MustAddNode("dst")
	src, err := NewSource(sim, fabric.FromSim(sim.Node("src")), "a", "audio", []string{"dst"}, audioTiers())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetTier(5); err == nil {
		t.Error("out-of-range tier should fail")
	}
	if err := src.SetTier(2); err != nil {
		t.Fatal(err)
	}
	if src.CurrentTier().Name != "lq" {
		t.Errorf("tier = %s", src.CurrentTier().Name)
	}
}

func BenchmarkStreamSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := netsim.New(1, netsim.Link{Latency: ms(5)})
		sim.MustAddNode("src")
		dst := sim.MustAddNode("dst")
		src, _ := NewSource(sim, fabric.FromSim(sim.Node("src")), "a", "audio", []string{"dst"}, audioTiers())
		sink := NewSink(sim, "dst", ms(20), ms(30))
		fabric.FromSim(dst).SetHandler(sink.Handle)
		src.Start()
		sim.At(time.Second, src.Stop)
		sim.Run()
	}
}
