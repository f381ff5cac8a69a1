package exps

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/simworld"
	"repro/internal/stream"
)

func e6Tiers() []stream.Tier {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []stream.Tier{
		{Name: "hq", Interval: ms(20), Size: 400, Contract: qos.Params{Throughput: 15_000, Latency: ms(60), Jitter: ms(30), Loss: 0.05}},
		{Name: "mq", Interval: ms(40), Size: 200, Contract: qos.Params{Throughput: 4_000, Latency: ms(150), Jitter: ms(80), Loss: 0.10}},
		{Name: "lq", Interval: ms(100), Size: 80, Contract: qos.Params{Throughput: 600, Latency: ms(400), Jitter: ms(250), Loss: 0.25}},
	}
}

// RunE6StreamQoS exercises the full QoS story of §4.2.2: negotiation at
// establishment, end-to-end monitoring, degradation alerts, dynamic
// re-negotiation to a lower tier, plus the two synchronisation styles and a
// jitter-buffer ablation.
func RunE6StreamQoS(seed int64) Table {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	t := Table{
		ID:      "E6",
		Title:   "continuous-media QoS: negotiation, monitoring, adaptation, synchronisation",
		Claim:   "negotiated QoS holds on a good link; degradation is detected within a monitor window and re-negotiation restores delivery; continuous sync bounds lip-sync skew",
		Columns: []string{"scenario", "negotiated tier", "renegotiations", "frames played", "skipped+late", "detail"},
	}

	// -- 1: good LAN, whole run at hq. --
	{
		sim := netsim.New(seed, netsim.Link{Latency: ms(3), Jitter: ms(2), Bandwidth: 60_000})
		sim.MustAddNode("src")
		sim.MustAddNode("dst")
		b, err := stream.Establish(sim, "src", []string{"dst"}, "audio", e6Tiers(), qos.Params{}, ms(60), 500*ms(1))
		if err != nil {
			t.Rows = append(t.Rows, []string{"good link", "ESTABLISH FAILED", "-", "-", "-", err.Error()})
		} else {
			b.Start()
			sim.At(10*time.Second, b.Stop)
			sim.RunUntil(11 * time.Second)
			st := b.Sinks()[0].Stats()
			t.Rows = append(t.Rows, []string{
				"good LAN, 10s", e6Tiers()[b.Tier()].Name,
				fmt.Sprintf("%d", b.Stats().Renegotiations),
				fmt.Sprintf("%d", st.Played),
				fmt.Sprintf("%d+%d", st.Skipped, st.Late),
				"contract held throughout",
			})
		}
	}

	// -- 2: link degrades mid-stream; adaptation steps down. --
	{
		sim := netsim.New(seed, netsim.Link{Latency: ms(3), Jitter: ms(2), Bandwidth: 60_000})
		sim.MustAddNode("src")
		sim.MustAddNode("dst")
		b, _ := stream.Establish(sim, "src", []string{"dst"}, "audio", e6Tiers(), qos.Params{}, ms(60), 500*ms(1))
		var detectedAt time.Duration
		b.OnViolation = func(sink string, vs []qos.Violation) {
			if detectedAt == 0 {
				detectedAt = sim.Now()
			}
		}
		var degradeAt time.Duration
		b.Start()
		sim.At(3*time.Second, func() {
			degradeAt = sim.Now()
			sim.SetLink("src", "dst", netsim.Link{Latency: ms(120), Jitter: ms(60), Bandwidth: 3_000})
		})
		sim.At(12*time.Second, b.Stop)
		sim.RunUntil(13 * time.Second)
		st := b.Sinks()[0].Stats()
		detail := "degradation never detected"
		if detectedAt > 0 {
			detail = fmt.Sprintf("detected %v after degradation", fmtDur(detectedAt-degradeAt))
		}
		t.Rows = append(t.Rows, []string{
			"link degrades at 3s", e6Tiers()[b.Tier()].Name,
			fmt.Sprintf("%d", b.Stats().Renegotiations),
			fmt.Sprintf("%d", st.Played),
			fmt.Sprintf("%d+%d", st.Skipped, st.Late),
			detail,
		})
	}

	// -- 3: lip sync on/off over asymmetric paths. --
	for _, synced := range []bool{false, true} {
		w := simworld.New(seed, netsim.Link{Latency: ms(5)})
		sim := w.Sim
		w.Named("asrc", "vsrc", "adst", "vdst")
		sim.SetLink("vsrc", "vdst", netsim.Link{Latency: ms(90)})
		tiers := e6Tiers()
		audio, _ := stream.NewSource(sim, w.Endpoint("asrc"), "a", "audio", []string{"adst"}, tiers[:1])
		video, _ := stream.NewSource(sim, w.Endpoint("vsrc"), "v", "video",
			[]string{"vdst"}, []stream.Tier{{Name: "v", Interval: ms(40), Size: 1500}})
		asink := stream.NewSink(sim, "adst", ms(20), ms(40))
		vsink := stream.NewSink(sim, "vdst", ms(40), ms(40))
		if synced {
			stream.NewSyncGroup(asink, vsink)
		}
		w.Endpoint("adst").SetHandler(asink.Handle)
		w.Endpoint("vdst").SetHandler(vsink.Handle)
		var maxSkew time.Duration
		asink.OnPlay = func(f *stream.Frame, _ time.Duration) {
			if f != nil && vsink.LastGen() > 0 {
				if s := stream.Skew(asink, vsink); s > maxSkew {
					maxSkew = s
				}
			}
		}
		audio.Start()
		video.Start()
		sim.At(5*time.Second, func() { audio.Stop(); video.Stop() })
		sim.Run()
		mode := "independent playout"
		if synced {
			mode = "continuous sync group"
		}
		t.Rows = append(t.Rows, []string{
			"lip sync: " + mode, "hq audio + video",
			"-", fmt.Sprintf("%d", asink.Stats().Played+vsink.Stats().Played), "-",
			fmt.Sprintf("max skew %s", fmtDur(maxSkew)),
		})
	}

	// -- 4: jitter buffer ablation. --
	for _, depth := range []time.Duration{ms(5), ms(30), ms(80)} {
		w := simworld.New(seed+7, netsim.Link{Latency: ms(10), Jitter: ms(25)})
		sim := w.Sim
		src, _ := stream.NewSource(sim, w.Endpoint("src"), "a", "audio", []string{"dst"}, e6Tiers()[:1])
		sink := stream.NewSink(sim, "dst", ms(20), depth)
		w.Endpoint("dst").SetHandler(sink.Handle)
		src.Start()
		sim.At(5*time.Second, src.Stop)
		sim.Run()
		st := sink.Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("jitter buffer %v (25ms jitter link)", depth), "hq",
			"-", fmt.Sprintf("%d", st.Played), fmt.Sprintf("%d+%d", st.Skipped, st.Late),
			"deeper buffer trades latency for continuity",
		})
	}
	return t
}
