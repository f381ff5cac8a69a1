package qos

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSatisfiesBasics(t *testing.T) {
	offer := Params{Throughput: 1000, Latency: ms(50), Jitter: ms(10), Loss: 0.01}
	tests := []struct {
		name string
		req  Params
		want bool
	}{
		{"unconstrained", Params{}, true},
		{"met exactly", Params{Throughput: 1000, Latency: ms(50), Jitter: ms(10), Loss: 0.01}, true},
		{"comfortably met", Params{Throughput: 500, Latency: ms(100)}, true},
		{"throughput too low", Params{Throughput: 2000}, false},
		{"latency too high", Params{Latency: ms(20)}, false},
		{"jitter too high", Params{Jitter: ms(5)}, false},
		{"loss too high", Params{Loss: 0.001}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := offer.Satisfies(tt.req); got != tt.want {
				t.Errorf("Satisfies = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSatisfiesUnboundedOfferFailsCeilings(t *testing.T) {
	offer := Params{Throughput: 1000} // promises nothing about latency
	if offer.Satisfies(Params{Latency: ms(10)}) {
		t.Error("offer with no latency promise cannot satisfy a latency bound")
	}
	if offer.Satisfies(Params{Jitter: ms(10)}) {
		t.Error("offer with no jitter promise cannot satisfy a jitter bound")
	}
}

func TestSatisfiesDisconnect(t *testing.T) {
	offer := Params{MaxDisconnect: time.Minute}
	if !offer.Satisfies(Params{MaxDisconnect: 2 * time.Minute}) {
		t.Error("1min gaps satisfy a 2min tolerance")
	}
	if offer.Satisfies(Params{MaxDisconnect: time.Second}) {
		t.Error("1min gaps exceed a 1s tolerance")
	}
}

func TestNegotiatePicksBestFeasible(t *testing.T) {
	offers := []Params{
		{Throughput: 200_000, Latency: ms(100), Jitter: ms(60), Loss: 0.05}, // HQ
		{Throughput: 50_000, Latency: ms(100), Jitter: ms(60), Loss: 0.05},  // MQ
		{Throughput: 10_000, Latency: ms(200), Jitter: ms(120), Loss: 0.10}, // LQ
	}
	capability := Params{Throughput: 60_000, Latency: ms(80), Jitter: ms(40), Loss: 0.01}
	req := Params{Throughput: 20_000, Latency: ms(300)}
	got, err := Negotiate(offers, capability, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Throughput != 50_000 {
		t.Errorf("agreed tier = %v, want the 50kB/s tier", got)
	}
}

func TestNegotiateNoAgreement(t *testing.T) {
	offers := []Params{{Throughput: 100_000, Latency: ms(50), Jitter: ms(10)}}
	capability := Params{Throughput: 1_000, Latency: ms(500), Jitter: ms(200)}
	if _, err := Negotiate(offers, capability, Params{}); !errors.Is(err, ErrNoAgreement) {
		t.Errorf("err = %v", err)
	}
	// Requirement stricter than any offer.
	capability = Params{Throughput: 1_000_000, Latency: ms(1), Jitter: ms(1)}
	if _, err := Negotiate(offers, capability, Params{Throughput: 500_000}); !errors.Is(err, ErrNoAgreement) {
		t.Errorf("err = %v", err)
	}
}

func TestMonitorCleanWindow(t *testing.T) {
	m := NewMonitor(Params{Throughput: 100, Latency: ms(50), Jitter: ms(20), Loss: 0.1}, time.Second)
	// 10 frames, 20 bytes each, 10ms latency, 100ms apart.
	for i := 0; i < 10; i++ {
		gen := time.Duration(i) * ms(100)
		m.Arrive(gen, gen+ms(10), 20)
	}
	m.Expect(10)
	rep, vs := m.Roll(time.Second)
	if len(vs) != 0 {
		t.Fatalf("violations = %+v", vs)
	}
	if rep.Frames != 10 || rep.Bytes != 200 || rep.Throughput != 200 {
		t.Errorf("report = %+v", rep)
	}
	if rep.MeanLat != ms(10) || rep.Jitter != 0 || rep.Loss != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestMonitorViolations(t *testing.T) {
	m := NewMonitor(Params{Throughput: 10_000, Latency: ms(50), Jitter: ms(5), Loss: 0.05, MaxDisconnect: ms(300)}, time.Second)
	// Two frames: one slow (80ms), long gap, low volume, half expected lost.
	m.Arrive(0, ms(10), 100)
	m.Arrive(ms(500), ms(580), 100) // latency 80ms, gap 570ms
	m.Expect(4)
	_, vs := m.Roll(time.Second)
	fields := map[string]bool{}
	for _, v := range vs {
		fields[v.Field] = true
	}
	for _, want := range []string{"throughput", "latency", "jitter", "loss", "disconnect"} {
		if !fields[want] {
			t.Errorf("missing violation %q in %+v", want, vs)
		}
	}
}

func TestMonitorWindowReset(t *testing.T) {
	m := NewMonitor(Params{Loss: 0.5}, time.Second)
	m.Expect(10) // nothing arrives: 100% loss
	_, vs := m.Roll(time.Second)
	if len(vs) != 1 || vs[0].Field != "loss" {
		t.Fatalf("vs = %+v", vs)
	}
	// Next window is clean.
	m.Arrive(ms(1100), ms(1110), 10)
	m.Expect(1)
	_, vs = m.Roll(2 * time.Second)
	if len(vs) != 0 {
		t.Errorf("second window violations = %+v", vs)
	}
}

func TestMonitorGapAcrossWindows(t *testing.T) {
	m := NewMonitor(Params{MaxDisconnect: ms(100)}, time.Second)
	m.Arrive(0, ms(10), 1)
	m.Roll(time.Second)
	// Next arrival is 1.5s after the previous one, in the next window.
	m.Arrive(ms(1500), ms(1510), 1)
	_, vs := m.Roll(2 * time.Second)
	if len(vs) != 1 || vs[0].Field != "disconnect" {
		t.Errorf("cross-window gap not detected: %+v", vs)
	}
}

func TestMonitorSetContract(t *testing.T) {
	m := NewMonitor(Params{Latency: ms(10)}, time.Second)
	m.Arrive(0, ms(30), 1)
	_, vs := m.Roll(time.Second)
	if len(vs) != 1 {
		t.Fatal("expected latency violation")
	}
	// Renegotiated down: same behaviour now acceptable.
	m.SetContract(Params{Latency: ms(100)})
	m.Arrive(ms(1100), ms(1130), 1)
	_, vs = m.Roll(2 * time.Second)
	if len(vs) != 0 {
		t.Errorf("violations after renegotiation = %+v", vs)
	}
}

func TestQuickSatisfiesReflexive(t *testing.T) {
	// Property: any fully-specified vector satisfies itself.
	f := func(tput uint16, lat, jit uint8, loss uint8) bool {
		p := Params{
			Throughput:    int64(tput) + 1,
			Latency:       time.Duration(lat+1) * time.Millisecond,
			Jitter:        time.Duration(jit+1) * time.Millisecond,
			Loss:          float64(loss) / 512,
			MaxDisconnect: time.Duration(lat+1) * time.Second,
		}
		return p.Satisfies(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSatisfiesTransitive(t *testing.T) {
	// Property: if a satisfies b and b satisfies c then a satisfies c, for
	// fully-specified vectors (the compatibility partial order).
	mk := func(tput uint16, lat, jit uint8) Params {
		return Params{
			Throughput: int64(tput) + 1,
			Latency:    time.Duration(lat+1) * time.Millisecond,
			Jitter:     time.Duration(jit+1) * time.Millisecond,
		}
	}
	f := func(t1, t2, t3 uint16, l1, l2, l3, j1, j2, j3 uint8) bool {
		a, b, c := mk(t1, l1, j1), mk(t2, l2, j2), mk(t3, l3, j3)
		if a.Satisfies(b) && b.Satisfies(c) {
			return a.Satisfies(c)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParamsString(t *testing.T) {
	p := Params{Throughput: 8000, Latency: ms(50), Jitter: ms(10), Loss: 0.01, MaxDisconnect: 30 * time.Second}
	if got, want := p.String(), "tput>=8000B/s lat<=50ms jit<=10ms loss<=0.010 disc<=30s"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func BenchmarkMonitorArriveRoll(b *testing.B) {
	m := NewMonitor(Params{Throughput: 100, Latency: ms(50)}, time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * ms(10)
		m.Arrive(now, now+ms(5), 100)
		if i%100 == 99 {
			m.Roll(now)
		}
	}
}
