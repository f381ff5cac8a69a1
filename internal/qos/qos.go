// Package qos implements quality-of-service management for continuous
// media, the paper's §4.2.2 requirement list: expression of desired QoS
// levels, compatibility checking between required and provided annotations,
// negotiation between peers, end-to-end monitoring with degradation alerts,
// and dynamic re-negotiation. The mobility extension (accepted levels of
// disconnection) appears as an explicit parameter, as §4.2.2 "the impact of
// mobility" asks.
package qos

import (
	"errors"
	"fmt"
	"time"
)

// Params is a QoS parameter vector. Throughput is a floor; the rest are
// ceilings. The zero value of a field means "unconstrained".
type Params struct {
	// Throughput is the minimum acceptable delivered rate in bytes/second.
	Throughput int64
	// Latency is the maximum acceptable end-to-end delay.
	Latency time.Duration
	// Jitter is the maximum acceptable delay variation.
	Jitter time.Duration
	// Loss is the maximum acceptable loss fraction in [0,1].
	Loss float64
	// MaxDisconnect is the longest tolerable connectivity gap (mobile
	// hosts); zero means disconnection is not tolerated at all only if
	// Latency is also set — by convention zero means unconstrained.
	MaxDisconnect time.Duration
}

// String renders the vector compactly.
func (p Params) String() string {
	return fmt.Sprintf("tput>=%dB/s lat<=%v jit<=%v loss<=%.3f disc<=%v",
		p.Throughput, p.Latency, p.Jitter, p.Loss, p.MaxDisconnect)
}

// Satisfies reports whether an offered vector p meets requirement r: at
// least the throughput, at most everything else. Unconstrained requirement
// fields (zero) always pass; an unconstrained *offer* field fails a
// constrained requirement for ceilings (the provider promises nothing).
func (p Params) Satisfies(r Params) bool {
	if r.Throughput > 0 && p.Throughput < r.Throughput {
		return false
	}
	if r.Latency > 0 && (p.Latency == 0 || p.Latency > r.Latency) {
		return false
	}
	if r.Jitter > 0 && (p.Jitter == 0 || p.Jitter > r.Jitter) {
		return false
	}
	if r.Loss > 0 && p.Loss > r.Loss {
		return false
	}
	if r.MaxDisconnect > 0 && p.MaxDisconnect > r.MaxDisconnect {
		return false
	}
	return true
}

// Errors returned by negotiation.
var ErrNoAgreement = errors.New("qos: no offer satisfies the requirement")

// Negotiate picks the first offer (offers are preference-ordered, best
// first) that the provider capability can support and that satisfies the
// consumer requirement. It returns the agreed contract. This is the
// offer/counter-offer exchange of the paper collapsed to its outcome; the
// stream binding drives it again at run time for re-negotiation.
func Negotiate(offers []Params, capability Params, requirement Params) (Params, error) {
	for _, off := range offers {
		if capability.Satisfies(off) && off.Satisfies(requirement) {
			return off, nil
		}
	}
	return Params{}, fmt.Errorf("%w: %d offers against cap %s", ErrNoAgreement, len(offers), capability)
}

// Violation describes one observed contract breach.
type Violation struct {
	Field    string // "throughput", "latency", "jitter", "loss", "disconnect"
	Observed float64
	Bound    float64
	At       time.Duration
}

// Report is the monitor's rolling observation over the current window.
type Report struct {
	Window     time.Duration
	Frames     int
	Bytes      int64
	Throughput int64         // observed bytes/second
	MeanLat    time.Duration // mean end-to-end latency
	MaxLat     time.Duration
	Jitter     time.Duration // max |latency - mean|
	Loss       float64       // fraction of expected frames missing
	LongestGap time.Duration // longest inter-arrival gap (disconnection proxy)
}

// Monitor observes a stream against a contract, window by window. Feed it
// every frame arrival; call Roll at window boundaries to obtain the report
// and any violations. The monitor is the "end-to-end monitoring of QoS so
// that the application can be informed if degradations occur".
type Monitor struct {
	contract Params
	window   time.Duration

	frames   int
	bytes    int64
	totalLat time.Duration
	maxLat   time.Duration
	minLat   time.Duration
	lastArr  time.Duration
	firstWin time.Duration
	gap      time.Duration
	expected int
	lats     []time.Duration
}

// NewMonitor creates a monitor for the contract with the given reporting
// window.
func NewMonitor(contract Params, window time.Duration) *Monitor {
	return &Monitor{contract: contract, window: window, lastArr: -1}
}

// SetContract replaces the contract (after a re-negotiation).
func (m *Monitor) SetContract(p Params) { m.contract = p }

// Arrive records a frame arrival: when it was generated, when it arrived,
// and its size.
func (m *Monitor) Arrive(gen, now time.Duration, size int) {
	lat := now - gen
	m.frames++
	m.bytes += int64(size)
	m.totalLat += lat
	if lat > m.maxLat {
		m.maxLat = lat
	}
	if m.frames == 1 || lat < m.minLat {
		m.minLat = lat
	}
	if m.lastArr >= 0 && now-m.lastArr > m.gap {
		m.gap = now - m.lastArr
	}
	m.lastArr = now
	m.lats = append(m.lats, lat)
}

// Expect records that a frame was due in this window (for loss accounting).
func (m *Monitor) Expect(n int) { m.expected += n }

// Roll closes the current window at time now, returning the report and the
// contract violations observed. Counters reset for the next window.
func (m *Monitor) Roll(now time.Duration) (Report, []Violation) {
	r := Report{Window: m.window, Frames: m.frames, Bytes: m.bytes, LongestGap: m.gap}
	if m.frames > 0 {
		r.MeanLat = m.totalLat / time.Duration(m.frames)
		r.MaxLat = m.maxLat
		jitter := time.Duration(0)
		for _, l := range m.lats {
			d := l - r.MeanLat
			if d < 0 {
				d = -d
			}
			if d > jitter {
				jitter = d
			}
		}
		r.Jitter = jitter
	}
	if m.window > 0 {
		r.Throughput = int64(float64(m.bytes) / m.window.Seconds())
	}
	if m.expected > 0 {
		missing := m.expected - m.frames
		if missing < 0 {
			missing = 0
		}
		r.Loss = float64(missing) / float64(m.expected)
	}

	var vs []Violation
	c := m.contract
	if c.Throughput > 0 && r.Throughput < c.Throughput {
		vs = append(vs, Violation{Field: "throughput", Observed: float64(r.Throughput), Bound: float64(c.Throughput), At: now})
	}
	if c.Latency > 0 && r.MaxLat > c.Latency {
		vs = append(vs, Violation{Field: "latency", Observed: float64(r.MaxLat), Bound: float64(c.Latency), At: now})
	}
	if c.Jitter > 0 && r.Jitter > c.Jitter {
		vs = append(vs, Violation{Field: "jitter", Observed: float64(r.Jitter), Bound: float64(c.Jitter), At: now})
	}
	if c.Loss > 0 && r.Loss > c.Loss {
		vs = append(vs, Violation{Field: "loss", Observed: r.Loss, Bound: c.Loss, At: now})
	}
	if c.MaxDisconnect > 0 && r.LongestGap > c.MaxDisconnect {
		vs = append(vs, Violation{Field: "disconnect", Observed: float64(r.LongestGap), Bound: float64(c.MaxDisconnect), At: now})
	}

	// Reset for the next window, keeping lastArr so gaps spanning windows
	// are still seen.
	m.frames = 0
	m.bytes = 0
	m.totalLat = 0
	m.maxLat = 0
	m.minLat = 0
	m.gap = 0
	m.expected = 0
	m.lats = m.lats[:0]
	return r, vs
}
