// Package bench is the first-class benchmark baseline for the hot paths:
// multicast ordering (batched and not), OT round-trips, session posts and
// codec round-trips, each expressed as a standard testing benchmark plus a
// virtual-time latency profile. cmd/cscwbench runs the suite and writes a
// BENCH_<date>.json report (schema cscw-bench/v1) that is checked in, so
// every optimisation lands with a before/after an external reader can
// diff; EXPERIMENTS.md explains how to read one.
//
// The package deliberately rides netsim (it is a declared simulation-world
// consumer in the lint layering policy): throughput numbers come from real
// Go execution over the in-memory simulator, while latency percentiles are
// *virtual-time* measurements — deterministic for a given seed, measuring
// protocol behaviour (batching windows, ordering round-trips), not host
// speed. One row leaves the simulator: GroupSequencerTCPBench runs the
// ordering layer over loopback TCP, the in-module twin of the end-to-end
// group_seq_1x4 workload.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"
)

// Schema identifies the report format.
const Schema = "cscw-bench/v1"

// Result is one benchmark's outcome.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	MsgsPerSec  float64 `json:"msgs_per_sec,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Frame bytes handed to transports per op, for the rows that leave
	// the simulator (WireBytesUnit).
	WireBytesPerOp float64 `json:"wire_bytes_per_op,omitempty"`
	// Virtual-time latency percentiles (deterministic; see LatencyProfile).
	P50VirtualNs int64  `json:"p50_virtual_ns,omitempty"`
	P99VirtualNs int64  `json:"p99_virtual_ns,omitempty"`
	Notes        string `json:"notes,omitempty"`
}

// Report is the checked-in benchmark baseline.
type Report struct {
	Schema    string   `json:"schema"`
	Date      string   `json:"date"` // supplied by the caller; this package never reads the wall clock
	GoVersion string   `json:"go_version"`
	Seed      int64    `json:"seed"`
	Results   []Result `json:"results"`
}

// NewReport returns an empty report for the given date stamp and seed.
func NewReport(date string, seed int64) *Report {
	return &Report{Schema: Schema, Date: date, GoVersion: runtime.Version(), Seed: seed}
}

// Add measures fn with testing.Benchmark and records it. msgsPerOp scales
// the throughput figure: a multicast op that fans out to 8 members still
// counts as one message through the ordering path, so most callers pass 1.
// A benchmark that fails before it times an iteration is recorded as
// nothing, and the error names its row. Outside a test binary,
// testing.Init must have run: a failing benchmark reads the test flags.
func (r *Report) Add(name string, msgsPerOp int, fn func(b *testing.B)) (Result, error) {
	br := testing.Benchmark(fn)
	if br.N == 0 {
		return Result{}, fmt.Errorf("bench: row %s failed before timing an iteration", name)
	}
	res := FromBenchmark(name, br, msgsPerOp)
	r.Results = append(r.Results, res)
	return res, nil
}

// FromBenchmark converts a testing.BenchmarkResult.
func FromBenchmark(name string, br testing.BenchmarkResult, msgsPerOp int) Result {
	ns := float64(br.T.Nanoseconds()) / float64(br.N)
	res := Result{
		Name:           name,
		Iters:          br.N,
		NsPerOp:        ns,
		AllocsPerOp:    float64(br.AllocsPerOp()),
		BytesPerOp:     float64(br.AllocedBytesPerOp()),
		WireBytesPerOp: br.Extra[WireBytesUnit],
	}
	if msgsPerOp > 0 && ns > 0 {
		res.MsgsPerSec = float64(msgsPerOp) * 1e9 / ns
	}
	return res
}

// Attach merges a latency profile into the named result.
func (r *Report) Attach(name string, p LatencyProfile) error {
	for i := range r.Results {
		if r.Results[i].Name == name {
			r.Results[i].P50VirtualNs = p.P50.Nanoseconds()
			r.Results[i].P99VirtualNs = p.P99.Nanoseconds()
			return nil
		}
	}
	return fmt.Errorf("bench: no result named %q", name)
}

// WriteJSON writes the report, results sorted by name for stable diffs.
func (r *Report) WriteJSON(w io.Writer) error {
	sort.Slice(r.Results, func(i, j int) bool { return r.Results[i].Name < r.Results[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LatencyProfile holds virtual-time percentiles over a sample set.
type LatencyProfile struct {
	Samples int
	P50     time.Duration
	P99     time.Duration
}

// percentiles computes a profile from raw samples (consumed: sorted in
// place).
func percentiles(samples []time.Duration) LatencyProfile {
	if len(samples) == 0 {
		return LatencyProfile{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	return LatencyProfile{Samples: len(samples), P50: at(0.50), P99: at(0.99)}
}
