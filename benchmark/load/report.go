package load

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Report is what one cscwload invocation measured, as written by -out and
// read back by -compare.
type Report struct {
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Workloads map[string]*Result `json:"workloads"`
}

// Merge folds a result into the report: the untraced and the traced run of
// one workload share an entry.
func (rp *Report) Merge(res *Result) {
	have := rp.Workloads[res.Workload]
	if have == nil {
		rp.Workloads[res.Workload] = res
		return
	}
	have.Correct = have.Correct && res.Correct
	have.Attempted += res.Attempted
	have.Failed += res.Failed
	have.Failures = append(have.Failures, res.Failures...)
	have.Discarded += res.Discarded
	for name, m := range res.Metrics {
		have.Metrics[name] = m
	}
}

// WriteFile writes the report as indented JSON.
func (rp *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport reads a report written by WriteFile.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp Report
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}

// Print writes every metric by name and unit, with sample counts and spreads
// where there are any, then whatever checks failed.
func (r *Result) Print(w io.Writer) {
	for _, name := range r.MetricNames() {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-16s %-32s %14.4f %-6s", r.Workload, name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if m.Spread > 0 {
			fmt.Fprintf(w, " %s.spread=%.4f", name, m.Spread)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-16s attempted=%d failed=%d correct=%v reps_discarded=%d\n", r.Workload, r.Attempted, r.Failed, r.Correct, r.Discarded)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-16s FAILED CHECK: %s\n", r.Workload, f)
	}
}

// ContractLine renders a result as the driver's one-line JSON object: exactly
// correct, attempted, failed and metrics, each metric exactly value and unit.
func (r *Result) ContractLine() (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]metric, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = metric{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// Spec is the part of BENCHMARK.json the harness reads: the workload names
// and the metric declarations.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one metric's declaration; Bound is the share of the baseline
// by which an end-to-end metric may worsen (absent on per-layer metrics).
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// ReadSpec reads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of a comparison.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Judge compares one end-to-end metric of a baseline and a candidate run: the
// candidate is worse (or better) when its median moved against (or with) the
// metric's direction by more than the bound, and the comparison is unresolved
// when either side's own spread across repetitions exceeds the bound — the
// runs cannot tell a move that small from noise.
func Judge(spec MetricSpec, base, cand Metric) string {
	if base.Value == 0 {
		return Unresolved
	}
	if base.Spread > spec.Bound || cand.Spread > spec.Bound {
		return Unresolved
	}
	worsening := (cand.Value - base.Value) / base.Value
	if spec.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > spec.Bound:
		return Worse
	case worsening < -spec.Bound:
		return Better
	}
	return Same
}

// Compare prints a verdict per (workload, end-to-end metric) present in both
// reports and returns how many were worse.
func Compare(w io.Writer, spec *Spec, base, cand *Report) (worse int) {
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		if cand.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, ms := range spec.EndToEnd {
			b, okB := base.Workloads[wl].Metrics[ms.Name]
			c, okC := cand.Workloads[wl].Metrics[ms.Name]
			if !okB || !okC {
				continue
			}
			verdict := Judge(ms, b, c)
			if verdict == Worse {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-20s %12.4f -> %12.4f %-6s (bound %.0f%%, spreads %.1f%% / %.1f%%) %s\n",
				wl, ms.Name, b.Value, c.Value, ms.Unit, ms.Bound*100, b.Spread*100, c.Spread*100, verdict)
		}
	}
	return worse
}
