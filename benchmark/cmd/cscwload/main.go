// Command cscwload is the repository's end-to-end benchmark. It builds and
// spawns the real cmd/sessiond, drives it over loopback TCP from in-process
// participants wired exactly as cmd/cscwctl wires them, prints every metric by
// name and unit, checks the outputs, and exits non-zero on any failed check.
//
// Usage (from the repository root):
//
//	cscwload [-seed n] [-seconds s] [-workload name] [-trace 0|1] [-quick] [-out report.json]
//	cscwload -compare base.json candidate.json
//
// With -workload and -trace the last line of standard output is the one JSON
// object BENCHMARK.json's driver reads: -trace 0 measures the end-to-end
// metrics (tracing off, against the child, every workload on a closed loop
// that keeps the CPU busy), -trace 1 the per-layer metrics (one untraced rep
// at the workload's open-loop rate, the replica-parity check, one traced rep
// against an in-process replica of sessiond's wiring). Without them every
// workload runs in both modes. benchmark/README.md has the metric and workload
// tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"repro/benchmark/load"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same op script")
	seconds := flag.Int("seconds", 15, "measuring time the fixed op counts are sized for")
	workload := flag.String("workload", "", "run one workload (default: all five)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; default: both")
	quick := flag.Bool("quick", false, "development: 1 rep, one tenth the ops, no traced run")
	compare := flag.Bool("compare", false, "compare two reports written by -out: cscwload -compare base.json candidate.json")
	out := flag.String("out", "", "write the full report (spreads and sample counts included) to this file")
	specPath := flag.String("spec", "BENCHMARK.json", "BENCHMARK.json, for -compare's bounds")
	buildDir := flag.String("build", ".bench_build", "where the sessiond binary is built")
	traceDir := flag.String("traces", filepath.Join("benchmark", "out"), "where trace-<workload>.json files are written")
	flag.Parse()

	if *compare {
		return runCompare(*specPath, flag.Args())
	}
	if flag.NArg() != 0 || *seconds < 1 || *trace < -1 || *trace > 1 || (*quick && *trace == 1) {
		flag.Usage()
		return 2
	}
	// The group workload reports the loadgen's own peak RSS, a high-water mark
	// of the whole process, so when everything runs it runs first.
	workloads := append([]load.Workload(nil), load.Workloads...)
	sort.SliceStable(workloads, func(i, j int) bool { return workloads[i].Engine == "" && workloads[j].Engine != "" })
	if *workload != "" {
		wl, ok := load.WorkloadNamed(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "cscwload: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []load.Workload{wl}
	}

	bin, buildTime, err := load.BuildSessiond(*buildDir)
	if err != nil {
		return fail(1, err)
	}
	// Told to end early, the loadgen takes its sessiond children with it.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		load.KillChildren()
		fmt.Fprintln(os.Stderr, "cscwload:", sig)
		os.Exit(1)
	}()
	opts := load.Options{
		Seed: *seed, Seconds: *seconds, Quick: *quick,
		Sessiond: bin, BuildS: buildTime.Seconds(), OutDir: *traceDir,
	}
	report := &load.Report{Seed: *seed, Seconds: *seconds, Workloads: make(map[string]*load.Result)}
	var last *load.Result
	for _, wl := range workloads {
		if *trace != 1 {
			res, err := opts.RunUntraced(wl)
			if err != nil {
				return fail(1, err)
			}
			res.Print(os.Stdout)
			last = res
			report.Merge(res)
		}
		if *trace != 0 && !*quick {
			res, err := opts.RunTraced(wl)
			if err != nil {
				return fail(1, err)
			}
			res.Print(os.Stdout)
			last = res
			report.Merge(res)
		}
	}
	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			return fail(1, err)
		}
	}

	// The driver's line: the one result when one was asked for, otherwise the
	// totals with the metrics left to the report.
	correct := true
	for _, res := range report.Workloads {
		correct = correct && res.Correct
	}
	if len(workloads) > 1 || *trace == -1 {
		last = &load.Result{Correct: correct}
		for _, res := range report.Workloads {
			last.Attempted += res.Attempted
			last.Failed += res.Failed
		}
	}
	line, err := last.ContractLine()
	if err != nil {
		return fail(1, err)
	}
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, "cscwload:", err)
	return code
}

func runCompare(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cscwload -compare base.json candidate.json")
		return 2
	}
	spec, err := load.ReadSpec(specPath)
	if err != nil {
		return fail(2, err)
	}
	base, err := load.ReadReport(args[0])
	if err != nil {
		return fail(2, err)
	}
	cand, err := load.ReadReport(args[1])
	if err != nil {
		return fail(2, err)
	}
	if load.Compare(os.Stdout, spec, base, cand) > 0 {
		return 1
	}
	return 0
}
