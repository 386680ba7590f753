package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json: the harness reads the window length and,
// for -compare, each end-to-end metric's direction and bound from it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// summary is one metric of one workload over the suite's repeated runs.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

func summarize(unit string, values []float64) summary {
	q1, q2, q3 := quartiles(values)
	return summary{Unit: unit, Values: values, Q1: q1, Median: q2, Q3: q3}
}

// suiteFile is what -out writes and -compare reads.
type suiteFile struct {
	Env       map[string]string             `json:"env"`
	Seed      int64                         `json:"seed"`
	Runs      int                           `json:"runs"`
	Seconds   int                           `json:"seconds"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	Workloads map[string]map[string]summary `json:"workloads"`
}

// environment records what a result depends on besides the code.
func environment(root string) map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

// runSuite runs every workload `runs` times (seeds seed, seed+1, …),
// prints each run, and summarises each metric as median and quartiles.
func (e *env) runSuite(ctx context.Context, o runOpts, runs int, out string) error {
	file := suiteFile{Env: environment(e.root), Seed: o.seed, Runs: runs, Seconds: o.seconds,
		Workloads: map[string]map[string]summary{}}
	for _, w := range workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		for r := 0; r < runs; r++ {
			ro := o
			ro.seed = o.seed + int64(r)
			res, err := e.runWorkload(ctx, w, ro)
			if err != nil {
				return err
			}
			printMetrics(os.Stdout, fmt.Sprintf("%s seed %d", w.name, ro.seed), res)
			file.Attempted += res.Attempted
			file.Failed += res.Failed
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		file.Workloads[w.name] = map[string]summary{}
		for n, vs := range values {
			file.Workloads[w.name][n] = summarize(units[n], vs)
		}
		if runs > 1 {
			printSpread(os.Stdout, w.name, file.Workloads[w.name])
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if file.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// printSpread shows how far the repeated runs of a workload lie apart:
// the inter-quartile distance as a share of the median is what the bounds
// in BENCHMARK.json are sized against.
func printSpread(w io.Writer, workload string, metrics map[string]summary) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: median [q1, q3] and spread over %d runs\n", workload, len(metrics[names[0]].Values))
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f [%.4f, %.4f] %-6s %5.1f%%\n", n, m.Median, m.Q1, m.Q3, m.Unit, 100*spread(m.Values))
	}
}

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A for one metric. change is how much worse B's
// median is than A's, as a share of A's; noise is the wider of the two
// inter-quartile ranges on the same scale. A change inside the noise is
// unresolved when the noise itself is wider than the bound, and unchanged
// otherwise; outside the noise it is worse beyond the bound, and better
// when it is an improvement. With fewer than two values a side has no
// measured spread, so the bound stands in for it.
func verdict(a, b summary, spec metricSpec) (change, noise float64, v string) {
	if a.Median == 0 {
		return 0, 0, verdictUnresolved
	}
	change = (b.Median - a.Median) / math.Abs(a.Median)
	if spec.Better == "higher" {
		change = -change
	}
	noise = math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / math.Abs(a.Median)
	if len(a.Values) < 2 || len(b.Values) < 2 {
		noise = spec.Bound
	}
	switch {
	case math.Abs(change) <= noise && noise > spec.Bound:
		v = verdictUnresolved
	case change > spec.Bound:
		v = verdictWorse
	case change < -noise:
		v = verdictBetter
	default:
		v = verdictUnchanged
	}
	return change, noise, v
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric).
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  commit %s  %d runs × %d s\nB: %s  commit %s  %d runs × %d s\n\n",
		pathA, a.Env["commit"], a.Runs, a.Seconds, pathB, b.Env["commit"], b.Runs, b.Seconds)
	fmt.Fprintf(w, "%-14s %-14s %-6s %30s %30s %8s %7s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "noise", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			sa, okA := a.Workloads[wl.Name][ms.Name]
			sb, okB := b.Workloads[wl.Name][ms.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-14s missing from %s\n", wl.Name, ms.Name, map[bool]string{true: pathB, false: pathA}[okA])
				continue
			}
			change, noise, v := verdict(sa, sb, ms)
			cell := func(s summary) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3) }
			fmt.Fprintf(w, "%-14s %-14s %-6s %30s %30s %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, ms.Name, ms.Unit, cell(sa), cell(sb), 100*change, 100*noise, 100*ms.Bound, v)
		}
	}
	return nil
}
