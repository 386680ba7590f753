package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "search_p50_ms", Better: "lower", Bound: 0.08}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.08}
	tight := func(m float64) summary { return summarize("x", []float64{m * 0.99, m, m, m, m * 1.01}) }
	loose := func(m float64) summary { return summarize("x", []float64{m * 0.8, m * 0.9, m, m * 1.1, m * 1.2}) }
	for _, c := range []struct {
		name string
		a, b summary
		spec metricSpec
		want string
	}{
		{"same", tight(10), tight(10.2), lower, verdictUnchanged},
		{"slower beyond the bound", tight(10), tight(11.5), lower, verdictWorse},
		{"faster beyond the noise", tight(10), tight(9), lower, verdictBetter},
		{"more throughput is better", tight(100), tight(115), higher, verdictBetter},
		{"less throughput is worse", tight(100), tight(85), higher, verdictWorse},
		{"noise wider than the bound hides a small change", loose(10), loose(10.5), lower, verdictUnresolved},
		{"noise does not hide a large change", loose(10), loose(20), lower, verdictWorse},
		{"single runs: inside the bound", summarize("x", []float64{10}), summarize("x", []float64{10.5}), lower, verdictUnchanged},
		{"single runs: beyond the bound", summarize("x", []float64{10}), summarize("x", []float64{12}), lower, verdictWorse},
	} {
		if _, _, got := verdict(c.a, c.b, c.spec); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesPrintsEveryRow(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.08}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"single-cold"})
	dir := t.TempDir()
	write := func(name string, qps []float64) string {
		f := suiteFile{Env: map[string]string{"commit": name}, Runs: len(qps), Seconds: 12,
			Workloads: map[string]map[string]summary{"single-cold": {"qps": summarize("1/s", qps)}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, spec, write("a", []float64{100, 101, 99}), write("b", []float64{80, 81, 79})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "single-cold") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("compare output lacks the row or its verdict:\n%s", out.String())
	}
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, with the same units.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads, tableWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		tableWorkloads = append(tableWorkloads, w.name)
	}
	if strings.Join(specWorkloads, ",") != strings.Join(tableWorkloads, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the harness %v", specWorkloads, tableWorkloads)
	}

	layers := map[string]metric{}
	topologyLayers(layers, &loadResult{}, scrapes{}, scrapes{})
	for name, unit := range tracedMetrics {
		layers[name] = metric{0, unit}
	}
	check := func(kind string, specs []metricSpec, have map[string]metric) {
		var want, got []string
		for _, m := range specs {
			want = append(want, m.Name+" "+m.Unit)
		}
		for name, m := range have {
			got = append(got, name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Errorf("%s metrics differ.\nBENCHMARK.json:\n%s\nharness:\n%s", kind, strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}
	check("per_layer", spec.PerLayer, layers)
	e2e := map[string]metric{}
	endToEnd(e2e, nil, nil, 0, 0, 0)
	check("end_to_end", spec.EndToEnd, e2e)
}
