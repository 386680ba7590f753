package bench

import (
	"fmt"
	"strings"
	"time"

	"s3/internal/core"
	"s3/internal/score"
)

// Table is a minimal aligned-text table renderer for figure output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// FigureConfig carries the sweep parameters shared by Figures 5, 6 and 8.
type FigureConfig struct {
	// QueriesPerWorkload is 100 in the paper; benchmarks default lower to
	// keep runs short (set via cmd/s3bench -queries).
	QueriesPerWorkload int
	Seed               int64
	Gammas             []float64 // S3k γ sweep (paper: 1.25, 1.5, 2)
	Alphas             []float64 // TopkS α sweep (paper: 0.25, 0.5, 0.75)
	Eta                float64
}

// DefaultFigureConfig mirrors the paper's parameter grid.
func DefaultFigureConfig() FigureConfig {
	return FigureConfig{
		QueriesPerWorkload: 20,
		Seed:               42,
		Gammas:             []float64{1.25, 1.5, 2},
		Alphas:             []float64{0.25, 0.5, 0.75},
		Eta:                0.8,
	}
}

// Fig4 renders the instance-statistics table of Figure 4.
func Fig4(datasets ...*Dataset) string {
	t := &Table{
		Title:  "Figure 4 — statistics on the instances",
		Header: []string{"measure"},
	}
	for _, d := range datasets {
		t.Header = append(t.Header, d.Name)
	}
	rows := []struct {
		label string
		get   func(*Dataset) string
	}{
		{"Users", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().Users) }},
		{"S3:social edges", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().SocialEdges) }},
		{"Documents", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().Documents) }},
		{"Fragments (non-root)", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().Fragments) }},
		{"Tags", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().Tags) }},
		{"Keywords (occurrences)", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().KeywordOccurrences) }},
		{"Comment edges", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().Comments) }},
		{"Ontology triples", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().OntologyTriples) }},
		{"Avg social degree", func(d *Dataset) string { return fmt.Sprintf("%.1f", d.In.Stats().AvgSocialDegree) }},
		{"Nodes (w/o keywords)", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().Nodes) }},
		{"Edges (w/o keywords)", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().Edges) }},
		{"Components", func(d *Dataset) string { return fmt.Sprint(d.In.Stats().Components) }},
	}
	for _, r := range rows {
		cells := []string{r.label}
		for _, d := range datasets {
			cells = append(cells, r.get(d))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// Fig5 renders the query-time comparison of Figure 5 (and Figure 6, which
// is the same sweep over another instance): median per-workload runtimes
// for S3k under each γ and TopkS under each α.
func Fig5(d *Dataset, cfg FigureConfig) (string, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 5/6 — median query answering times on %s", d.Name),
		Header: []string{"workload (f,l,k)"},
	}
	for _, g := range cfg.Gammas {
		t.Header = append(t.Header, fmt.Sprintf("S3k γ=%.4g", g))
	}
	for _, a := range cfg.Alphas {
		t.Header = append(t.Header, fmt.Sprintf("TopkS α=%.4g", a))
	}
	for wi, id := range PaperWorkloads() {
		w, err := BuildWorkload(d.In, id, cfg.QueriesPerWorkload, cfg.Seed+int64(wi))
		if err != nil {
			return "", err
		}
		cells := []string{id.String()}
		for _, g := range cfg.Gammas {
			opts := core.Options{K: id.K, Params: score.Params{Gamma: g, Eta: cfg.Eta}}
			ds, err := TimeS3k(d, w, opts)
			if err != nil {
				return "", err
			}
			cells = append(cells, ms(Quartiles(ds).Median))
		}
		for _, a := range cfg.Alphas {
			ds, err := TimeTopkS(d, w, a)
			if err != nil {
				return "", err
			}
			cells = append(cells, ms(Quartiles(ds).Median))
		}
		t.AddRow(cells...)
	}
	return t.String(), nil
}

// Fig7 renders the k-sweep of Figure 7: min/Q1/median/Q3/max S3k runtimes
// on single-keyword workloads for k ∈ {1, 5, 10, 50} and γ ∈ {1.5, 4}.
func Fig7(d *Dataset, cfg FigureConfig) (string, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 7 — query time quartiles vs k on %s", d.Name),
		Header: []string{"workload (f,l,k)", "γ", "min", "Q1", "median", "Q3", "max"},
	}
	for wi, id := range KSweepWorkloads() {
		w, err := BuildWorkload(d.In, id, cfg.QueriesPerWorkload, cfg.Seed+100+int64(wi))
		if err != nil {
			return "", err
		}
		for _, g := range []float64{1.5, 4} {
			opts := core.Options{K: id.K, Params: score.Params{Gamma: g, Eta: cfg.Eta}}
			ds, err := TimeS3k(d, w, opts)
			if err != nil {
				return "", err
			}
			q := Quartiles(ds)
			t.AddRow(id.String(), fmt.Sprintf("%.4g", g),
				ms(q.Min), ms(q.Q1), ms(q.Median), ms(q.Q3), ms(q.Max))
		}
	}
	return t.String(), nil
}

// Fig8 renders the qualitative comparison of Figure 8: the four measures
// averaged over the eight paper workloads, per instance.
func Fig8(cfg FigureConfig, datasets ...*Dataset) (string, error) {
	t := &Table{
		Title:  "Figure 8 — relations between S3k and TopkS answers",
		Header: []string{"measure"},
	}
	for _, d := range datasets {
		t.Header = append(t.Header, d.Name)
	}
	qual := make([]Quality, len(datasets))
	for di, d := range datasets {
		var acc Quality
		for wi, id := range PaperWorkloads() {
			w, err := BuildWorkload(d.In, id, cfg.QueriesPerWorkload, cfg.Seed+200+int64(wi))
			if err != nil {
				return "", err
			}
			opts := core.Options{K: id.K, Params: score.Params{Gamma: 1.5, Eta: cfg.Eta}}
			q, err := CompareWorkload(d, w, opts, 0.5)
			if err != nil {
				return "", err
			}
			acc.GraphReach += q.GraphReach
			acc.SemReach += q.SemReach
			acc.L1 += q.L1
			acc.Intersection += q.Intersection
			acc.Queries++
		}
		n := float64(acc.Queries)
		qual[di] = Quality{
			GraphReach:   acc.GraphReach / n,
			SemReach:     acc.SemReach / n,
			L1:           acc.L1 / n,
			Intersection: acc.Intersection / n,
		}
	}
	rows := []struct {
		label string
		get   func(Quality) float64
	}{
		{"Graph reachability", func(q Quality) float64 { return q.GraphReach }},
		{"Semantic reachability", func(q Quality) float64 { return q.SemReach }},
		{"L1", func(q Quality) float64 { return q.L1 }},
		{"Intersection size", func(q Quality) float64 { return q.Intersection }},
	}
	for _, r := range rows {
		cells := []string{r.label}
		for di := range datasets {
			cells = append(cells, pct(r.get(qual[di])))
		}
		t.AddRow(cells...)
	}
	return t.String(), nil
}
