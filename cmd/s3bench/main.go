// Command s3bench regenerates the tables and figures of the paper's
// evaluation section (§5) over the synthetic dataset stand-ins:
//
//	Figure 4  — instance statistics (I1/I2/I3)
//	Figure 5  — median query times on I1, S3k γ-sweep vs TopkS α-sweep
//	Figure 5b — the same sweep on I2 (the paper reports "similar" results)
//	Figure 6  — the same sweep on I3
//	Figure 7  — query-time quartiles vs k on I1 (γ ∈ {1.5, 4})
//	Figure 8  — S3k vs TopkS answer-quality measures per instance
//
// Usage:
//
//	s3bench -fig all -queries 20 -scale 1
//	s3bench -fig 5 -queries 100            # the paper's workload size
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"s3/internal/bench"
	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("s3bench: ")
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 4 | 5 | 5b | 6 | 7 | 8 | ablation | all")
		queries = flag.Int("queries", 20, "queries per workload (paper: 100)")
		scale   = flag.Float64("scale", 1, "dataset size multiplier")
		seed    = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	cfg := bench.DefaultFigureConfig()
	cfg.QueriesPerWorkload = *queries
	cfg.Seed = *seed

	need := func(names ...string) bool {
		if *fig == "all" {
			return true
		}
		for _, n := range names {
			if *fig == n {
				return true
			}
		}
		return false
	}

	var i1, i2, i3 *bench.Dataset
	if need("4", "5", "7", "8", "ablation") {
		i1 = build("I1 (twitter)", twitterSpec(*scale))
	}
	if need("4", "5b", "8") {
		i2 = build("I2 (vodkaster)", datagen.Vodkaster(scaleVdk(*scale)))
	}
	if need("4", "6", "8") {
		i3 = build("I3 (yelp)", datagen.Yelp(scaleYelp(*scale)))
	}

	out := make([]string, 0, 6)
	emit := func(s string, err error) {
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, s)
	}
	if need("4") {
		out = append(out, bench.Fig4(i1, i2, i3))
	}
	if need("5") {
		emit(bench.Fig5(i1, cfg))
	}
	if need("5b") {
		emit(bench.Fig5(i2, cfg))
	}
	if need("6") {
		emit(bench.Fig5(i3, cfg))
	}
	if need("7") {
		emit(bench.Fig7(i1, cfg))
	}
	if need("8") {
		emit(bench.Fig8(cfg, i1, i2, i3))
	}
	if need("ablation") {
		emit(bench.FigAblations(i1, cfg))
	}
	if len(out) == 0 {
		log.Fatalf("unknown figure %q", *fig)
	}
	fmt.Println(strings.Join(out, "\n"))
}

func build(name string, spec graph.Spec) *bench.Dataset {
	start := time.Now()
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		log.Fatal(err)
	}
	d := bench.NewDataset(name, in)
	log.Printf("built %s in %v (graph) + %v (index)", name, time.Since(start)-d.BuildTime, d.BuildTime)
	return d
}

func twitterSpec(scale float64) graph.Spec {
	o := datagen.DefaultTwitterOptions()
	o.Users = mul(o.Users, scale)
	o.Tweets = mul(o.Tweets, scale)
	spec, _ := datagen.Twitter(o)
	return spec
}

func scaleVdk(scale float64) datagen.VodkasterOptions {
	o := datagen.DefaultVodkasterOptions()
	o.Users = mul(o.Users, scale)
	o.Movies = mul(o.Movies, scale)
	return o
}

func scaleYelp(scale float64) datagen.YelpOptions {
	o := datagen.DefaultYelpOptions()
	o.Users = mul(o.Users, scale)
	o.Businesses = mul(o.Businesses, scale)
	return o
}

func mul(n int, scale float64) int {
	m := int(float64(n) * scale)
	if m < 10 {
		m = 10
	}
	return m
}
