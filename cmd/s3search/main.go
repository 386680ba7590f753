// Command s3search runs S3k keyword queries against a generated or saved
// instance and prints the ranked fragments, alongside the TopkS baseline
// answer for comparison.
//
// Usage:
//
//	s3search -dataset twitter -query "class-retoka" -k 5
//	s3search -spec i1.spec -seeker tw:u17 -query "#h3" -k 10 -gamma 2
//	s3search -snapshot i1.snap -query "#h3"   # cold-start from a snapshot
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/snap"
	"s3/internal/text"
	"s3/internal/topks"
)

// options carries the parsed command line.
type options struct {
	specPath string
	snapPath string
	dataset  string
	seeker   string
	query    string
	k        int
	gamma    float64
	eta      float64
	baseline bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("s3search: ")
	var o options
	flag.StringVar(&o.specPath, "spec", "", "load the instance spec (gob) from this file")
	flag.StringVar(&o.snapPath, "snapshot", "", "load a frozen instance snapshot (skips rebuild and indexing)")
	flag.StringVar(&o.dataset, "dataset", "twitter", "generate this dataset when -spec/-snapshot are not given")
	flag.StringVar(&o.seeker, "seeker", "", "seeker user URI (default: first connected user)")
	flag.StringVar(&o.query, "query", "", "space-separated query keywords (required)")
	flag.IntVar(&o.k, "k", 5, "number of results")
	flag.Float64Var(&o.gamma, "gamma", 1.5, "social damping γ > 1")
	flag.Float64Var(&o.eta, "eta", 0.8, "structural damping η ∈ (0,1)")
	flag.BoolVar(&o.baseline, "baseline", true, "also run the TopkS baseline (α = 0.5)")
	flag.Parse()
	if o.query == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run loads the instance, executes the query and prints the answer.
func run(o options, w io.Writer) error {
	in, ix, err := load(o)
	if err != nil {
		return err
	}
	eng := core.NewEngine(in, ix)

	seekerNID := graph.NoNID
	if o.seeker == "" {
		for _, u := range in.Users() {
			if len(in.OutEdges(u)) > 0 {
				seekerNID = u
				break
			}
		}
		if seekerNID == graph.NoNID {
			return fmt.Errorf("no connected user to auto-select as seeker; pass -seeker")
		}
		fmt.Fprintf(w, "seeker: %s (auto-selected)\n", in.URIOf(seekerNID))
	} else {
		n, ok := in.NIDOf(o.seeker)
		if !ok {
			return fmt.Errorf("unknown seeker %q", o.seeker)
		}
		seekerNID = n
	}

	keywords := strings.Fields(o.query)
	opts := core.Options{K: o.k, Params: score.Params{Gamma: o.gamma, Eta: o.eta}}
	results, stats, err := eng.Search(seekerNID, keywords, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nS3k answer for %v (γ=%.4g, η=%.4g, k=%d) — %s, %d iterations, %v:\n",
		keywords, o.gamma, o.eta, o.k, stats.Reason, stats.Iterations, stats.Elapsed)
	if len(results) == 0 {
		fmt.Fprintln(w, "  (no results)")
	}
	for i, r := range results {
		fmt.Fprintf(w, "  %2d. %-24s score ∈ [%.3e, %.3e]\n", i+1, r.URI, r.Lower, r.Upper)
	}

	if o.baseline {
		uit := topks.Convert(in)
		teng := topks.NewEngine(uit)
		tkws := resolveKeywords(in, keywords)
		tres, tstats, err := teng.Search(seekerNID, tkws, topks.Options{K: o.k, Alpha: 0.5})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nTopkS baseline (α=0.5) — %d users visited, %v:\n", tstats.UsersVisited, tstats.Elapsed)
		if len(tres) == 0 {
			fmt.Fprintln(w, "  (no results)")
		}
		for i, r := range tres {
			fmt.Fprintf(w, "  %2d. %-24s score ∈ [%.3e, %.3e]\n", i+1, r.URI, r.Lower, r.Upper)
		}
	}
	return nil
}

// load resolves the instance source: a binary snapshot (frozen instance +
// index, no rebuild), a spec file, or a generated dataset.
func load(o options) (*graph.Instance, *index.Index, error) {
	if o.snapPath != "" && o.specPath != "" {
		return nil, nil, fmt.Errorf("-snapshot and -spec are mutually exclusive")
	}
	if o.snapPath != "" {
		f, err := os.Open(o.snapPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return snap.Read(f)
	}
	var spec graph.Spec
	if o.specPath != "" {
		f, err := os.Open(o.specPath)
		if err != nil {
			return nil, nil, err
		}
		s, err := graph.DecodeSpec(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		spec = *s
	} else {
		switch o.dataset {
		case "twitter":
			spec, _ = datagen.Twitter(datagen.DefaultTwitterOptions())
		case "vodkaster":
			spec = datagen.Vodkaster(datagen.DefaultVodkasterOptions())
		case "yelp":
			spec = datagen.Yelp(datagen.DefaultYelpOptions())
		default:
			return nil, nil, fmt.Errorf("unknown dataset %q", o.dataset)
		}
	}
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		return nil, nil, err
	}
	return in, index.Build(in), nil
}

// resolveKeywords stems query keywords and resolves them to dictionary
// ids for the UIT baseline (which takes no semantic extension).
func resolveKeywords(in *graph.Instance, kws []string) []dict.ID {
	var out []dict.ID
	an := in.Analyzer()
	for _, kw := range kws {
		stems := an.Keywords(kw)
		if len(stems) == 0 {
			continue
		}
		if id, ok := in.Dict().Lookup(stems[0]); ok {
			out = append(out, id)
		}
	}
	return out
}
