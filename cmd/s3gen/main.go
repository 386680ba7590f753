// Command s3gen generates a synthetic S3 instance specification — the
// stand-ins for the paper's I1 (Twitter), I2 (Vodkaster) and I3 (Yelp)
// datasets — optionally writes it to disk, and prints its Figure 4
// statistics. With -snap it also freezes the built instance (graph,
// ontology and connection index) into a binary snapshot that s3serve and
// s3search cold-start from without rebuilding; with -shards N (N > 1) the
// frozen instance is written as a component-sharded shard set instead —
// the manifest at the -snap path plus one "<name>.shard-i" file per shard
// — which s3serve -shardset fans queries out over. The last line of output
// is the wall time of the run by phase (generate, graph build, index
// build, file writes); a phase that did not run reads 0.
//
// Usage:
//
//	s3gen -dataset twitter -scale 1 -seed 1 -out i1.spec -snap i1.snap
//	s3gen -dataset twitter -shards 4 -snap i1.set
//	s3gen -dataset yelp
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/snap"
	"s3/internal/text"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("s3gen: ")
	var (
		dataset = flag.String("dataset", "twitter", "dataset to generate: twitter | vodkaster | yelp")
		scale   = flag.Float64("scale", 1, "size multiplier over the laptop-scale defaults")
		seed    = flag.Int64("seed", 0, "random seed (0 = dataset default)")
		out     = flag.String("out", "", "write the generated spec (gob) to this file")
		snapOut = flag.String("snap", "", "write a frozen instance snapshot (binary) to this file")
		shards  = flag.Int("shards", 1, "with -snap: partition the instance into this many component shards (manifest + shard files)")
	)
	flag.Parse()

	if *shards < 1 {
		log.Fatal("-shards must be at least 1")
	}
	if *shards > 1 && *snapOut == "" {
		log.Fatal("-shards needs -snap (the shard-set manifest path)")
	}

	start := time.Now()
	spec, extra, err := Generate(*dataset, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	generated := time.Now()
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		log.Fatal(err)
	}
	graphed := time.Now()
	var ix *index.Index
	if *snapOut != "" {
		ix = index.Build(in)
	}
	indexed := time.Now()
	fmt.Printf("dataset %s (scale %.2g)\n\n%s", *dataset, *scale, in.Stats())
	if extra != "" {
		fmt.Println(extra)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := spec.Encode(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nspec written to %s\n", *out)
	}
	switch {
	case *snapOut != "" && *shards > 1:
		if err := writeShardSet(in, ix, *snapOut, *shards); err != nil {
			log.Fatal(err)
		}
	case *snapOut != "":
		if err := writeSnapshot(in, ix, *snapOut); err != nil {
			log.Fatal(err)
		}
	}
	// "write" is everything after the index: the statistics above, -out, -snap.
	done := time.Now()
	ms := func(from, to time.Time) int64 { return to.Sub(from).Milliseconds() }
	fmt.Printf("built in %d ms: generate %d, graph %d, index %d, write %d\n",
		ms(start, done), ms(start, generated), ms(generated, graphed), ms(graphed, indexed), ms(indexed, done))
}

// writeSnapshot persists the instance as a plain snapshot at path. The
// bytes go to "<path>.tmp" and are renamed into place once the file is
// closed: a write or close error never reports success, and a server that
// has path mapped keeps serving its old inode instead of faulting on a
// truncated one (snap.WriteShardSetFiles does the same for shard sets).
func writeSnapshot(in *graph.Instance, ix *index.Index, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = snap.Write(f, in, ix)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	fmt.Printf("snapshot written to %s\n", path)
	return nil
}

// writeShardSet persists the instance as a shard-set manifest plus one
// file per component shard, and prints the layout.
func writeShardSet(in *graph.Instance, ix *index.Index, manifestPath string, n int) error {
	parts, err := graph.PartitionComponents(in, n)
	if err != nil {
		return err
	}
	paths, err := snap.WriteShardSetFiles(manifestPath, in, ix, parts)
	if err != nil {
		return err
	}
	fmt.Printf("\nshard set written: manifest %s, %d shards\n", manifestPath, n)
	owner, err := graph.ComponentOwners(in.NumComponents(), parts)
	if err != nil {
		return err
	}
	docs, _ := graph.ShardContent(in, owner, n)
	for s, comps := range parts {
		fmt.Printf("  %s: %d components, %d documents\n", paths[s], len(comps), docs[s])
	}
	return nil
}

// Generate builds the requested dataset spec at the given scale.
func Generate(dataset string, scale float64, seed int64) (graph.Spec, string, error) {
	mul := func(n int) int {
		m := int(float64(n) * scale)
		if m < 10 {
			m = 10
		}
		return m
	}
	switch dataset {
	case "twitter":
		o := datagen.DefaultTwitterOptions()
		o.Users, o.Tweets = mul(o.Users), mul(o.Tweets)
		if seed != 0 {
			o.Seed = seed
		}
		spec, rep := datagen.Twitter(o)
		extra := fmt.Sprintf("\nTweets %d\nRetweets %.1f%%\nReplies %.1f%%",
			rep.Tweets, 100*rep.RetweetFrac, 100*rep.ReplyFrac)
		return spec, extra, nil
	case "vodkaster":
		o := datagen.DefaultVodkasterOptions()
		o.Users, o.Movies = mul(o.Users), mul(o.Movies)
		if seed != 0 {
			o.Seed = seed
		}
		return datagen.Vodkaster(o), "", nil
	case "yelp":
		o := datagen.DefaultYelpOptions()
		o.Users, o.Businesses = mul(o.Users), mul(o.Businesses)
		if seed != 0 {
			o.Seed = seed
		}
		return datagen.Yelp(o), "", nil
	default:
		return graph.Spec{}, "", fmt.Errorf("unknown dataset %q (want twitter, vodkaster or yelp)", dataset)
	}
}
