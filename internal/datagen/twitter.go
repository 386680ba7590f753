package datagen

import (
	"fmt"
	"math/rand"

	"s3/internal/doc"
	"s3/internal/graph"
)

// TwitterOptions size the synthetic stand-in for the paper's I1 instance
// (§5.1: one day of the public streaming API, May 2014).
type TwitterOptions struct {
	Seed   int64
	Users  int
	Tweets int
	// RetweetFrac and ReplyFrac reproduce Figure 4's shares: 85% of
	// tweets are retweets (becoming tags on the original), 6.9% are
	// replies (becoming comment documents).
	RetweetFrac float64
	ReplyFrac   float64
	// Vocab is the content vocabulary size; HashtagVocab the number of
	// distinct hashtags.
	Vocab        int
	HashtagVocab int
	// WordsPerTweet is the expected text length after stop-word removal.
	WordsPerTweet int
	// AvgSocialDegree controls the user-similarity social edges.
	AvgSocialDegree float64
	Ontology        OntologyOptions
}

// DefaultTwitterOptions is the laptop-scale default (the full-scale paper
// instance has 492k users and 1M tweets; shape, not size, is what the
// experiments assert).
func DefaultTwitterOptions() TwitterOptions {
	return TwitterOptions{
		Seed:            1,
		Users:           2000,
		Tweets:          8000,
		RetweetFrac:     0.85,
		ReplyFrac:       0.069,
		Vocab:           4000,
		HashtagVocab:    300,
		WordsPerTweet:   8,
		AvgSocialDegree: 12,
		Ontology:        DefaultOntologyOptions(),
	}
}

// Report records generation statistics mirroring Figure 4's
// Twitter-specific rows.
type Report struct {
	Tweets       int
	Documents    int
	RetweetFrac  float64
	ReplyFrac    float64
	Tags         int
	Endorsements int
}

// Twitter generates the I1 stand-in. Every non-retweet tweet becomes a
// three-node document (text, date, geo); retweets become hashtag tags (or
// keyword-less endorsements when they introduce no hashtag) on the
// original tweet; replies become documents that comment on the original.
// Tweet text mixes Zipfian vocabulary, entity mentions from the synthetic
// ontology (the DBpedia enrichment) and hashtags. Users are linked by
// similarity edges inside heavy-tailed communities, mirroring the paper's
// Jaccard-similarity construction with threshold 0.1.
func Twitter(o TwitterOptions) (graph.Spec, Report) {
	rng := rand.New(rand.NewSource(o.Seed))
	var spec graph.Spec
	var rep Report

	ont := GenOntology(rng, o.Ontology)
	spec.Ontology = ont.Triples

	// Users.
	users := make([]string, o.Users)
	for i := range users {
		users[i] = fmt.Sprintf("tw:u%d", i)
	}
	spec.Users = users

	// Social similarity edges within communities; weight is the simulated
	// similarity in [0.1, 1] (the paper thresholds at 0.1).
	comm := Communities(rng, o.Users, o.Users/40+1)
	byComm := make(map[int][]int)
	for u, c := range comm {
		byComm[c] = append(byComm[c], u)
	}
	degrees := PowerLawDegrees(rng, o.Users, o.AvgSocialDegree, o.Users/4+1)
	seenEdge := make(map[[2]int]bool)
	for u, deg := range degrees {
		peers := byComm[comm[u]]
		for d := 0; d < deg; d++ {
			var v int
			if len(peers) > 1 && rng.Float64() < 0.85 {
				v = peers[rng.Intn(len(peers))]
			} else {
				v = rng.Intn(o.Users)
			}
			if v == u || seenEdge[[2]int{u, v}] {
				continue
			}
			seenEdge[[2]int{u, v}] = true
			w := 0.1 + float64(0.9*rng.Float64())
			spec.Social = append(spec.Social, graph.SocialSpec{
				From: users[u], To: users[v], W: w, Prop: "tw:similar",
			})
		}
	}

	// Tweet stream. Authors follow a Zipfian activity distribution.
	zipfAuthor := NewZipf(rng, 1.3, o.Users)
	zipfWord := NewZipf(rng, 1.4, o.Vocab)
	zipfTag := NewZipf(rng, 1.3, o.HashtagVocab)
	zipfClass := NewZipf(rng, 1.3, len(ont.ClassNames))

	type tweetDoc struct {
		uri    string
		author int
	}
	var originals []tweetDoc
	tagSeq := 0

	textKeywords := func() []string {
		n := 3 + rng.Intn(2*o.WordsPerTweet-3)
		kws := make([]string, 0, n+2)
		for i := 0; i < n; i++ {
			kws = append(kws, Word(zipfWord.Draw()))
		}
		if rng.Float64() < 0.25 { // entity mention (DBpedia URI)
			kws = append(kws, ont.EntityTokens[rng.Intn(len(ont.EntityTokens))])
		}
		if rng.Float64() < 0.15 { // a class keyword in plain text
			kws = append(kws, ont.ClassNames[zipfClass.Draw()])
		}
		if rng.Float64() < 0.3 { // inline hashtag
			kws = append(kws, fmt.Sprintf("#h%d", zipfTag.Draw()))
		}
		return kws
	}

	makeTweet := func(i, author int) tweetDoc {
		uri := fmt.Sprintf("tw:t%d", i)
		root := &doc.Node{URI: uri, Name: "tweet", Children: []*doc.Node{
			{Name: "text", Keywords: textKeywords()},
			{Name: "date", Keywords: []string{fmt.Sprintf("2014-05-%02d", 1+rng.Intn(2))}},
			{Name: "geo", Keywords: []string{Word(1000 + rng.Intn(60))}},
		}}
		spec.Docs = append(spec.Docs, root)
		spec.Posts = append(spec.Posts, graph.PostSpec{Doc: uri, User: users[author]})
		rep.Documents++
		return tweetDoc{uri: uri, author: author}
	}

	for i := 0; i < o.Tweets; i++ {
		rep.Tweets++
		author := zipfAuthor.Draw()
		r := rng.Float64()
		switch {
		case r < o.RetweetFrac && len(originals) > 0:
			// Retweet: a tag (hashtag) or endorsement on the original.
			orig := originals[rng.Intn(len(originals))]
			tagURI := fmt.Sprintf("tw:rt%d", tagSeq)
			tagSeq++
			if rng.Float64() < 0.4 {
				h := fmt.Sprintf("#h%d", zipfTag.Draw())
				spec.Tags = append(spec.Tags, graph.TagSpec{
					URI: tagURI, Subject: orig.uri, Author: users[author], Keyword: h, Type: "tw:retweet",
				})
				rep.Tags++
			} else {
				spec.Tags = append(spec.Tags, graph.TagSpec{
					URI: tagURI, Subject: orig.uri, Author: users[author], Type: "tw:retweet",
				})
				rep.Endorsements++
			}
		case r < o.RetweetFrac+o.ReplyFrac && len(originals) > 0:
			// Reply: a document commenting on the original tweet.
			orig := originals[rng.Intn(len(originals))]
			td := makeTweet(i, author)
			spec.Comments = append(spec.Comments, graph.CommentSpec{
				Comment: td.uri, Target: orig.uri, Prop: "tw:repliesTo",
			})
		default:
			originals = append(originals, makeTweet(i, author))
		}
	}
	if rep.Tweets > 0 {
		rep.RetweetFrac = float64(rep.Tags+rep.Endorsements) / float64(rep.Tweets)
		rep.ReplyFrac = float64(len(spec.Comments)) / float64(rep.Tweets)
	}
	return spec, rep
}
