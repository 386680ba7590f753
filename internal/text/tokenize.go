// Package text implements the keyword pipeline of the S3 model (paper §2,
// "Keywords"): tokenization, stop-word removal and stemming. Every literal
// appearing in a document node or tag is broken into words, stop words are
// dropped and the remaining words are stemmed; the results are the keywords
// K of the data model.
//
// Two languages are supported, matching the paper's datasets: English
// (Twitter/Yelp instances, full Porter stemmer) and French (Vodkaster
// instance, light suffix-stripping stemmer).
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits text into lower-cased tokens. A token is a maximal run of
// letters, digits and the intra-token characters '.', '-', '_' and '\”
// (so "M.S." and "e-mail" survive as single tokens), optionally prefixed by
// '#' or '@' (hashtags and mentions are meaningful in social content).
// Leading and trailing punctuation is trimmed from each token.
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := strings.Trim(b.String(), ".-_'")
		b.Reset()
		if tok != "" && tok != "#" && tok != "@" {
			tokens = append(tokens, tok)
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '.' || r == '-' || r == '_' || r == '\'':
			if b.Len() > 0 {
				b.WriteRune(r)
			}
		case (r == '#' || r == '@') && b.Len() == 0:
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Lang selects the stemming and stop-word behaviour of an Analyzer.
type Lang int

const (
	// English uses the Porter stemmer and an English stop-word list.
	English Lang = iota
	// French uses a light suffix-stripping stemmer and a French stop-word
	// list (the paper's I2 instance is French and was "stemmed" the same
	// way, §5.1).
	French
	// None performs no stemming and no stop-word removal; useful for
	// identifier-like vocabularies (synthetic datasets, hashtags).
	None
)

// Analyzer turns free text into the stemmed keyword multiset of the model.
// The zero value is a usable English analyzer.
type Analyzer struct {
	Lang Lang
	// KeepStopwords disables stop-word removal.
	KeepStopwords bool
}

// Keywords tokenizes, removes stop words, stems, and de-duplicates while
// preserving first-occurrence order. De-duplication matches the model: a
// node's content is a *set* of keywords (§2.3).
func (a Analyzer) Keywords(text string) []string {
	toks := Tokenize(text)
	out := toks[:0]
	seen := make(map[string]struct{}, len(toks))
	for _, tok := range toks {
		if !a.KeepStopwords && a.isStopword(tok) {
			continue
		}
		k := a.Stem(tok)
		if k == "" {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// Term returns the index term a word maps to: its first keyword, or the
// word itself when the pipeline keeps none of it (a stop word). Tag
// keywords and ontology terms go through it, so they share the content
// vocabulary.
func (a Analyzer) Term(word string) string {
	if ks := a.Keywords(word); len(ks) > 0 {
		return ks[0]
	}
	return word
}

// Stem stems a single lower-case token according to the analyzer language.
// Hashtags and mentions are returned unstemmed (they are identifiers).
func (a Analyzer) Stem(tok string) string {
	if tok == "" || tok[0] == '#' || tok[0] == '@' {
		return tok
	}
	switch a.Lang {
	case English:
		return PorterStem(tok)
	case French:
		return FrenchStem(tok)
	default:
		return tok
	}
}

func (a Analyzer) isStopword(tok string) bool {
	switch a.Lang {
	case English:
		return englishStopwords[tok]
	case French:
		return frenchStopwords[tok]
	default:
		return false
	}
}
