package text

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzAnalyzerKeywords runs arbitrary query text through every analyzer a
// search can use — English, French and None, with and without stop
// words — as POST /search does with each keyword. Property: no panic,
// and every keyword is non-empty, holds no space and differs from the
// others (the content of a node is a set, §2.3).
func FuzzAnalyzerKeywords(f *testing.F) {
	for _, s := range []string{
		"",
		"   \t\n ",
		"When I got my M.S. @UAlberta in 2012 ...",
		"#graduation day!! #Graduation",
		"state-of-the-art systems, running runners ran",
		"l'état, c'est moi — les étudiants étudient",
		"...---...# @ #. -x-",
		"ǅemal İstanbul ΣΊΣΥΦΟΣ ﬁne",
		"a b c　d",
		"\xff\xfe invalid utf-8 \xc3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, lang := range []Lang{English, French, None} {
			for _, keep := range []bool{false, true} {
				a := Analyzer{Lang: lang, KeepStopwords: keep}
				ks := a.Keywords(s)
				seen := make(map[string]bool, len(ks))
				for _, k := range ks {
					switch {
					case k == "":
						t.Fatalf("%+v: empty keyword from %q", a, s)
					case strings.IndexFunc(k, unicode.IsSpace) >= 0:
						t.Fatalf("%+v: keyword %q from %q holds a space", a, k, s)
					case seen[k]:
						t.Fatalf("%+v: keyword %q twice from %q", a, k, s)
					}
					seen[k] = true
				}
			}
		}
	})
}
