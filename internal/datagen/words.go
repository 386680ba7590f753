package datagen

import (
	"math/rand"
	"strings"
)

// Pseudo-word machinery: the generators need vocabularies whose exact
// strings do not matter but whose *distribution* does (Zipfian keyword
// frequencies drive the rare/common workload split of §5.1). Words are
// deterministic functions of their index so that the same seed always
// yields the same instance.

var enSyllables = []string{
	"ka", "re", "mi", "to", "san", "ber", "lo", "din", "va", "nor",
	"pel", "tu", "gra", "shi", "mon", "fa", "ler", "qui", "bas", "tem",
}

var frSyllables = []string{
	"bon", "lu", "mière", "chan", "vé", "ri", "tou", "jou", "ciné",
	"pas", "né", "ge", "mar", "bre", "veu", "soi", "gran", "pe", "tit",
}

// Word returns the i-th pseudo-word of the English-ish vocabulary.
func Word(i int) string { return makeWord(enSyllables, i) }

// FrenchWord returns the i-th pseudo-word of the French-ish vocabulary.
func FrenchWord(i int) string { return makeWord(frSyllables, i) }

func makeWord(syl []string, i int) string {
	n := len(syl)
	var sb strings.Builder
	// 2-4 syllables, chosen by mixed-radix decomposition of i so all
	// indices give distinct words.
	i++
	for i > 0 {
		sb.WriteString(syl[i%n])
		i /= n
	}
	return sb.String()
}

// Zipf samples vocabulary indices with a Zipfian frequency distribution —
// the shape of natural-language keyword frequencies that the rare/common
// workload split relies on.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a sampler over [0, n) with exponent s (s > 1; 1.4 is a
// reasonable text-like choice).
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Draw returns the next index; small indices are exponentially more
// frequent.
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }

// PowerLawDegrees draws n out-degrees with a power-law tail bounded by
// maxDeg, scaled so the mean lands near avgDeg. Social networks'
// degree distributions are heavy-tailed; the §5.1 Twitter instance
// averages 317 social edges per connected user at full scale.
func PowerLawDegrees(rng *rand.Rand, n int, avgDeg float64, maxDeg int) []int {
	if n == 0 {
		return nil
	}
	raw := make([]float64, n)
	var sum float64
	for i := range raw {
		// Pareto with α≈2 via inverse transform.
		u := rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		raw[i] = 1 / (u * u)
		if raw[i] > float64(maxDeg) {
			raw[i] = float64(maxDeg)
		}
		sum += raw[i]
	}
	scale := avgDeg * float64(n) / sum
	out := make([]int, n)
	for i := range raw {
		d := int(float64(raw[i]*scale) + 0.5)
		if d > maxDeg {
			d = maxDeg
		}
		if d > n-1 {
			d = n - 1
		}
		out[i] = d
	}
	return out
}

// Communities assigns each of n members to one of roughly k communities
// with heavy-tailed sizes, returning the community id per member. Social
// edges inside a community model the paper's keyword-similarity links.
func Communities(rng *rand.Rand, n, k int) []int {
	if k < 1 {
		k = 1
	}
	z := NewZipf(rng, 1.3, k)
	out := make([]int, n)
	for i := range out {
		out[i] = z.Draw()
	}
	return out
}
