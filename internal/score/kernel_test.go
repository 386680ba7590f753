package score

import (
	"slices"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

// generatorInstances builds one small instance per dataset generator: the
// three graph shapes (retweet trees under hub users, movie comments,
// business reviews) the canonical order has to hold on.
func generatorInstances(t *testing.T) map[string]*graph.Instance {
	t.Helper()
	tw := datagen.DefaultTwitterOptions()
	tw.Users, tw.Tweets, tw.Seed = 150, 600, 5
	vk := datagen.DefaultVodkasterOptions()
	vk.Users, vk.Movies, vk.Seed = 120, 40, 6
	yp := datagen.DefaultYelpOptions()
	yp.Users, yp.Businesses, yp.Seed = 120, 40, 7
	twSpec, _ := datagen.Twitter(tw)
	specs := map[string]graph.Spec{"twitter": twSpec, "vodkaster": datagen.Vodkaster(vk), "yelp": datagen.Yelp(yp)}
	out := make(map[string]*graph.Instance, len(specs))
	for name, spec := range specs {
		in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = in
	}
	return out
}

func pinned(it *Iterator, k kernelPath) *Iterator {
	it.kernel = k
	return it
}

// TestKernelPathsStateIdentical: an iterator pinned to the sparse kernel
// path, one pinned to the dense path and one left to choose are
// state-identical — AllProx, Border, BorderProx, the discovered list, N,
// the tail bounds, the two-step ratio and Done, bit for bit — at every
// depth until the graph is exhausted or proximity underflows, with
// ascending borders and discovery lists throughout. A checkpoint recorded
// on one path resumes bit-identically on the other, cut at every depth —
// so on both sides of the kernel switch and of the first snapshot-form
// depth: the round-visible state at every depth, Border and BorderProx
// from the cut onward.
func TestKernelPathsStateIdentical(t *testing.T) {
	const maxDepth = 60
	snapshots := 0 // explorations with a checkpoint cut mid-saturation
	for name, in := range generatorInstances(t) {
		users := in.Users()
		crossings := 0 // explorations that opened sparse and turned dense
		for _, params := range []Params{DefaultParams(), {Gamma: 4, Eta: 0.5}} {
			for _, u := range []graph.NID{users[0], users[len(users)/2], users[len(users)-1]} {
				sp := pinned(NewRecordingIterator(in, params, u), kernelSparse)
				de := pinned(NewRecordingIterator(in, params, u), kernelDense)
				auto := NewIterator(in, params, u)
				var snaps []iterState
				var spCPs, deCPs []*ProxCheckpoint
				switched := -1 // first depth the matrix would step densely from
				for d := 0; !sp.Done() && d < maxDepth; d++ {
					if switched < 0 && in.Matrix().Saturated(auto.Border()) {
						switched = d
					}
					want := captureState(sp, sp.Step(), true)
					snaps = append(snaps, want)
					for i := 1; i < len(want.active); i++ {
						if want.active[i-1] >= want.active[i] {
							t.Fatalf("%s u=%d d=%d: border not ascending", name, u, d+1)
						}
					}
					for i := 1; i < len(want.disc); i++ {
						if want.disc[i-1] >= want.disc[i] {
							t.Fatalf("%s u=%d d=%d: discoveries not ascending", name, u, d+1)
						}
					}
					if got := captureState(de, de.Step(), true); !got.hasBorder || !statesEqual(got, want) {
						t.Fatalf("%s u=%d d=%d: dense path diverges from sparse path", name, u, d+1)
					}
					if got := captureState(auto, auto.Step(), true); !got.hasBorder || !statesEqual(got, want) {
						t.Fatalf("%s u=%d d=%d: chosen path diverges from sparse path", name, u, d+1)
					}
					spCPs = append(spCPs, sp.Checkpoint())
					deCPs = append(deCPs, de.Checkpoint())
				}
				if de.Done() != sp.Done() || auto.Done() != sp.Done() {
					t.Fatalf("%s u=%d: Done disagrees across paths", name, u)
				}
				if switched > 0 {
					crossings++
				}
				// A checkpoint at every depth, each resumed on the other path.
				if first := slices.IndexFunc(sp.layers, func(l proxLayer) bool { return l.all != nil }); first >= 0 && first+2 < len(snaps) {
					snapshots++
				}
				for m := range snaps {
					for _, c := range []struct {
						cp   *ProxCheckpoint
						path kernelPath
					}{{spCPs[m], kernelDense}, {deCPs[m], kernelSparse}, {spCPs[m], kernelAuto}} {
						it, err := ResumeIterator(in, c.cp)
						if err != nil {
							t.Fatal(err)
						}
						pinned(it, c.path)
						for d := range snaps {
							// The checkpoint covers depth m+1; leave its hand-off to
							// the propagating Step on the auto path.
							got := captureState(it, it.Step(), d != m || c.path != kernelAuto)
							if !statesEqual(got, snaps[d]) {
								t.Fatalf("%s u=%d: checkpoint at depth %d resumed on path %d differs at depth %d", name, u, m+1, c.path, d+1)
							}
							if d > m && !got.hasBorder {
								t.Fatalf("%s u=%d: checkpoint at depth %d: no border past the hand-off, at depth %d", name, u, m+1, d+1)
							}
						}
					}
				}
			}
		}
		if crossings == 0 {
			t.Fatalf("%s: no exploration crosses the kernel switch", name)
		}
	}
	// (Only the twitter shape reaches two thirds of its nodes in one step.)
	if snapshots == 0 {
		t.Fatal("no checkpoint is cut mid-saturation")
	}
}

// TestDenseStepFromUncoveredSeeker: at serving scale a few users have no
// incoming edge, so no matrix entry points to them and their row is not
// on the dense kernel's live list. The first step from such a seeker is
// the one border PushDense must splice a row into; pinned dense, it must
// leave the state of the sparse step bit for bit.
func TestDenseStepFromUncoveredSeeker(t *testing.T) {
	spec, _ := datagen.Twitter(datagen.DefaultTwitterOptions())
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	_, _, col, _ := in.Matrix().Raw()
	covered := make([]bool, in.NumNodes())
	for _, c := range col {
		covered[c] = true
	}
	seekers := 0
	for _, u := range in.Users() {
		if covered[u] {
			continue
		}
		seekers++
		sp := pinned(NewIterator(in, DefaultParams(), u), kernelSparse)
		de := pinned(NewIterator(in, DefaultParams(), u), kernelDense)
		want := captureState(sp, sp.Step(), true)
		if len(want.active) == 0 {
			t.Fatalf("u=%d: the first step reaches no node", u)
		}
		if got := captureState(de, de.Step(), true); !statesEqual(got, want) {
			t.Fatalf("u=%d: dense step from a seeker nothing points to diverges from the sparse step", u)
		}
	}
	if seekers == 0 {
		t.Fatal("no user without an incoming edge")
	}
}

// TestResetReusesVectorsCleanly: an iterator Reset after a deep
// exploration walks a second seeker's trajectory bit-identically to a
// fresh iterator, keeps its vectors on the same instance and replaces
// them on one of another size.
func TestResetReusesVectorsCleanly(t *testing.T) {
	ins := generatorInstances(t)
	in, other := ins["twitter"], ins["yelp"]
	if in.NumNodes() == other.NumNodes() {
		t.Fatal("fixture instances must differ in size")
	}
	params := DefaultParams()
	users := in.Users()
	it := NewRecordingIterator(in, params, users[0])
	for d := 0; d < 12 && !it.Done(); d++ {
		it.Step()
	}
	vec := &it.AllProx()[0]
	it.Reset(in, params, users[1], false)
	if &it.AllProx()[0] != vec {
		t.Fatal("Reset on the same instance reallocated the vectors")
	}
	fresh := NewIterator(in, params, users[1])
	if !statesEqual(captureState(it, nil, true), captureState(fresh, nil, true)) {
		t.Fatal("reset iterator's initial state differs from a fresh one")
	}
	for d := 0; d < 12 && !fresh.Done(); d++ {
		if !statesEqual(captureState(it, it.Step(), true), captureState(fresh, fresh.Step(), true)) {
			t.Fatalf("reused iterator diverges from a fresh one at depth %d", d+1)
		}
	}
	if it.Checkpoint() != nil {
		t.Fatal("Reset to non-recording still records")
	}
	it.Reset(other, params, other.Users()[0], true)
	if len(it.AllProx()) != other.NumNodes() || &it.AllProx()[0] == vec {
		t.Fatal("Reset on an instance of another size kept the old vectors")
	}
	fresh = NewRecordingIterator(other, params, other.Users()[0])
	for d := 0; d < 6 && !fresh.Done(); d++ {
		if !statesEqual(captureState(it, it.Step(), true), captureState(fresh, fresh.Step(), true)) {
			t.Fatalf("resized iterator diverges from a fresh one at depth %d", d+1)
		}
	}
}

// BenchmarkIteratorSteps steps a pooled iterator 25 rounds deep (a cold
// search's depth) over the serving-scale graph the end-to-end benchmark
// runs on; each path pinned, and the matrix's own choice.
func BenchmarkIteratorSteps(b *testing.B) {
	spec, _ := datagen.Twitter(datagen.DefaultTwitterOptions())
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		b.Fatal(err)
	}
	users := in.Users()
	for _, bc := range []struct {
		name string
		path kernelPath
	}{{"auto", kernelAuto}, {"sparse", kernelSparse}, {"dense", kernelDense}} {
		b.Run(bc.name, func(b *testing.B) {
			it := new(Iterator)
			for i := 0; i < b.N; i++ {
				it.Reset(in, DefaultParams(), users[i%len(users)], false)
				it.kernel = bc.path
				for !it.Done() && it.N() < 25 {
					it.Step()
				}
			}
		})
	}
}
