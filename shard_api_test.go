package s3_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"s3"
	"s3/internal/datagen"
)

// buildTestInstance goes through the public facade the way the CLIs do.
func buildTestInstance(t testing.TB, users, tweets int, seed int64) *s3.Instance {
	t.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = users, tweets, seed
	spec, _ := datagen.Twitter(o)
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	inst, err := s3.BuildFromSpec(&buf, s3.Raw)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// sampleQueries returns a few (seeker, keyword) pairs that produce
// results.
func sampleQueries(t testing.TB, inst *s3.Instance, max int) [][2]string {
	t.Helper()
	var out [][2]string
	for u := 0; u < 80 && len(out) < max; u++ {
		seeker := fmt.Sprintf("tw:u%d", u)
		if !inst.HasUser(seeker) {
			continue
		}
		for _, kw := range []string{"#h1", "#h2", "#h3", "#h5", "#h8"} {
			if rs, err := inst.Search(seeker, []string{kw}, s3.WithK(5)); err == nil && len(rs) > 0 {
				out = append(out, [2]string{seeker, kw})
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no usable queries on test instance")
	}
	return out
}

// sameResults compares result lists bit for bit.
func sameResults(a, b []s3.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].URI != b[i].URI || a[i].Document != b[i].Document ||
			math.Float64bits(a[i].Lower) != math.Float64bits(b[i].Lower) ||
			math.Float64bits(a[i].Upper) != math.Float64bits(b[i].Upper) {
			return false
		}
	}
	return true
}

// TestShardByMatchesInstance checks the in-memory sharding facade: for
// several shard counts the sharded answers are byte-identical to the
// plain instance's, and the shard layout accounting adds up.
func TestShardByMatchesInstance(t *testing.T) {
	inst := buildTestInstance(t, 60, 240, 3)
	queries := sampleQueries(t, inst, 5)

	for _, n := range []int{1, 2, 4, 7} {
		si, err := inst.ShardBy(n)
		if err != nil {
			t.Fatalf("ShardBy(%d): %v", n, err)
		}
		if si.NumShards() != n {
			t.Fatalf("ShardBy(%d) produced %d shards", n, si.NumShards())
		}
		if si.Stats() != inst.Stats() {
			t.Errorf("n=%d: sharded stats diverge", n)
		}
		docs, comps := 0, 0
		for _, sh := range si.Shards() {
			docs += sh.Documents
			comps += sh.Components
		}
		if docs != inst.Stats().Documents || comps != inst.Stats().Components {
			t.Errorf("n=%d: shards hold %d docs / %d comps, instance %d / %d",
				n, docs, comps, inst.Stats().Documents, inst.Stats().Components)
		}
		for _, q := range queries {
			want, wantInfo, err1 := inst.SearchInfoed(q[0], []string{q[1]}, s3.WithK(5))
			got, gotInfo, err2 := si.SearchInfoed(q[0], []string{q[1]}, s3.WithK(5))
			if err1 != nil || err2 != nil {
				t.Fatalf("n=%d %s/%s: %v / %v", n, q[0], q[1], err1, err2)
			}
			if !sameResults(want, got) {
				t.Errorf("n=%d %s/%s: sharded answer diverges\nwant %+v\ngot  %+v", n, q[0], q[1], want, got)
			}
			if wantInfo.Exact != gotInfo.Exact || wantInfo.Iterations != gotInfo.Iterations {
				t.Errorf("n=%d %s/%s: info diverges: %+v vs %+v", n, q[0], q[1], wantInfo, gotInfo)
			}
		}
		if err := func() error {
			_, err := si.Search("no-such-user", []string{"#h1"})
			return err
		}(); err == nil {
			t.Errorf("n=%d: unknown seeker accepted", n)
		}
	}

	// Per-shard search counters: after the queries above, every fanned-out
	// search is accounted for somewhere.
	si, err := inst.ShardBy(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := si.Search(q[0], []string{q[1]}, s3.WithK(5)); err != nil {
			t.Fatal(err)
		}
	}
	total := uint64(0)
	for _, sh := range si.Shards() {
		total += sh.Searches
	}
	if total == 0 {
		t.Error("no shard counted any search")
	}
}

// TestShardStatSemantics pins what ShardStat.Searches and Rounds count on
// a ShardedInstance at every N, the one-shard set included, by the
// definition a distributed coordinator counts with: Searches is the
// searches that matched a component on the shard, Rounds the exploration
// rounds those searches ran.
func TestShardStatSemantics(t *testing.T) {
	inst := buildTestInstance(t, 60, 240, 3)
	queries := sampleQueries(t, inst, 5)
	one, err := inst.ShardBy(1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := inst.ShardBy(3)
	if err != nil {
		t.Fatal(err)
	}
	iterations := uint64(0)
	for _, q := range queries {
		_, info, err := one.SearchInfoed(q[0], []string{q[1]}, s3.WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		iterations += uint64(info.Iterations)
		if _, err := many.Search(q[0], []string{q[1]}, s3.WithK(5)); err != nil {
			t.Fatal(err)
		}
	}
	// A query no component matches fans out nowhere and carries no work.
	for _, si := range []*s3.ShardedInstance{one, many} {
		if rs, err := si.Search(queries[0][0], []string{"no-such-keyword-anywhere"}); err != nil || len(rs) != 0 {
			t.Fatalf("no-match query: %v, %v", rs, err)
		}
	}

	got := one.Shards()[0]
	if got.Searches != uint64(len(queries)) {
		t.Errorf("N=1: Searches = %d, want %d (the matching searches only)", got.Searches, len(queries))
	}
	if got.Rounds == 0 || got.Rounds > iterations {
		t.Errorf("N=1: Rounds = %d, want in (0, %d] (the matching searches' rounds)", got.Rounds, iterations)
	}
	// The one shard holds the union of the three: a search touches it iff
	// it touches some shard of the three, and its rounds count wherever
	// it does.
	var maxS, sumS, maxR, sumR uint64
	for _, sh := range many.Shards() {
		maxS, sumS = max(maxS, sh.Searches), sumS+sh.Searches
		maxR, sumR = max(maxR, sh.Rounds), sumR+sh.Rounds
	}
	if got.Searches < maxS || got.Searches > sumS {
		t.Errorf("Searches: N=1 counts %d, N=3 max %d sum %d", got.Searches, maxS, sumS)
	}
	if got.Rounds < maxR || got.Rounds > sumR {
		t.Errorf("Rounds: N=1 counts %d, N=3 max %d sum %d", got.Rounds, maxR, sumR)
	}
}

// TestCancelledContextStopsLocalSearches: WithContext reaches the local
// round loop, so a search whose context is done returns the context's
// error instead of running to the end, on a plain and a sharded instance.
func TestCancelledContextStopsLocalSearches(t *testing.T) {
	inst := buildTestInstance(t, 60, 240, 3)
	q := sampleQueries(t, inst, 1)[0]
	si, err := inst.ShardBy(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, qi := range map[string]s3.Queryable{"instance": inst, "sharded": si} {
		if _, _, err := qi.SearchInfoed(q[0], []string{q[1]}, s3.WithK(5), s3.WithContext(ctx)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: search with a cancelled context returned %v, want context.Canceled", name, err)
		}
	}
}

// TestShardByMoreShardsThanComponents covers the over-partitioned case:
// some shards own no components at all, both in memory and through the
// file round trip.
func TestShardByMoreShardsThanComponents(t *testing.T) {
	b := s3.NewBuilder(s3.Raw)
	for _, u := range []string{"u:a", "u:b"} {
		if err := b.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddSocial("u:a", "u:b", 0.9); err != nil {
		t.Fatal(err)
	}
	// Two documents → two components.
	for i, text := range []string{"alpha beta", "beta gamma"} {
		uri := fmt.Sprintf("d:%d", i)
		if err := b.AddDocumentText(uri, "post", text); err != nil {
			t.Fatal(err)
		}
		if err := b.AddPost(uri, "u:b"); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Stats().Components >= 5 {
		t.Fatalf("test premise broken: %d components", inst.Stats().Components)
	}

	si, err := inst.ShardBy(5)
	if err != nil {
		t.Fatalf("ShardBy with more shards than components: %v", err)
	}
	want, err1 := inst.Search("u:a", []string{"beta"}, s3.WithK(3))
	got, err2 := si.Search("u:a", []string{"beta"}, s3.WithK(3))
	if err1 != nil || err2 != nil {
		t.Fatalf("search: %v / %v", err1, err2)
	}
	if len(want) == 0 || !sameResults(want, got) {
		t.Fatalf("over-partitioned answers diverge: %+v vs %+v", want, got)
	}

	manifest := filepath.Join(t.TempDir(), "tiny.set")
	if _, err := inst.WriteShardSetFiles(manifest, 5); err != nil {
		t.Fatal(err)
	}
	loaded, err := s3.OpenShardSet(manifest, s3.LoadCopy)
	if err != nil {
		t.Fatalf("over-partitioned shard set did not load back: %v", err)
	}
	got, err = loaded.Search("u:a", []string{"beta"}, s3.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(want, got) {
		t.Fatal("loaded over-partitioned answers diverge")
	}
}

// TestShardSetFilesRoundTrip persists a shard set with the public facade
// and reloads it from disk.
func TestShardSetFilesRoundTrip(t *testing.T) {
	inst := buildTestInstance(t, 60, 240, 7)
	queries := sampleQueries(t, inst, 3)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "i1.set")

	paths, err := inst.WriteShardSetFiles(manifest, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("wrote %d shard files, want 4", len(paths))
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("shard file missing: %v", err)
		}
	}

	si, err := s3.OpenShardSet(manifest, s3.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	if si.NumShards() != 4 {
		t.Fatalf("loaded %d shards", si.NumShards())
	}
	for _, q := range queries {
		want, err1 := inst.Search(q[0], []string{q[1]}, s3.WithK(5))
		got, err2 := si.Search(q[0], []string{q[1]}, s3.WithK(5))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s/%s: %v / %v", q[0], q[1], err1, err2)
		}
		if !sameResults(want, got) {
			t.Errorf("%s/%s: loaded shard set diverges", q[0], q[1])
		}
	}
	// Extension and HasUser work off the shared substrate.
	if got, want := si.Extension("#h1"), inst.Extension("#h1"); len(got) != len(want) {
		t.Errorf("extension diverges: %v vs %v", got, want)
	}

	// A deleted shard file must fail the open, not degrade silently.
	if err := os.Remove(paths[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.OpenShardSet(manifest, s3.LoadCopy); err == nil {
		t.Error("shard set opened with a missing shard file")
	}
}
