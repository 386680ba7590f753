package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

// TestSnapshotDigestAtServingScale pins, byte for byte, the files `s3gen
// -dataset D -scale 1 -seed 1 -snap D.snap` and `… -shards 4 -snap D.set`
// write for the three datasets: the snapshot, the manifest and the four
// shard files. TestFormatGolden's instances have 60–80 users, these have
// thousands, so a builder that reorders the dictionary, a relation or a
// matrix sum only at scale shows here. They change when the format or the
// generators do — not when the builders are rewritten.
func TestSnapshotDigestAtServingScale(t *testing.T) {
	for _, c := range []struct {
		dataset            string
		snapshot, manifest string
		shards             [4]string
	}{
		{"twitter",
			"5ddb54d0080207a16060c4f2e1ecac8c16d4593c059dd2d597e3b1c8526d1f44",
			"20a2d99a8f54bb362ec694df1fd3481ebadd80bbef47079d7c4b3d62b2ff3080",
			[4]string{
				"c07be84f1d9b5b5dc75cb8516bc65027a679340ca213de2d8c708d0fda146cec",
				"0acaf07b68ce5ca19b4f9e3b3839f53856902bed93d6165c14270d504d908bde",
				"3fc580927e3d970330f9964e331e175636b992f93a8f70a72335540b7a0c29e0",
				"3b2e2e895bdaee77e6f009d6b949e911f8eb6682402f531c84d909b144c45dc2",
			}},
		{"vodkaster",
			"87bd27daa71c166cbdca8a9c0d4dc9fcde6f79f24adb3eb7953a1c81eddd9333",
			"b9f0bf07cdb57a16e41e93d8d8c2e704c5eee406852eadde1ae464b64ce12e79",
			[4]string{
				"b9e4969e63e28d01885b5062519ed06b1025d0acdb4da38ea847943bb6d22cee",
				"80e25bfd7d50c3b964a580259e341330e82e6d0c714ccb901ea25cf017ed76b0",
				"1088c946e01d6100036423f3559648e2f87ec5f4c76d35b568e3eadc5d4ca604",
				"aac917a954a75138c8e82fe7886a5abf88bbd2d315030806f2a2ac5e2e00ec59",
			}},
		{"yelp",
			"ed1f61e4f91db9b6306ecc4a7348e3c0dc3cb7da91da7d2ef1adcb9f429d8192",
			"78b6f268b853e20744f85e243a210a427eaa990923cc1a0f21b6fb17a4f84624",
			[4]string{
				"7842c5a1f86c88680f6f4cad29ad5bbe0a737b1f81b31a21e4d9efbf920012a8",
				"4fda097d78dba3d981fb2a3aef3192cbb0c7a3c3bfb18cc9b6cdc6693c160da0",
				"f7cb175ccd8a2684ecbd881216d8b7a3ce347a27c1aa7f70545be14692227d94",
				"3ac611294a6c7649a9eaf7db1f513cdca3a07f70f4ebbe5db635eda430b3f0dc",
			}},
	} {
		var spec graph.Spec
		switch c.dataset {
		case "twitter":
			o := datagen.DefaultTwitterOptions()
			o.Seed = 1
			spec, _ = datagen.Twitter(o)
		case "vodkaster":
			o := datagen.DefaultVodkasterOptions()
			o.Seed = 1
			spec = datagen.Vodkaster(o)
		case "yelp":
			o := datagen.DefaultYelpOptions()
			o.Seed = 1
			spec = datagen.Yelp(o)
		}
		in, ix := build(t, spec, text.Analyzer{Lang: text.None})
		check := func(what string, data []byte, want string) {
			t.Helper()
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s %s: %d bytes, sha256 %s, want %s", c.dataset, what, len(data), got, want)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, in, ix); err != nil {
			t.Fatal(err)
		}
		check("snapshot", buf.Bytes(), c.snapshot)

		parts, err := graph.PartitionComponents(in, len(c.shards))
		if err != nil {
			t.Fatal(err)
		}
		manifestPath := filepath.Join(t.TempDir(), c.dataset+".set")
		paths, err := WriteShardSetFiles(manifestPath, in, ix, parts)
		if err != nil {
			t.Fatal(err)
		}
		for i, path := range append([]string{manifestPath}, paths...) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				check("manifest", data, c.manifest)
			} else {
				check(filepath.Base(path), data, c.shards[i-1])
			}
		}
	}
}
