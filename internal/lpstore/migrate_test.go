package lpstore

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"path/filepath"
	"testing"

	"livepoints/internal/livepoint"
	"livepoints/internal/uarch"
)

// goldenV1 is a library written by the last lpgen that could write v1
// (`lpgen -bench syn.gzip -scale 0.01 -points 8 -format v1`). It is the
// importer's fixed input: the constants below were recorded from that
// build's v1 reader and from its RunFile on the v1 file itself.
const (
	goldenV1         = "testdata/v1-syn.gzip.lplib"
	goldenV1Points   = 7
	goldenV1BlobsSHA = "afbabc2cb7f3c24769a12fcf0e9a8edcdff958a9ee260c998ff673233b43a058"
	goldenV1MeanBits = 0x3fe674718488ec66 // 0.7017142857142857
	goldenV1VarBits  = 0x3fc17f9f6e5f6d9f // 0.13670723809523808
)

// TestMigrateGoldenV1 pins the v1 importer: migrating the golden library
// must reproduce its metadata, its blobs in read order, and — through the
// v2 runner path — the estimate the v1 runner path gave on the original.
func TestMigrateGoldenV1(t *testing.T) {
	dst := filepath.Join(t.TempDir(), "golden.v2.lplib")
	info, err := Migrate(goldenV1, dst, WriteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != goldenV1Points || info.Shards != 1 {
		t.Fatalf("migrate info %+v, want %d points in 1 shard", info, goldenV1Points)
	}

	st, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := livepoint.Meta{Benchmark: "syn.gzip", Count: goldenV1Points, UnitLen: 1000, WarmLen: 2000, Shuffled: true}
	if st.Meta() != want {
		t.Fatalf("migrated meta %+v, want %+v", st.Meta(), want)
	}
	h := sha256.New()
	for _, b := range drain(t, st.Source()) {
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenV1BlobsSHA {
		t.Fatalf("blobs in read order hash to %s, want %s", got, goldenV1BlobsSHA)
	}

	res, err := livepoint.RunFile(dst, livepoint.RunOpts{Cfg: uarch.Config8Way()})
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := math.Float64bits(res.Est.Mean()), math.Float64bits(res.Est.Var())
	if res.Est.N() != goldenV1Points || mean != goldenV1MeanBits || variance != goldenV1VarBits {
		t.Fatalf("RunFile on the migrated store: n=%d mean=%#x var=%#x, want n=%d mean=%#x var=%#x",
			res.Est.N(), mean, variance, goldenV1Points, uint64(goldenV1MeanBits), uint64(goldenV1VarBits))
	}
}
