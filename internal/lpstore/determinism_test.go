package lpstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/livepoint"
	"livepoints/internal/mrrl"
	"livepoints/internal/prog"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
	"livepoints/internal/warm"
)

// Library creation is deterministic: the same recipe gives the same file,
// byte for byte, however creation is scheduled. These tests pin that. Each
// recipe maps to the SHA-256 of the library it builds, recorded once from
// serial creation; a change to how creation runs (concurrent compression,
// a pipelined capture, a different sort) must leave every hash as it is. A
// change that means to alter library bytes is a format change and records
// new hashes on purpose.

// creationGolden maps a creation recipe — kernel/capture/machine, built at
// creationScale with a stride of creationStride units and written through
// WriteShuffled with creationShardPoints points a shard — to the SHA-256 of
// the library file.
var creationGolden = map[string]string{
	"syn.ammp/full/8way":       "20d2d1412c419e349b6c586aa007e6cdae52ba77eab8cfd97aac5b0bff926be6",
	"syn.art/full/8way":        "80bbc6757c72b93b3845bc2d0fe0ef655f6c8206d0ff32a25290e0dc3ff6134b",
	"syn.bzip2/full/8way":      "3d4ba117958ea0b85570f40c12f443f7c539be9030c07362c70d48cea0850db8",
	"syn.crafty/full/8way":     "b7dde205e29fa5acbd3cfc4668b191bdaa1b237596fb651f9b0bdedd4ff7709e",
	"syn.eon/full/8way":        "38e5aa5389b703b665161d6140034cc4dfafc0e6fef3b72aea6028a4137ccd7d",
	"syn.equake/full/8way":     "c426eadc69d8f878a22016e6c6118aa55b4937abd3baf44f8830fa06a857d3d2",
	"syn.gcc/aw-mrrl/8way":     "299c853d33619ef289d4ddc9c06744ff3e647621dd386d51676209b17a14242e",
	"syn.gcc/full/16way":       "58f32e418cc9510779ec36e5655ffd94441fdd1f97301ff65b243b7cfb9dddd3",
	"syn.gcc/full/8way":        "66a5f9453786448735bc99ec834eceefe4f8e0adf9a7af1bd878e3542a266fc6",
	"syn.gcc/restricted/8way":  "9786c38d98e9f0c0b78bb6d55e6d92c984e74cd684667c500305161e163e0849",
	"syn.gzip/aw-mrrl/8way":    "50c16d1b1d83707212ac467b326b0feec1041bbcabf983d6f0927879384bbbde",
	"syn.gzip/full/16way":      "ac2a89074ba3662d9bf6de0725fe7fc5ddc645977f6f25faa0de924ec3a83b43",
	"syn.gzip/full/8way":       "dd73a2e189b8a7d8208e1592dd930d8282c857365f0e3941bc74e0e42d5735f3",
	"syn.gzip/restricted/8way": "a9122cf9332435af6a6682ee42ebc2da42452ecc62eecafec72f2b007700da4d",
	"syn.mcf/aw-mrrl/8way":     "13971b90ff9a9b5afcfe62536586386696888bdf3d251dd4b55594d4780ef248",
	"syn.mcf/full/16way":       "b2a266222ad22a8df021717a74d95d357759a4156f4d92eab333ef015af7c096",
	"syn.mcf/full/8way":        "70c9b4a457ccf2f98a0f94bb7e247318eeceea374a5a80ebf771a9fd90dd1281",
	"syn.mcf/restricted/8way":  "3fbe073b02e631799cd11f7d8a5dcd36e0229189d6eae8e8d1f5118c80213813",
	"syn.mesa/full/8way":       "7a8a8da28e2d56c2a8350003f589fa595820471278b6f5e5951e88f2cc88226a",
	"syn.mgrid/full/8way":      "c5aede819f07df7b7d5a3f31ec3debaa4295daad1dc6cc30694a4d231e63b617",
	"syn.parser/full/8way":     "4a45dd1a6a95e1187a21dc12590d0b0586436456aac1da7f74eab2a73994a071",
	"syn.perlbmk/full/8way":    "a929e26a51ebb3d14c9546aba00d6e2f831402087ef9f1d861d980320d8f2b8f",
	"syn.swim/full/8way":       "a508b7ba4ee7d2364f46b6bf32e730dae2aa31755a2f2db08258489fdb5a0b6b",
	"syn.twolf/full/8way":      "015eb3670ac7bc3059ea52dea24250bbf9312aa4c1dbc71558c7a3d88d7421ab",
	"syn.vpr/full/8way":        "9a1487040ca0c4a08b33fa5d5294de440af33a1ad68ad00789b3768a14b360cd",
}

// writeGolden maps a synthetic Write — blob count and ShardPoints over
// goldenBlobs — to the SHA-256 of the library file.
var writeGolden = map[string]string{
	"n=0/per=1":     "9d56890a103fa4188864080b5cd22f64d02b4369347d52d1c0a5e0330da1bfba",
	"n=0/per=7":     "9d56890a103fa4188864080b5cd22f64d02b4369347d52d1c0a5e0330da1bfba",
	"n=0/per=64":    "9d56890a103fa4188864080b5cd22f64d02b4369347d52d1c0a5e0330da1bfba",
	"n=1/per=1":     "345fdebe8534e51bda84b9cb0ec3805e650fd91c98af702a1677408eca8ad380",
	"n=1/per=7":     "345fdebe8534e51bda84b9cb0ec3805e650fd91c98af702a1677408eca8ad380",
	"n=1/per=64":    "345fdebe8534e51bda84b9cb0ec3805e650fd91c98af702a1677408eca8ad380",
	"n=63/per=1":    "12f0962a0012efc50c69d14d22ad1e76208b8ba55e7c2944cb0c300098d5631e",
	"n=63/per=7":    "9e051c7ec1dd1c720bf1a1bba0ae48cf20a0df1e690d962a76cafb87dfcd5102",
	"n=63/per=64":   "900a9a123c7335e7c0c2ceea6afa26214f3904226ceba51aa5cab4ec42ab1ced",
	"n=64/per=1":    "2953fa862071baac66f46a8e28f360317ee4f2f1b9e671708adbed7259011f09",
	"n=64/per=7":    "ea6e7e87bba1fe8753888dd3ffe8677e1427f7f272c898538ac5d17ab97186ce",
	"n=64/per=64":   "2ad76d0f7890f7194c84f70dc6692a0f9de38b19bc4ccc39229233d9539f7749",
	"n=65/per=1":    "b736f31e26ebccc7408957b355125fe4d1749ea7e98049c68b127bbeb807eea4",
	"n=65/per=7":    "2e1630464561c84426bf92c3edb8198adc8b4817ae50f93a36005822fe6c7a2b",
	"n=65/per=64":   "3e1593e5d8920e19575d4f73da99b10d0ba61399de3159f0f00c6e773eb3633f",
	"n=1000/per=1":  "c391673f2d6018f08a8ec7181c076fc68e589db8165a0323167ad6524b1f19f4",
	"n=1000/per=7":  "3e953458c7a0ea5f240833d4b895451645cb92d2e5fea1d926e91dc034243cdf",
	"n=1000/per=64": "174047dfdd40c938b890b7afcde16286bb82fd9c0b53500b1eef800466014bc9",
}

const (
	creationScale       = 0.01
	creationStride      = 40
	creationShardPoints = 3
	creationShuffleSeed = 0x11E9
)

type creationRecipe struct {
	bench, capture, machine string
}

func (r creationRecipe) String() string { return r.bench + "/" + r.capture + "/" + r.machine }

func creationRecipes() []creationRecipe {
	var rs []creationRecipe
	for _, spec := range prog.Suite() {
		rs = append(rs, creationRecipe{spec.Name, "full", "8way"})
	}
	for _, b := range []string{"syn.gzip", "syn.mcf", "syn.gcc"} {
		rs = append(rs,
			creationRecipe{b, "restricted", "8way"},
			creationRecipe{b, "full", "16way"},
			creationRecipe{b, "aw-mrrl", "8way"})
	}
	return rs
}

// buildRecipe creates, encodes and writes one recipe's library at path.
func buildRecipe(r creationRecipe, path string) error {
	spec, err := prog.ByName(r.bench)
	if err != nil {
		return err
	}
	cfg, err := uarch.ConfigByName(r.machine)
	if err != nil {
		return err
	}
	p := prog.Generate(spec, creationScale)
	benchLen, err := warm.BenchLength(p, p.TargetLen*4+1_000_000)
	if err != nil {
		return err
	}
	design, err := sampling.NewSystematic(benchLen, uarch.MeasureLen, uint64(cfg.DetailedWarm), creationStride, 1)
	if err != nil {
		return err
	}
	opts := livepoint.CreateOpts{MaxHier: cfg.Hier, Preds: []bpred.Config{cfg.BP}}
	switch r.capture {
	case "restricted":
		opts.Restricted = true
	case "aw-mrrl":
		// The harness's AW-MRRL checkpoints: architectural state only,
		// with the MRRL analysis's per-window functional-warming lengths.
		an, err := mrrl.Analyze(p, design, mrrl.DefaultReuseProb, mrrl.DefaultGranularity)
		if err != nil {
			return err
		}
		opts = livepoint.CreateOpts{NoMicroarch: true, FuncWarmLens: an.WarmLens}
	}
	var blobs [][]byte
	err = livepoint.Create(p, design, opts, func(lp *livepoint.LivePoint) error {
		blob, _ := livepoint.Encode(lp)
		blobs = append(blobs, blob)
		return nil
	})
	if err != nil {
		return err
	}
	meta := livepoint.Meta{Benchmark: p.Name, UnitLen: design.UnitLen, WarmLen: design.WarmLen}
	_, err = WriteShuffled(path, meta, blobs, creationShuffleSeed, WriteOpts{ShardPoints: creationShardPoints})
	return err
}

func fileSum(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares got with the recorded hashes and prints a
// ready-to-paste table line for every mismatch or missing recipe.
func checkGolden(t *testing.T, golden map[string]string, got map[string]string) {
	t.Helper()
	for k, sum := range got {
		if want, ok := golden[k]; !ok || want != sum {
			t.Errorf("%q: %q, // recorded %q", k, sum, want)
		}
	}
	if len(golden) != len(got) {
		t.Errorf("%d recorded recipes, %d built", len(golden), len(got))
	}
}

// TestCreationDeterminism builds every suite kernel (full capture, 8-way)
// and syn.gzip, syn.mcf and syn.gcc also restricted, 16-way and AW-MRRL, at
// a tiny scale, and checks each library's SHA-256 against creationGolden.
func TestCreationDeterminism(t *testing.T) {
	dir := t.TempDir()
	got := make(map[string]string)
	for i, r := range creationRecipes() {
		path := filepath.Join(dir, fmt.Sprintf("r%d.lplib", i))
		if err := buildRecipe(r, path); err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		got[r.String()] = fileSum(t, path)
	}
	checkGolden(t, creationGolden, got)
}

// goldenBlobs is n seeded synthetic blobs of 0–599 bytes, partly
// compressible. Write does not parse blobs, so they need not be points.
func goldenBlobs(n int) [][]byte {
	rng := rand.New(rand.NewSource(0xB10B))
	blobs := make([][]byte, n)
	for i := range blobs {
		b := make([]byte, rng.Intn(600))
		for j := range b {
			if rng.Intn(3) == 0 {
				b[j] = byte(rng.Intn(256))
			} else {
				b[j] = byte(i + j/16)
			}
		}
		blobs[i] = b
	}
	return blobs
}

// TestWriteDeterminism writes goldenBlobs for blob counts around one and
// several shards, at several ShardPoints, and checks each file's SHA-256
// against writeGolden.
func TestWriteDeterminism(t *testing.T) {
	dir := t.TempDir()
	got := make(map[string]string)
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, per := range []int{1, 7, 64} {
			key := fmt.Sprintf("n=%d/per=%d", n, per)
			path := filepath.Join(dir, fmt.Sprintf("n%d-p%d.lplib", n, per))
			meta := livepoint.Meta{Benchmark: "syn.test", UnitLen: 1000, WarmLen: 2000}
			if _, err := Write(path, meta, goldenBlobs(n), WriteOpts{ShardPoints: per}); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = fileSum(t, path)
		}
	}
	checkGolden(t, writeGolden, got)
}
