package lpstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen holds the store to its contract on arbitrary file bytes: Open
// errors, or every read errors or hands back a blob the writer put in —
// never a panic, never an allocation sized by the index alone. (Which
// position a blob is read at, like the rest of the metadata, has no
// checksum; the contract is about bytes.)
func FuzzOpen(f *testing.F) {
	path := writeTestStore(f, synthBlobs(10, 200), 4, false)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	written := map[string]bool{}
	for _, b := range drain(f, st.Source()) {
		written[string(b)] = true
	}
	idxOff := int64(len(fileMagic)) + st.CompressedBytes()
	st.Close()

	f.Add(valid)
	for _, tc := range hostileIndexes {
		edited, err := os.ReadFile(withIndex(f, path, tc.edit))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(edited)
	}
	// faultinject.CorruptFile's move — one flipped byte — over the whole
	// index and trailer, and sparsely over the shard streams.
	for off := len(fileMagic); off < len(valid); off++ {
		if int64(off) < idxOff && off%64 != 0 {
			continue
		}
		flipped := bytes.Clone(valid)
		flipped[off] ^= 0xFF
		f.Add(flipped)
	}
	f.Add(gzipHeader)

	file := filepath.Join(f.TempDir(), "fuzz.lplib")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(file)
		if err != nil {
			return
		}
		defer st.Close()
		for s, sh := range st.shards {
			if sh.uncompLen > maxInflate*int64(len(data)) {
				t.Fatalf("shard %d would allocate %d bytes for a %d-byte file", s, sh.uncompLen, len(data))
			}
		}
		check := func(how string, blobs [][]byte) {
			for i, b := range blobs {
				if !written[string(b)] {
					t.Fatalf("%s: blob %d (%d bytes) is not one the writer stored", how, i, len(b))
				}
			}
		}
		if blobs, err := st.Blobs(0, st.Count()); err == nil {
			check("Blobs", blobs)
		}
		for i := 0; i < st.Count(); i++ {
			if b, err := st.PointBlob(i); err == nil {
				check("PointBlob", [][]byte{b})
			}
		}
		src := st.Source()
		defer src.Close()
		for {
			b, err := src.NextBlob()
			if err != nil {
				break
			}
			check("Source", [][]byte{b})
		}
	})
}
