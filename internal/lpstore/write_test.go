package lpstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"livepoints/internal/livepoint"
)

// settleGoroutines waits up to five seconds for the goroutine count to fall
// back to g0, failing the test if it does not: whatever the code under test
// started must have exited when it returned.
func settleGoroutines(t *testing.T, g0 int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, %d before", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWriteSameBytesAnyGOMAXPROCS writes the same blobs with one and with
// four compressing goroutines: the files must be byte-equal, and no
// goroutine may outlive either Write.
func TestWriteSameBytesAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	meta := livepoint.Meta{Benchmark: "syn.test", UnitLen: 1000, WarmLen: 2000}
	for _, n := range []int{0, 1, 5, 300} {
		blobs := goldenBlobs(n)
		var files [][]byte
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			g0 := runtime.NumGoroutine()
			path := filepath.Join(dir, "lib.lplib")
			if _, err := Write(path, meta, blobs, WriteOpts{ShardPoints: 7}); err != nil {
				t.Fatal(err)
			}
			settleGoroutines(t, g0)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, b)
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%d blobs: GOMAXPROCS 1 and 4 wrote different files (%d and %d bytes)", n, len(files[0]), len(files[1]))
		}
	}
}

// TestCompressShardsStopsAtWriteError fails the write of one shard: that
// error is returned, no later shard is written, and every compressing
// goroutine has exited.
func TestCompressShardsStopsAtWriteError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	blobs := goldenBlobs(200)
	boom := errors.New("disk full")
	for _, failAt := range []int{0, 3, 199} {
		g0 := runtime.NumGoroutine()
		written := 0
		err := compressShards(blobs, 1, func(shard int, comp []byte) error {
			if shard != written {
				t.Fatalf("shard %d written after %d shards", shard, written)
			}
			written++
			if shard == failAt {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("fail at %d: got %v, want the write error", failAt, err)
		}
		if written != failAt+1 {
			t.Fatalf("fail at %d: %d shards written", failAt, written)
		}
		settleGoroutines(t, g0)
	}
}

// dirEntries lists the names in dir.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range es {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteReplacesAtomically: Write builds the new library beside path and
// renames it over path, so a successful Write leaves only the library, an
// existing library is replaced whole, and a Write that cannot replace its
// path returns an error and leaves no temporary file.
func TestWriteReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.lplib")
	meta := livepoint.Meta{Benchmark: "syn.test", UnitLen: 1000, WarmLen: 2000}
	for _, n := range []int{100, 3} { // the second Write replaces a larger library
		if _, err := Write(path, meta, goldenBlobs(n), WriteOpts{ShardPoints: 7}); err != nil {
			t.Fatal(err)
		}
		if names := dirEntries(t, dir); len(names) != 1 || names[0] != "lib.lplib" {
			t.Fatalf("after Write the directory holds %q, want only lib.lplib", names)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Meta().Count; got != n {
			t.Fatalf("replaced library has %d points, want %d", got, n)
		}
		st.Close()
	}
	// The library has os.Create's mode (0666 less the umask), not
	// CreateTemp's 0600.
	if got, want := modeOf(t, path), createMode(t, dir); got != want {
		t.Fatalf("library mode %v, want os.Create's %v", got, want)
	}

	// A path that is a non-empty directory cannot be replaced by a file.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(blocked, meta, goldenBlobs(10), WriteOpts{}); err == nil {
		t.Fatal("Write over a non-empty directory succeeded")
	}
	names := dirEntries(t, dir)
	if len(names) != 2 {
		t.Fatalf("after a failed Write the directory holds %q, want lib.lplib and blocked only", names)
	}
}

func modeOf(t *testing.T, path string) os.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode().Perm()
}

// createMode is the mode os.Create gives a new file in dir.
func createMode(t *testing.T, dir string) os.FileMode {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	defer os.Remove(f.Name())
	return modeOf(t, f.Name())
}
