//go:build !race

package lpcluster

// raceEnabled reports whether the race detector is built into the test
// binary. Under it a sync.Pool drops puts at random, so net/http's and
// the in-process server's pooled copy buffers miss on requests a lease
// makes, and what a lease allocates no longer measures the lease.
const raceEnabled = false
