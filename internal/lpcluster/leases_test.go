package lpcluster

import (
	"reflect"
	"testing"
	"time"
)

// TestLeaseTableLifecycle follows one lease's coverage through the table on
// a clock the test owns: issued, expired to the nanosecond, pending, issued
// again under a new id — after which the old id is gone (410 over HTTP) and
// the new one resolves once (a second result is 409).
func TestLeaseTableLifecycle(t *testing.T) {
	st := synthStore(t, 40, 8, true)
	table, err := newLeaseTable(st, RunSpec{}.Rule(), Options{LeaseTTL: time.Minute}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	clock := new(fakeClock)
	table.now = clock.now

	first := table.issue()
	clock.advance(30 * time.Second)
	second := table.issue() // half a TTL younger
	if first.Coverage != (Coverage{Kind: LeaseShard, Shard: 0, Count: 8}) || second.Shard != 1 || table.active != 2 {
		t.Fatalf("issued %+v then %+v, %d active", first.Coverage, second.Coverage, table.active)
	}

	clock.advance(30*time.Second - time.Nanosecond)
	if n := table.reclaim(); n != 0 {
		t.Fatalf("reclaimed %d leases a nanosecond before the first deadline", n)
	}
	clock.advance(time.Nanosecond)
	if n := table.reclaim(); n != 1 || table.pending != 1 || table.active != 1 || table.reassigned != 1 {
		t.Fatalf("at the first deadline: reclaimed %d, %d pending, %d active, %d reassigned",
			n, table.pending, table.active, table.reassigned)
	}
	if _, err := table.outstanding(first.id); err != ErrLeaseGone {
		t.Fatalf("result for the expired lease: %v, want ErrLeaseGone", err)
	}

	// Pending work goes out before fresh work, under an id never used.
	again := table.issue()
	if again.Coverage != first.Coverage || again.id == first.id || again.id == second.id || table.pending != 0 {
		t.Fatalf("reissued %+v as lease %d (was %+v as lease %d), %d pending",
			again.Coverage, again.id, first.Coverage, first.id, table.pending)
	}
	if _, err := table.outstanding(first.id); err != ErrLeaseGone {
		t.Fatalf("late result under the old id: %v, want ErrLeaseGone", err)
	}
	l, err := table.outstanding(again.id)
	if err != nil {
		t.Fatal(err)
	}
	table.complete(l)
	if _, err := table.outstanding(again.id); err != ErrDuplicate {
		t.Fatalf("second result for a resolved lease: %v, want ErrDuplicate", err)
	}
	// A resolved lease never expires.
	clock.advance(time.Hour)
	if n := table.reclaim(); n != 1 || table.todo[0] != second.Coverage {
		t.Fatalf("an hour on: reclaimed %d, head of queue %+v; want only lease %d's %+v",
			n, table.todo[0], second.id, second.Coverage)
	}
}

// TestLeaseTableResume: after a replay the table offers exactly what the
// journal left unfolded, whatever lease size the crashed incarnation used.
func TestLeaseTableResume(t *testing.T) {
	st := synthStore(t, 50, 10, true)
	folded := make([]bool, st.Count())
	for _, pos := range []int{0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23, 49} {
		folded[pos] = true
	}
	ranges, err := newLeaseTable(st, RunSpec{RelErr: 0.1}.Rule(), Options{LeasePoints: 20}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := ranges.resume(st, folded); err != nil {
		t.Fatal(err)
	}
	want := []Coverage{
		{Kind: LeaseRange, Start: 8, Count: 8},
		{Kind: LeaseRange, Start: 24, Count: 20},
		{Kind: LeaseRange, Start: 44, Count: 5},
	}
	if !reflect.DeepEqual(ranges.todo, want) || ranges.pending != len(want) {
		t.Errorf("range run resumes with %+v (%d pending), want %+v", ranges.todo, ranges.pending, want)
	}

	shards, err := newLeaseTable(st, RunSpec{}.Rule(), Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	folded = make([]bool, st.Count())
	for pos := 10; pos < 30; pos++ {
		folded[pos] = true // shards 1 and 2
	}
	if err := shards.resume(st, folded); err != nil {
		t.Fatal(err)
	}
	want = []Coverage{
		{Kind: LeaseShard, Shard: 0, Count: 10},
		{Kind: LeaseShard, Shard: 3, Count: 10},
		{Kind: LeaseShard, Shard: 4, Count: 10},
	}
	if !reflect.DeepEqual(shards.todo, want) || shards.pending != len(want) {
		t.Errorf("shard run resumes with %+v (%d pending), want %+v", shards.todo, shards.pending, want)
	}
}
