package lpcluster

import (
	"slices"
	"time"

	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/sampling"
)

// lease is the table's record of one issued work unit.
type lease struct {
	Coverage
	id       uint64
	deadline time.Time
	done     bool // its result was accepted, or arrived after the run finished
}

// leaseTable hands the library's coverage out so that every point is out
// under at most one live lease at a time. It knows what a lease covers and
// when it expires, never what its result holds.
type leaseTable struct {
	now func() time.Time // time.Now, except under a test's clock
	ttl time.Duration

	// The run's lease shape: whole shards, or read-order ranges of at most
	// rangePoints points.
	shardMajor  bool
	rangePoints int

	// todo is the coverage not out under a lease, in issue order: first the
	// pending entries — expired or resumed work — then what was never leased.
	todo    []Coverage
	pending int

	nextID     uint64
	byID       map[uint64]*lease // every lease issued and not revoked
	active     int               // of which not done
	reassigned int               // leases revoked so far
}

// newLeaseTable chooses the run's lease shape (DESIGN §3.3, §3.5) and
// queues the whole library in it. A run under an active stopping rule may
// end on any prefix, so it leases read-order ranges; a whole-library run
// leases whole shards, each inflated once by one worker — unless the store
// has a single shard, or one too large for a lease: no lease covers more
// than lpserve.MaxBatchPoints points, which is what bounds a result's size.
func newLeaseTable(st *lpstore.Store, rule sampling.Rule, opt Options) (*leaseTable, error) {
	t := &leaseTable{
		now: time.Now, ttl: opt.LeaseTTL, rangePoints: opt.LeasePoints,
		shardMajor: !rule.Active() && st.NumShards() > 1,
		byID:       make(map[uint64]*lease),
	}
	for s := 0; t.shardMajor && s < st.NumShards(); s++ {
		n, _, _, err := st.ShardStat(s)
		t.shardMajor = err == nil && n <= lpserve.MaxBatchPoints
	}
	return t, t.cut(st, make([]bool, st.Count()))
}

// cut queues exactly the positions not yet folded, tiled into leases of the
// run's shape: every shard not folded (a shard folds as one lease, so its
// first position speaks for it), or the unfolded stretches of the read
// order — a resumed run has gaps wherever the crashed incarnation's leases
// completed out of order — in pieces of at most rangePoints.
func (t *leaseTable) cut(st *lpstore.Store, folded []bool) error {
	t.todo = nil
	if t.shardMajor {
		for s := 0; s < st.NumShards(); s++ {
			c := Coverage{Kind: LeaseShard, Shard: s}
			positions, err := c.positions(st)
			if err != nil {
				return err
			}
			if c.Count = len(positions); c.Count > 0 && !folded[positions[0]] {
				t.todo = append(t.todo, c)
			}
		}
		return nil
	}
	for lo := 0; lo < len(folded); {
		hi := lo
		for hi < len(folded) && !folded[hi] && hi-lo < t.rangePoints {
			hi++
		}
		if hi == lo {
			lo++
			continue
		}
		t.todo = append(t.todo, Coverage{Kind: LeaseRange, Start: lo, Count: hi - lo})
		lo = hi
	}
	return nil
}

// resume restarts the table after a journal replay: everything the journal
// left unfolded is pending, under no lease of this incarnation.
func (t *leaseTable) resume(st *lpstore.Store, folded []bool) error {
	err := t.cut(st, folded)
	t.pending = len(t.todo)
	return err
}

// issue leases out the head of the queue, or returns nil when every point
// is folded or out under a live lease.
func (t *leaseTable) issue() *lease {
	if len(t.todo) == 0 {
		return nil
	}
	t.nextID++
	l := &lease{Coverage: t.todo[0], id: t.nextID, deadline: t.now().Add(t.ttl)}
	t.todo, t.pending = t.todo[1:], max(t.pending-1, 0)
	t.byID[l.id] = l
	t.active++
	return l
}

// reclaim revokes every lease past its deadline, queues its coverage for a
// new lease under a new id, and returns how many it revoked. A late result
// for a revoked lease finds no lease (outstanding), so each point folds
// exactly once.
func (t *leaseTable) reclaim() (revoked int) {
	now := t.now()
	for id, l := range t.byID {
		if l.done || now.Before(l.deadline) {
			continue
		}
		delete(t.byID, id)
		t.todo = slices.Insert(t.todo, t.pending, l.Coverage)
		t.pending++
		revoked++
	}
	t.active -= revoked
	t.reassigned += revoked
	return revoked
}

// outstanding returns the live lease a result names, or why the result may
// not fold: ErrLeaseGone for an id never issued or since revoked (its
// points belong to a replacement lease), ErrDuplicate for one already
// resolved.
func (t *leaseTable) outstanding(id uint64) (*lease, error) {
	l, ok := t.byID[id]
	switch {
	case !ok:
		return nil, ErrLeaseGone
	case l.done:
		return nil, ErrDuplicate
	}
	return l, nil
}

// complete resolves an outstanding lease.
func (t *leaseTable) complete(l *lease) {
	l.done = true
	t.active--
}
