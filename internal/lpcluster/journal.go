package lpcluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
)

// The run journal is the coordinator's write-ahead log: one JSON record
// per line, fsynced before the coordinator's in-memory state advances, so
// a coordinator that is SIGKILLed mid-run can be restarted from the
// journal with nothing lost and nothing double-counted.
//
// Record types (the "t" field):
//
//	run     written once at creation: the resolved RunSpec plus the
//	        library's identity (benchmark, point count, and the layout
//	        fingerprint of layoutOf) so a resume against the wrong
//	        flags, the wrong store, or the right store with its index
//	        reshuffled since, is refused.
//	epoch   appended once per restart. Leases carry the epoch of the
//	        incarnation that issued them; a result posted against a
//	        previous incarnation's lease is rejected with 410 (its points
//	        were re-leased under the new epoch, so folding the stale copy
//	        would double-count).
//	result  appended for every accepted lease result, *before* it is
//	        folded: the lease's Coverage (positions are re-derived from
//	        the store on replay) and the posted Partial.
//
// Replay re-executes the result records in journal order — the original
// acceptance order — through the same fold path Result uses, so the
// resumed coordinator's running estimate is bit-identical to the state
// the crashed incarnation had journaled. JSON round-trips float64
// exactly, so no precision is lost on the way through the log.
//
// A crash can tear the final record (partial line, no trailing
// newline, or a torn JSON object). Replay stops at the first record that
// does not parse and truncates the file back to the last good byte:
// the torn record was never acknowledged to its worker, so its lease
// simply reappears as pending work.

// Journal record types.
const (
	recRun    = "run"
	recEpoch  = "epoch"
	recResult = "result"
)

// journalRecord is one line of the run journal. Exactly the fields for
// its type are populated.
type journalRecord struct {
	T string `json:"t"`

	// recRun
	Spec      *RunSpec `json:"spec,omitempty"`
	Benchmark string   `json:"benchmark,omitempty"`
	Points    int      `json:"points,omitempty"`
	Layout    string   `json:"layout,omitempty"`

	// recEpoch
	Epoch uint64 `json:"epoch,omitempty"`

	// recResult: what the lease covered and what its worker posted.
	Coverage
	Partial
}

// layoutOf fingerprints everything Coverage.positions reads from st: the
// read-order permutation and the positions each shard holds, CRC-32 over
// each as fmt prints an []int. A journal stores CPIs by coverage, so it
// holds only over the layout it was written over: after an lpstore.Shuffle
// the same coverage names other points, and a replay onto them would fold
// some points twice and others never.
func layoutOf(st *lpstore.Store) (string, error) {
	h := crc32.NewIEEE()
	fmt.Fprint(h, st.Order())
	for s := 0; s < st.NumShards(); s++ {
		positions, err := st.ShardReadPositions(s)
		if err != nil {
			return "", err
		}
		fmt.Fprint(h, positions)
	}
	return fmt.Sprintf("%08x", h.Sum32()), nil
}

// NewJournaledCoordinator is NewCoordinator with a crash-safe run
// journal at path. An empty (or absent) journal starts a fresh run and
// records its spec; a non-empty journal resumes the run it records: every
// journaled result is refolded in its original acceptance order (the
// resumed estimate is bit-equal to the crashed incarnation's), unfolded
// points are queued for re-leasing, and the epoch is bumped so results
// for leases issued before the restart are rejected with 410 instead of
// double-counted. Resuming requires the same spec and the same library,
// in the same read order, that the journal records; anything else is
// refused.
func NewJournaledCoordinator(st *lpstore.Store, spec RunSpec, opt Options, path string) (*Coordinator, error) {
	opt = opt.withDefaults()
	jr, recs, err := openJournal(path, opt.Metrics)
	if err != nil {
		return nil, err
	}
	c, err := NewCoordinator(st, spec, opt)
	if err == nil {
		c.jr = jr
		err = c.openRun(recs)
	}
	if err != nil {
		jr.Close()
		return nil, err
	}
	return c, nil
}

// openRun starts the journal of a fresh run, or resumes the run recs hold.
func (c *Coordinator) openRun(recs []journalRecord) error {
	layout, err := layoutOf(c.st)
	if err != nil {
		return err
	}
	// What this run is, as the first record of its journal says it: the
	// spec, and the library down to its layout.
	run := journalRecord{
		T: recRun, Spec: &c.spec, Benchmark: c.st.Meta().Benchmark, Points: c.st.Count(), Layout: layout,
	}
	if len(recs) == 0 {
		return c.jr.append(run)
	}
	was := recs[0]
	if was.Layout == "" {
		// Written before journals recorded the layout: it resumes on the
		// benchmark and point count alone, as it always did.
		run.Layout = ""
	}
	if was.T != recRun || was.Spec == nil || *was.Spec != c.spec ||
		was.Benchmark != run.Benchmark || was.Points != run.Points || was.Layout != run.Layout {
		a, _ := json.Marshal(was) // for the message only
		b, _ := json.Marshal(run)
		return fmt.Errorf("lpcluster: journal records run %s, this is run %s: refusing to resume under another spec "+
			"or over another library (its layout changes when its index is reshuffled or rewritten)", a, b)
	}
	if err := c.replay(recs[1:]); err != nil {
		return err
	}
	// Announce the new incarnation. From here on only current-epoch
	// results fold.
	if err := c.jr.append(journalRecord{T: recEpoch, Epoch: c.epoch}); err != nil {
		return err
	}
	c.opt.Metrics.Gauge("lpcluster_run_epoch", "").Set(float64(c.epoch))
	return nil
}

// replay rebuilds the coordinator's fold state from a journal's epoch and
// result records and queues the still-unfolded coverage as pending leases.
func (c *Coordinator) replay(recs []journalRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	folded := make([]bool, c.st.Count())
	var lastEpoch uint64
	for _, rec := range recs {
		switch rec.T {
		case recEpoch:
			lastEpoch = max(lastEpoch, rec.Epoch)
		case recResult:
			// The journal is input like any other: a record is checked as
			// the result it holds was, and none follows the run's end.
			positions, err := rec.positions(c.st)
			if err == nil {
				err = rec.check(len(c.fold.row), len(positions))
			}
			if err == nil && c.finished {
				err = errors.New("the run had already finished")
			}
			if err != nil {
				return fmt.Errorf("lpcluster: journaled result: %w", err)
			}
			for _, pos := range positions {
				if folded[pos] {
					return fmt.Errorf("lpcluster: journaled results fold position %d twice", pos)
				}
				folded[pos] = true
			}
			c.accept(positions, &rec.Partial)
			c.jr.mReplayed.Inc()
		default:
			return fmt.Errorf("lpcluster: unknown journal record type %q", rec.T)
		}
	}
	c.epoch = lastEpoch + 1
	if c.finished {
		return nil
	}
	return c.leases.resume(c.st, folded)
}

// Journal is an append-only, fsync-per-record run log.
type Journal struct {
	f *os.File

	mAppends  *obs.Counter
	mBytes    *obs.Counter
	mReplayed *obs.Counter
	hFsync    *obs.Histogram
}

// openJournal opens (or creates) the journal at path, reads every intact
// record, truncates a torn tail, and leaves the file positioned for
// appending.
func openJournal(path string, reg *obs.Registry) (*Journal, []journalRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("lpcluster: opening journal: %w", err)
	}
	recs, good, err := readRecords(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop a torn tail (a record half-written when the previous
	// incarnation died) so future appends produce a clean log.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("lpcluster: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("lpcluster: seeking journal end: %w", err)
	}
	j := &Journal{
		f:         f,
		mAppends:  reg.Counter("lpcluster_journal_appends_total", "Records appended to the run journal."),
		mBytes:    reg.Counter("lpcluster_journal_bytes_total", "Bytes appended to the run journal."),
		mReplayed: reg.Counter("lpcluster_journal_replayed_results_total", "Result records refolded from the journal on resume."),
		hFsync:    reg.Histogram("lpcluster_journal_fsync_seconds", "Latency of the per-record append+fsync.", obs.DefSeconds),
	}
	return j, recs, nil
}

// readRecords decodes journal lines until EOF or the first record that
// does not parse, returning the intact records and the byte offset of
// the last good one.
func readRecords(f *os.File) ([]journalRecord, int64, error) {
	br := bufio.NewReaderSize(f, 1<<20)
	var recs []journalRecord
	var good int64
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// A trailing fragment with no newline is a torn append.
			return recs, good, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("lpcluster: reading journal: %w", err)
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil || rec.T == "" {
			// Torn or corrupt record: everything from here on was never
			// acknowledged; replay stops at the last good byte.
			return recs, good, nil
		}
		recs = append(recs, rec)
		good += int64(len(line))
	}
}

// append writes one record and fsyncs before returning, upholding the
// write-ahead contract: a record the coordinator acts on is on disk.
func (j *Journal) append(rec journalRecord) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("lpcluster: encoding journal record: %w", err)
	}
	body = append(body, '\n')
	t0 := time.Now()
	if _, err := j.f.Write(body); err != nil {
		return fmt.Errorf("lpcluster: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("lpcluster: syncing journal: %w", err)
	}
	j.hFsync.Observe(time.Since(t0).Seconds())
	j.mAppends.Inc()
	j.mBytes.Add(uint64(len(body)))
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
