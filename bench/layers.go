package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"livepoints/internal/livepoint"
	"livepoints/internal/lpcluster"
	"livepoints/internal/lpserve"
	"livepoints/internal/lpstore"
	"livepoints/internal/obs"
	"livepoints/internal/sampling"
	"livepoints/internal/uarch"
)

// Probe sizes: how much of a reshuffled library the random-access probes
// walk. A reshuffled batch touches every shard, so these are the slow
// ones.
const (
	sourceProbePoints = 128
	batchPoints       = 64
	batchProbes       = 4
)

// runTrace is the per-layer run. It walks the workload's library
// serially, calling each layer's public functions itself in the order the
// serial runner does, with a span around every call; then it probes the
// layers the walk does not reach (random access, the wire, the lease
// protocol). The work is fixed: -seconds does not apply.
func runTrace(e *env, o options, rec *record) error {
	set := func(name string, v float64, unit string) { rec.Metrics[name] = metric{Value: v, Unit: unit} }
	lib := e.lib
	n := lib.Points
	mb := float64(lib.UncompressedBytes) / 1e6

	// The write side, timed during set-up.
	set("functional.mips", ratio(float64(lib.benchLen)/1e6, lib.lenDur.Seconds()), "M/s")
	set("livepoint.create_us_per_point", perPointUS(lib.createDur, n), "us")
	set("livepoint.encode_us_per_point", perPointUS(lib.encDur, n), "us")
	set("lpstore.write_mb_per_s", ratio(mb, lib.writeDur.Seconds()), "MB/s")

	if err := e.reshuffle(o.seed); err != nil {
		return err
	}
	set("lpstore.shuffle_ms", millis(e.shuffleDur), "ms")
	var opens []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		st, err := lpstore.Open(lib.path)
		if err != nil {
			return err
		}
		opens = append(opens, millis(time.Since(t0)))
		st.Close()
	}
	set("lpstore.open_ms", median(opens), "ms")

	st, err := lpstore.Open(lib.path)
	if err != nil {
		return err
	}
	defer st.Close()
	reshuf, err := lpstore.Open(e.reshufPath)
	if err != nil {
		return err
	}
	defer reshuf.Close()

	// Three rounds of an untraced serial pass through the runner and a
	// traced walk, alternating, and the median of each: the box's speed
	// drifts by more than the overheads being measured, and the first
	// round doubles as the warm-up. The last walk's spans are the trace.
	runFile := func(parallel int) (float64, error) {
		t0 := time.Now()
		_, err := livepoint.RunFile(lib.path, livepoint.RunOpts{Cfg: e.cfg, Parallel: parallel})
		return time.Since(t0).Seconds(), err
	}
	var w *walk
	var serialS, par2S, walkS []float64
	for round := 0; round < 3; round++ {
		s, err := runFile(1)
		if err != nil {
			return err
		}
		serialS = append(serialS, s)
		if w, err = e.walk(st); err != nil {
			return err
		}
		// The walk does two things the runner does not — the stand-alone
		// read and reconstruct — and they are measured, not overhead.
		walkS = append(walkS, (w.dur - w.self["read"] - w.self["reconstruct"]).Seconds())
	}
	for round := 0; round < 3; round++ {
		s, err := runFile(2)
		if err != nil {
			return err
		}
		par2S = append(par2S, s)
	}
	serial := median(serialS)

	rec.Passes, rec.Attempted = 1, n
	if want := foldRef(lib.ref, seq(n)); w.est.N() != n || w.est.Mean() != want.Mean() || w.est.Var() != want.Var() {
		rec.Failed = n
		rec.Failures = append(rec.Failures, fmt.Sprintf("traced walk folded n=%d mean=%v, reference n=%d mean=%v", w.est.N(), w.est.Mean(), n, want.Mean()))
	}

	window := w.self["simulate"] - w.self["reconstruct"]
	inflate := w.self["inflate"] - w.self["read"]
	layers := inflate + w.self["decode"] + w.self["simulate"] + w.self["fold"]
	set("lpstore.read_us_per_point", perPointUS(w.self["read"], n), "us")
	set("lpstore.read_mb_per_s", ratio(float64(w.readBytes)/1e6, w.self["read"].Seconds()), "MB/s")
	set("lpstore.inflate_us_per_point", perPointUS(inflate, n), "us")
	set("lpstore.inflate_mb_per_s", ratio(mb, inflate.Seconds()), "MB/s")
	set("livepoint.decode_us_per_point", perPointUS(w.self["decode"], n), "us")
	set("livepoint.decode_mb_per_s", ratio(mb, w.self["decode"].Seconds()), "MB/s")
	set("livepoint.decode_allocs_per_point", w.decodeAllocs, "count")
	set("livepoint.reconstruct_us_per_point", perPointUS(w.self["reconstruct"], n), "us")
	set("uarch.window_us_per_point", perPointUS(window, n), "us")
	set("uarch.window_us_p50", median(w.windowUS), "us")
	tailUS, tailPct := tail(w.windowUS)
	set("uarch.window_us_tail", tailUS, "us")
	set("uarch.sim_kips", ratio(float64(w.stats.Committed)/1e3, window.Seconds()), "k/s")
	set("uarch.sim_mcycles_per_s", ratio(float64(w.stats.Cycles)/1e6, window.Seconds()), "M/s")
	set("uarch.host_ns_per_sim_cycle", ratio(float64(window.Nanoseconds()), float64(w.stats.Cycles)), "ns")
	set("uarch.cycles_per_point", ratio(float64(w.stats.Cycles), float64(n)), "count")
	set("uarch.committed_per_point", ratio(float64(w.stats.Committed), float64(n)), "count")
	set("uarch.dispatched_per_point", ratio(float64(w.stats.Dispatched), float64(n)), "count")
	set("uarch.wrongpath_frac", ratio(float64(w.stats.WrongPathDisp), float64(w.stats.Dispatched)), "frac")
	set("uarch.unknown_loads_per_point", ratio(float64(w.stats.UnknownLoads), float64(n)), "count")
	set("livepoint.runner_overhead_us_per_point", (serial-layers.Seconds())*1e6/float64(max(n, 1)), "us")
	set("livepoint.par2_speedup", ratio(serial, median(par2S)), "x")
	set("trace.layers_frac", ratio(layers.Seconds(), serial), "frac")
	set("trace.overhead_frac", ratio(median(walkS), serial)-1, "frac")
	rec.Info["window_tail_percentile"] = tailPct
	rec.Info["cpi_mean"] = w.est.Mean()
	rec.Info["points_folded"] = float64(n)
	rec.Sim = map[string]float64{
		"points_folded": float64(n), "cpi_mean": w.est.Mean(),
		"cycles": float64(w.stats.Cycles), "committed": float64(w.stats.Committed), "dispatched": float64(w.stats.Dispatched),
		"wrongpath_dispatched": float64(w.stats.WrongPathDisp), "unknown_loads": float64(w.stats.UnknownLoads),
	}

	// The fold by itself, over the reference CPIs: around a single Add a
	// span measures the clock, not the fold.
	const foldRounds = 200
	t0 := time.Now()
	for r := 0; r < foldRounds; r++ {
		fold := sampling.NewOnline(sampling.Z997, 0, false)
		for _, cpi := range lib.ref {
			fold.Add(cpi)
		}
	}
	set("sampling.fold_ns_per_point", ratio(float64(time.Since(t0).Nanoseconds()), float64(foldRounds*n)), "ns")

	tr := w.tr
	if err := e.storeProbes(tr, st, reshuf, set); err != nil {
		return err
	}
	if err := e.wireProbes(tr, st, reshuf, set); err != nil {
		return err
	}
	if err := e.leaseProbes(tr, st, rec, set); err != nil {
		return err
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	set("proc.peak_rss_mb", peakRSSMB(), "MB")
	set("proc.gc_cycles", float64(m.NumGC), "count")
	set("proc.gc_pause_ms", float64(m.PauseTotalNs)/1e6, "ms")

	out := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Counts   map[string]float64 `json:"counts"`
		Spans    []span             `json:"spans"`
	}{e.def.name, o.seed, rec.Sim, tr.spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, "trace-"+e.def.name+".json"), b, 0o644)
}

func perPointUS(d time.Duration, n int) float64 {
	return ratio(float64(d.Nanoseconds())/1e3, float64(n))
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// walk is one traced serial pass and what it saw.
type walk struct {
	tr           *recorder
	dur          time.Duration            // the whole pass
	self         map[string]time.Duration // self time per span name
	est          sampling.Estimate
	stats        uarch.Stats // summed over the windows: simulated, exact
	windowUS     []float64   // per point: simulate minus reconstruct
	readBytes    int64
	decodeAllocs float64 // heap allocations per point of a second, steady-state decode of shard 0
}

// walk reads the creation-order store shard by shard — shard order is
// read order there, so the fold must equal the reference's — and takes
// every point through decode, reconstruct, simulate and fold.
func (e *env) walk(st *lpstore.Store) (*walk, error) {
	w := &walk{tr: newRecorder()}
	tr := w.tr
	var lp livepoint.LivePoint
	var arena livepoint.SimArena
	online := sampling.NewOnline(sampling.Z997, 0, false)
	point := 0
	root := tr.begin("pass", e.def.name+"/0", -1)
	for s := 0; s < st.NumShards(); s++ {
		shardID := fmt.Sprintf("%s/0/shard%d", e.def.name, s)
		sh := tr.begin("shard", shardID, root)

		// read is taken by itself: DecompressShard reads the same bytes
		// again inside the inflate span, and the inflate figure subtracts
		// it.
		sp := tr.begin("read", shardID, sh)
		raw, _, err := st.ShardRaw(s)
		if err != nil {
			return nil, err
		}
		nr, err := io.Copy(io.Discard, raw)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		w.readBytes += nr

		sp = tr.begin("inflate", shardID, sh)
		data, err := st.DecompressShard(s)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		locs, err := st.ShardReadOrder(s)
		if err != nil {
			return nil, err
		}
		for _, loc := range locs {
			id := fmt.Sprintf("%s/0/%d", e.def.name, point)
			point++
			pt := tr.begin("point", id, sh)

			sp = tr.begin("decode", id, pt)
			err := livepoint.DecodeInto(&lp, data[loc.Off:loc.Off+int64(loc.Len)])
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			// Simulate reconstructs again on the same arena; the window
			// is what is left of it after this stand-alone reconstruct.
			sp = tr.begin("reconstruct", id, pt)
			_, _, err = arena.Reconstruct(&lp, e.cfg)
			recon := tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("simulate", id, pt)
			wr, err := arena.Simulate(&lp, e.cfg)
			sim := tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("fold", id, pt)
			online.Add(wr.UnitCPI)
			tr.end(sp)
			tr.end(pt)

			w.windowUS = append(w.windowUS, float64((sim-recon).Nanoseconds())/1e3)
			w.stats.Cycles += wr.Stats.Cycles
			w.stats.Committed += wr.Stats.Committed
			w.stats.Dispatched += wr.Stats.Dispatched
			w.stats.WrongPathDisp += wr.Stats.WrongPathDisp
			w.stats.UnknownLoads += wr.Stats.UnknownLoads
		}
		tr.end(sh)
	}
	w.dur = tr.end(root)
	w.est = *online.Estimate()
	w.self, _ = selfByName(tr.spans)

	// Steady-state decode allocations: the first shard decoded once more
	// into the point the walk has grown.
	data, err := st.DecompressShard(0)
	if err != nil {
		return nil, err
	}
	locs, err := st.ShardReadOrder(0)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, loc := range locs {
		if err := livepoint.DecodeInto(&lp, data[loc.Off:loc.Off+int64(loc.Len)]); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	w.decodeAllocs = ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(locs)))
	return w, nil
}

// storeProbes times random access: the first read-order points of the
// creation-order store and of the reshuffled one through Store.Source,
// then ranged batches of the reshuffled store, as /v1/points serves them.
func (e *env) storeProbes(tr *recorder, st, reshuf *lpstore.Store, set func(string, float64, string)) error {
	drain := func(name string, s *lpstore.Store) (float64, error) {
		src := s.Source()
		defer src.Close()
		k := min(sourceProbePoints, s.Count())
		sp := tr.begin(name, e.def.name+"/probe", -1)
		for i := 0; i < k; i++ {
			if _, err := src.NextBlob(); err != nil {
				return 0, err
			}
		}
		return perPointUS(tr.end(sp), k), nil
	}
	v, err := drain("source", st)
	if err != nil {
		return err
	}
	set("lpstore.source_us_per_point", v, "us")
	if v, err = drain("source_reshuf", reshuf); err != nil {
		return err
	}
	set("lpstore.source_reshuf_us_per_point", v, "us")

	var dur time.Duration
	points := 0
	for start := 0; start < reshuf.Count() && start < batchProbes*batchPoints; start += batchPoints {
		k := min(batchPoints, reshuf.Count()-start)
		sp := tr.begin("blobs_reshuf", fmt.Sprintf("%s/probe/%d", e.def.name, start), -1)
		_, err := reshuf.Blobs(start, k)
		dur += tr.end(sp)
		if err != nil {
			return err
		}
		points += k
	}
	set("lpstore.blobs_reshuf_us_per_point", perPointUS(dur, points), "us")
	return nil
}

// wireProbes times the two fetches a remote run is made of: ranged
// batches over the reshuffled store (the serial remote source) and whole
// shards over the creation-order store (cluster shard leases).
func (e *env) wireProbes(tr *recorder, st, reshuf *lpstore.Store, set func(string, float64, string)) error {
	ctx := context.Background()
	probe := func(s *lpstore.Store, fetch func(cl *lpserve.Client) (points int, ms []float64, err error)) (msP50, kbPerPoint, reqPerPoint float64, err error) {
		ts := httptest.NewServer(lpserve.NewServerWithMetrics(s, e.reg).Handler())
		defer ts.Close()
		cl, err := e.dial(ts.URL)
		if err != nil {
			return 0, 0, 0, err
		}
		defer cl.CloseIdle()
		b0, r0 := e.wire.bytes.Load(), e.wire.requests.Load()
		points, ms, err := fetch(cl)
		if err != nil {
			return 0, 0, 0, err
		}
		kb := float64(e.wire.bytes.Load()-b0) / 1024
		return median(ms), ratio(kb, float64(points)), ratio(float64(e.wire.requests.Load()-r0), float64(points)), nil
	}

	p50, kb, req, err := probe(reshuf, func(cl *lpserve.Client) (points int, ms []float64, err error) {
		for start := 0; start < reshuf.Count() && start < batchProbes*batchPoints; start += batchPoints {
			k := min(batchPoints, reshuf.Count()-start)
			sp := tr.begin("wire", fmt.Sprintf("%s/fetchbatch/%d", e.def.name, start), -1)
			blobs, err := cl.FetchBatch(ctx, start, k)
			d := tr.end(sp)
			if err != nil {
				return 0, nil, err
			}
			points += len(blobs)
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
		return points, ms, nil
	})
	if err != nil {
		return err
	}
	set("lpserve.fetchbatch_ms_p50", p50, "ms")
	set("lpserve.points_wire_kb_per_point", kb, "KB")
	set("lpserve.requests_per_point", req, "count")

	p50, kb, _, err = probe(st, func(cl *lpserve.Client) (points int, ms []float64, err error) {
		for s := 0; s < st.NumShards(); s++ {
			sp := tr.begin("wire", fmt.Sprintf("%s/shardblobs/%d", e.def.name, s), -1)
			blobs, err := cl.ShardBlobs(ctx, s)
			d := tr.end(sp)
			if err != nil {
				return 0, nil, err
			}
			points += len(blobs)
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
		return points, ms, nil
	})
	if err != nil {
		return err
	}
	set("lpserve.shardblobs_ms_p50", p50, "ms")
	set("lpserve.shard_wire_kb_per_point", kb, "KB")
	set("lpserve.client_retries", float64(e.reg.Counter("lpserve_client_retries_total", "").Value()), "count")
	return nil
}

// leaseProbes drives a journaled coordinator directly — Acquire, then
// Result fed the reference CPIs, until the run is done — and then runs
// one real two-worker cluster pass for the figures only a fleet has.
func (e *env) leaseProbes(tr *recorder, st *lpstore.Store, rec *record, set func(string, float64, string)) error {
	reg := obs.NewRegistry() // private, so the fsync histogram holds these appends only
	journal := filepath.Join(e.dir, "probe.waj")
	defer os.Remove(journal)
	coord, err := lpcluster.NewJournaledCoordinator(st, lpcluster.RunSpec{}, lpcluster.Options{Metrics: reg}, journal)
	if err != nil {
		return err
	}
	defer coord.Close()
	var acquireUS, resultUS []float64
	for {
		sp := tr.begin("acquire", e.def.name+"/lease", -1)
		lr := coord.Acquire("bench")
		acquireUS = append(acquireUS, float64(tr.end(sp).Nanoseconds())/1e3)
		if lr.Done {
			break
		}
		if lr.Lease == nil {
			return fmt.Errorf("coordinator made its only worker wait")
		}
		positions := make([]int, lr.Lease.Count)
		for i := range positions {
			positions[i] = lr.Lease.Start + i
		}
		if lr.Lease.Kind == lpcluster.LeaseShard {
			if positions, err = st.ShardReadPositions(lr.Lease.Shard); err != nil {
				return err
			}
		}
		res := &lpcluster.Result{LeaseID: lr.Lease.ID, Epoch: lr.Lease.Epoch, Worker: "bench"}
		for _, p := range positions {
			res.CPIs = append(res.CPIs, e.lib.ref[p])
		}
		sp = tr.begin("result", fmt.Sprintf("%s/lease/%d", e.def.name, lr.Lease.ID), -1)
		_, err := coord.Result(res)
		resultUS = append(resultUS, float64(tr.end(sp).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
	}
	final, ok := coord.Final()
	if want := foldRef(e.lib.ref, seq(e.lib.Points)); !ok || final.Est.N() != want.N() || final.Est.Mean() != want.Mean() || final.Est.Var() != want.Var() {
		rec.Failed = rec.Attempted
		rec.Failures = append(rec.Failures, "coordinator fed the reference CPIs did not return the reference fold")
	}
	fsync := reg.Histogram("lpcluster_journal_fsync_seconds", "", obs.DefSeconds)
	set("lpcluster.acquire_us_p50", median(acquireUS), "us")
	set("lpcluster.result_us_p50", median(resultUS), "us")
	set("lpcluster.journal_fsync_us_mean", ratio(fsync.Sum()*1e6, float64(fsync.Count())), "us")

	issued0 := e.reg.Counter("lpcluster_leases_issued_total", "").Value()
	out, err := e.clusterPass()
	if err != nil {
		return err
	}
	set("lpcluster.worker_busy_frac", ratio((out.cluster.LoadTime+out.cluster.SimTime).Seconds(), 2*out.cluster.Elapsed.Seconds()), "frac")
	set("lpcluster.leases_issued", float64(e.reg.Counter("lpcluster_leases_issued_total", "").Value()-issued0), "count")
	set("lpcluster.leases_reassigned", float64(out.cluster.Reassigned), "count")
	return nil
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
