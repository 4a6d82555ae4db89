package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); ID is workload/pass/point and is shared
// by every span of one live-point.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; the traced run writes them out at exit.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name, id string, parent int) int {
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	s := &r.spans[i]
	s.End = int64(time.Since(r.epoch))
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, upto), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self time and counts spans per span name.
func selfByName(spans []span) (total map[string]time.Duration, count map[string]int) {
	total = make(map[string]time.Duration)
	count = make(map[string]int)
	for i, d := range selfTimes(spans) {
		total[spans[i].Name] += d
		count[spans[i].Name]++
	}
	return total, count
}
