package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call: a benchmark-side call into a layer, a timed
// step, or a phase sample of the solver's metrics collector. Parent 0
// marks a root. All spans of one run share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"` // -1: not specific to a rank
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs,omitempty"` // heap allocations inside the call, where counted
}

// tracer keeps spans in memory until the benchmark writes them once at
// the end. A nil tracer records nothing, so untraced runs share the code
// path without paying for spans.
type tracer struct {
	epoch time.Time
	run   string
	spans []span
}

func newTracer(epoch time.Time, run string) *tracer {
	return &tracer{epoch: epoch, run: run}
}

// now returns nanoseconds since the epoch shared by every clock of the
// benchmark (the collector is built on the same reading).
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, rank int, start, end, allocs int64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Rank: rank, Start: start, End: end, Allocs: allocs})
	return id
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.add(name, parent, -1, t.now(), 0, 0)
	return id, func() { t.spans[id-1].End = t.now() }
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children — ranks
// running concurrently — are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[s.ID])
	}
	return self
}

// covered measures the union of the child intervals clipped to p.
func covered(p span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

// traceFile is what a traced invocation writes: the host facts needed to
// read the spans, then the spans of every run.
type traceFile struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Spans      []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
