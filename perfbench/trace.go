package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"time"
)

// span is one timed call into a layer. Spans of one operation share its
// command ID; Parent indexes the enclosing span in the same log (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps one goroutine's spans in memory until the run writes them
// out. It is not safe for concurrent use: each caller gets its own.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog(base time.Time) *spanLog { return &spanLog{base: base} }

func (l *spanLog) begin(name string, id uint64, parent int) int {
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(l.base))})
	return len(l.spans) - 1
}

// end closes span i and sets its command ID.
func (l *spanLog) end(i int, id uint64) {
	l.spans[i].End = int64(time.Since(l.base))
	l.spans[i].ID = id
}

// layerTime is the time spent under one span name: Total covers the spans'
// whole intervals, Self excludes the part their child spans cover.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// meanTotal is the mean duration of one span.
func (t layerTime) meanTotal() time.Duration {
	if t.Count == 0 {
		return 0
	}
	return t.Total / time.Duration(t.Count)
}

// layerTimes aggregates closed spans by name, sorted by self time.
func layerTimes(logs ...*spanLog) []layerTime {
	by := make(map[string]*layerTime)
	for _, l := range logs {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.End != 0 && s.Parent >= 0 {
				child[s.Parent] += time.Duration(s.End - s.Start)
			}
		}
		for i, s := range l.spans {
			if s.End == 0 {
				continue
			}
			t := by[s.Name]
			if t == nil {
				t = &layerTime{Name: s.Name}
				by[s.Name] = t
			}
			d := time.Duration(s.End - s.Start)
			t.Count++
			t.Total += d
			t.Self += d - child[i]
		}
	}
	out := make([]layerTime, 0, len(by))
	for _, t := range by {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func timeOf(ts []layerTime, name string) layerTime {
	for _, t := range ts {
		if t.Name == name {
			return t
		}
	}
	return layerTime{Name: name}
}

// writeSpans writes every closed span as one JSON object per line, tagged
// with the log it came from.
func writeSpans(path string, logs map[string][]*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	names := make([]string, 0, len(logs))
	for name := range logs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i, l := range logs[name] {
			for _, s := range l.spans {
				if s.End == 0 {
					continue
				}
				rec := struct {
					Log string `json:"log"`
					span
				}{Log: name + "/" + strconv.Itoa(i), span: s}
				if err := enc.Encode(rec); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
