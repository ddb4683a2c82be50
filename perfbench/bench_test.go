package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// runCLI runs the benchmark as its command line does and decodes the
// result line, which must be the last line of standard output.
func runCLI(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--workdir", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	return res
}

// checkResult requires a correct run without failures that reports every
// metric of the table with its unit.
func checkResult(t *testing.T, res result, table []metric) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(table) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(table))
	}
	for _, m := range table {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
		}
	}
}

func TestTinyRunOfEachWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runCLI(t, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", "0")
			checkResult(t, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
		})
	}
}

func TestTinyTracedRun(t *testing.T) {
	res := runCLI(t, "--workload", "mem-rw", "--seed", "7", "--seconds", "1", "--trace", "1")
	checkResult(t, res, perLayer)
}

func TestLayerReplay(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			_, m, err := layerReplay(&w, 3, 4, 1000, t.TempDir(), time.Now())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"batch.pack_ns", "transport.encode_ns.p2a", "classic.acceptor.p2a_wal_us",
				"wal.fsync_us", "classic.learner.p2b_us", "smr.apply_ns", "snapshot.save_ms"} {
				if m[name] <= 0 {
					t.Errorf("%s = %v", name, m[name])
				}
			}
			if m["wal.fsyncs_per_append"] < 1 {
				t.Errorf("wal.fsyncs_per_append = %v; a lone appender fsyncs every append", m["wal.fsyncs_per_append"])
			}
		})
	}
}

func TestGateRejectsNonLinearizableHistory(t *testing.T) {
	write := record{op: op{Key: "k", Value: "a"}, id: 1, start: 0, end: 10, ok: true, out: "ok"}
	staleRead := record{op: op{Get: true, Key: "k"}, id: 2, start: 20, end: 30, ok: true, out: "=b"}
	order := []uint64{1, 2}
	if err := checkRecords([]record{write, staleRead}, order, 0, false); err == nil || !strings.Contains(err.Error(), "linearizable") {
		t.Fatalf("a read of a value never written passed the gate: %v", err)
	}
	goodRead := staleRead
	goodRead.out = "=a"
	if err := checkRecords([]record{write, goodRead}, order, 0, false); err != nil {
		t.Fatalf("a linearizable history failed the gate: %v", err)
	}
	if err := checkRecords([]record{write, goodRead}, []uint64{2}, 0, false); err == nil {
		t.Fatal("an acknowledged write missing from the merged order passed the gate")
	}
	if err := checkRecords([]record{write, goodRead}, order, 1, true); err == nil {
		t.Fatal("a round change passed the gate of a workload that requires none")
	}
	// A failed write that applied stays in the history with an open return.
	lost := record{op: op{Key: "k", Value: "c"}, id: 3, start: 40}
	lateRead := record{op: op{Get: true, Key: "k"}, id: 4, start: 50, end: 60, ok: true, out: "=c"}
	if err := checkRecords([]record{write, lost, lateRead}, []uint64{1, 3, 4}, 0, false); err != nil {
		t.Fatalf("a failed write that applied was not kept in the history: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	ms := int64(1e6)
	wn := window{phase: 1, start: 0, end: 4000 * ms, killAt: 1000 * ms}
	recs := []record{
		{phase: 1, start: 0, end: 2 * ms, ok: true},
		{phase: 1, start: 900 * ms, end: 1100 * ms, ok: true},
		{phase: 1, start: 1200 * ms, end: 1300 * ms, ok: true},
		{phase: 1, start: 1400 * ms}, // failed
		{phase: 0, start: 0, end: 5 * ms, ok: true},
	}
	e := summarize(recs, wn)
	if e.attempted != 4 || e.failed != 1 || e.completed != 4 {
		t.Fatalf("attempted=%d failed=%d completed=%d", e.attempted, e.failed, e.completed)
	}
	if e.goodput != 1 {
		t.Errorf("goodput %v, want 1 op/s", e.goodput)
	}
	if e.outage != 200 {
		t.Errorf("outage %v ms, want 200 (kill at 1000 ms, completions at 1100 and 1300)", e.outage)
	}
	if e.p50 != 100 || e.p99 != 200 {
		t.Errorf("p50 %v p99 %v", e.p50, e.p99)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the code's metric
// and workload tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		got, ok := workloadByName(w.Name)
		if !ok || got.Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says %q, code says %q", w.Name, w.Why, got.Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, want)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, want)
		}
	}
}
