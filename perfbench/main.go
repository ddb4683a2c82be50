// Command perfbench is the repository's benchmark. Each run stands up the
// full live stack in this process on loopback TCP through the public
// embedding API, drives one workload through one client with a closed loop
// of 8 calls in flight, checks the outputs, and prints its figures.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mem-rw --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics: counters over an untraced window, spans
// over a traced one, a layer replay through each layer's public functions
// and an unreplicated reference row. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// trials is how many independent trials an end-to-end run splits its
// measured time into, each on a fresh deployment with its own set-up,
// warm-up, window (and kill) and gate. Every end-to-end metric is the
// median over the trials, so one disturbed trial does not move the run.
const trials = 7

// warmFor is the unmeasured closed-loop run before a trial's window.
const warmFor = 500 * time.Millisecond

// heapLimit is the live heap at which the watchdog ends a run: far above
// the tens of MB a healthy closed-loop run holds, far below what would get
// the process killed on a small host.
const heapLimit = 1 << 30

// hardDeadline ends the process, with no result, if a run has not finished:
// a run either finishes or is failed, it never hangs.
const hardDeadline = 170 * time.Second

type config struct {
	workload workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is everything one run produced: the result line plus what the run
// records beside it.
type report struct {
	result
	Host     host     `json:"host"`
	Workload string   `json:"workload"`
	Topology string   `json:"topology"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	GateErr  string   `json:"gate_error,omitempty"`
	Watchdog string   `json:"watchdog,omitempty"`
	Lines    []string `json:"-"`
}

func (r *report) printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func main() {
	time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v; giving up\n", hardDeadline)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for stores, spans and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		workload: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workdir: *workdir,
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, line := range rep.Lines {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// execute runs one workload in a private directory under the work
// directory, removed afterwards, and saves the report beside it.
func execute(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := &report{
		result: result{Correct: true},
		Host:   fingerprint(".", cfg.workdir), Workload: cfg.workload.Name,
		Topology: defaultTopology.String(), Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
	}
	rep.printf("host: cpus=%d gomaxprocs=%d go=%s commit=%s", rep.Host.CPUs, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Commit)
	rep.printf("run: workload=%s seed=%d seconds=%g trace=%v closed loop, %d in flight", cfg.workload.Name, cfg.seed, cfg.seconds.Seconds(), cfg.trace, inFlight)
	rep.printf("topology: %s", rep.Topology)

	// The watchdog's deadline leaves room for drains and checks inside the
	// hard deadline.
	dog := startWatchdog(heapLimit, time.Now().Add(hardDeadline-20*time.Second))
	defer dog.close()
	if cfg.trace {
		err = traced(cfg, rep, dir, dog)
	} else {
		err = endToEndRun(cfg, rep, dir, dog)
	}
	if err != nil {
		return nil, err
	}
	if dog.fired() {
		rep.Watchdog = dog.reason()
		rep.Correct = false
		rep.printf("watchdog: %s; outstanding calls counted as failed", rep.Watchdog)
	}
	if rep.GateErr != "" {
		rep.printf("gate: FAIL: %s", rep.GateErr)
	} else {
		rep.printf("gate: ok (learners converged, acknowledged writes in the merged order, history linearizable)")
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload.Name, cfg.seed, b2i(cfg.trace)))
	if b, err := json.MarshalIndent(rep, "", "  "); err == nil {
		if err := os.WriteFile(path, b, 0o644); err == nil {
			rep.printf("report: %s", path)
		}
	}
	return rep, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEndRun measures the end-to-end metrics over the trials and reports
// each metric's median.
func endToEndRun(cfg config, rep *report, dir string, dog *watchdog) error {
	w := &cfg.workload
	per := cfg.seconds / trials
	vals := map[string][]float64{}
	for i := 0; i < trials && !dog.fired(); i++ {
		d, setup, err := setUp(w, defaultTopology, dir)
		if err != nil {
			return err
		}
		dr := newDriver(d, w, cfg.seed+uint64(i)<<32, dog)
		dr.warm(warmFor)
		wn := dr.measure(1, per, w.KillAt, false, nil)
		recs := dr.records()
		rep.gate(d, recs, wn.rounds, w.KillAt > 0)
		d.close()
		e := summarize(recs, wn)
		rep.Attempted += e.attempted
		rep.Failed += e.failed
		for name, v := range map[string]float64{
			"goodput_ops": e.goodput, "p50_ms": e.p50, "p99_ms": e.p99,
			"success_share": 1 - float64(e.failed)/float64(max(e.attempted, 1)),
			"outage_ms":     e.outage, "heap_mb": wn.heapMB, "setup_s": setup,
		} {
			vals[name] = append(vals[name], v)
		}
		kill := ""
		if wn.killAt > 0 {
			kill = fmt.Sprintf(", killed coordinator %d at %.2fs", d.spec.Coords[0].ID, float64(wn.killAt-wn.start)/1e9)
		}
		rep.printf("trial %d: %.1f ops/s, p50 %.3f ms, p99 %.3f ms (%d samples, %d beyond p99), outage %.1f ms, %d failed of %d, round changes %d%s",
			i, e.goodput, e.p50, e.p99, e.samples, e.samples-int(0.99*float64(e.samples)), e.outage, e.failed, e.attempted, wn.rounds, kill)
	}
	rep.Metrics = map[string]value{}
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = value{median(vals[m.Name]), m.Unit}
	}
	rep.printf("failed_share %.4f (%d of %d)", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	rep.printMetrics(endToEnd)
	return nil
}

// gate runs the correctness gate and records the first failure.
func (r *report) gate(d *deployment, recs []record, rounds int, requireNoRounds bool) {
	if err := gate(d, recs, rounds, requireNoRounds); err != nil && r.GateErr == "" {
		r.Correct, r.GateErr = false, err.Error()
	}
}

// traced measures the per-layer metrics: counters over an untraced window
// of half the run's seconds, spans over a traced window of a quarter, the
// layer replay, and the single-node reference row over another quarter. The
// gate covers the whole history.
func traced(cfg config, rep *report, dir string, dog *watchdog) error {
	w := &cfg.workload
	d, _, err := setUp(w, defaultTopology, dir)
	if err != nil {
		return err
	}
	dr := newDriver(d, w, cfg.seed, dog)
	dr.warm(warmFor)
	plain := dr.measure(1, cfg.seconds/2, w.KillAt, true, nil)
	logs := make([]*spanLog, inFlight)
	for i := range logs {
		logs[i] = newSpanLog(dr.base)
	}
	tracedWn := dr.measure(2, cfg.seconds/4, 0, false, logs)
	recs := dr.records()
	rep.gate(d, recs, plain.rounds+tracedWn.rounds, w.KillAt > 0)
	order, err := d.rep.Order(d.spec.Learners[0].ID)
	// The replay and the reference row run with this deployment stopped.
	d.close()
	if err != nil {
		return err
	}
	e1, e2 := summarize(recs, plain), summarize(recs, tracedWn)
	rep.Attempted, rep.Failed = e1.attempted+e2.attempted, e1.failed+e2.failed
	m := counterMetrics(plain, e1.completed)

	// Tracing overhead: traced goodput against the untraced window's second
	// half, which for coord-crash lies after the kill like the traced window.
	half := plain
	half.start += (plain.end - plain.start) / 2
	ref := summarize(recs, half).goodput
	m["trace.overhead_share"] = 1 - e2.goodput/ref
	live := layerTimes(logs...)
	m["op_us"] = float64(timeOf(live, "op").meanTotal()) / 1e3
	m["deploy.client.propose_us"] = float64(timeOf(live, "deploy.client.propose").meanTotal()) / 1e3

	replayLog, rm, err := layerReplay(w, cfg.seed, m["deploy.ingress.ops_per_batch"], len(order), filepath.Join(dir, "replay"), dr.base)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	for k, v := range rm {
		m[k] = v
	}

	single, err := singleNodeReference(cfg, dir, dog)
	if err != nil && rep.GateErr == "" {
		rep.Correct, rep.GateErr = false, "single-node reference: "+err.Error()
	}
	m["ref.single_node.goodput_ops"] = single.goodput
	m["ref.single_node.p50_ms"] = single.p50

	spans := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, cfg.seed))
	if err := writeSpans(spans, map[string][]*spanLog{"live": logs, "replay": {replayLog}}); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	rep.Metrics = map[string]value{}
	for _, pm := range perLayer {
		v, ok := m[pm.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", pm.Name)
		}
		rep.Metrics[pm.Name] = value{v, pm.Unit}
	}
	rep.printf("untraced window: %.1f ops/s, p50 %.3f ms, p99 %.3f ms (%d samples), %d failed of %d",
		e1.goodput, e1.p50, e1.p99, e1.samples, e1.failed, e1.attempted)
	rep.printf("traced window:   %.1f ops/s, p50 %.3f ms, p99 %.3f ms (%d samples), %d failed of %d; trace.overhead_share %.4f",
		e2.goodput, e2.p50, e2.p99, e2.samples, e2.failed, e2.attempted, m["trace.overhead_share"])
	rep.printf("single-node reference (mem-rw, %s): %.1f ops/s, p50 %.3f ms, p99 %.3f ms (%d samples), %d failed of %d",
		singleNode, single.goodput, single.p50, single.p99, single.samples, single.failed, single.attempted)
	rep.printf("layer self time (spans written to %s):", spans)
	rep.printf("  %-32s %8s %12s %12s %12s", "span", "count", "self", "self/span", "total/span")
	for _, t := range append(live, layerTimes(replayLog)...) {
		rep.printf("  %-32s %8d %12v %12v %12v", t.Name, t.Count, t.Self.Round(time.Microsecond),
			(t.Self / time.Duration(t.Count)).Round(time.Nanosecond), t.meanTotal().Round(time.Nanosecond))
	}
	rep.printMetrics(perLayer)
	return nil
}

// singleNodeReference runs mem-rw on the unreplicated topology for a
// quarter of the run's seconds. Its history goes through the same gate; its
// failed calls are reported on its own row, not in the workload's counts.
func singleNodeReference(cfg config, dir string, dog *watchdog) (e2e, error) {
	w, _ := workloadByName("mem-rw")
	d, _, err := setUp(&w, singleNode, dir)
	if err != nil {
		return e2e{}, err
	}
	defer d.close()
	dr := newDriver(d, &w, cfg.seed, dog)
	dr.warm(warmFor)
	wn := dr.measure(1, cfg.seconds/4, 0, false, nil)
	recs := dr.records()
	if err := gate(d, recs, wn.rounds, false); err != nil {
		return e2e{}, err
	}
	return summarize(recs, wn), nil
}

// printMetrics prints the run's metrics in the table's order, each with its
// unit (and, for per-layer metrics, what it should move).
func (r *report) printMetrics(table []metric) {
	for _, m := range table {
		v := r.Metrics[m.Name]
		if m.Moves != "" {
			r.printf("metric %-36s %14.4f %-6s moves: %s", m.Name, v.Value, v.Unit, m.Moves)
		} else {
			r.printf("metric %-36s %14.4f %-6s", m.Name, v.Value, v.Unit)
		}
	}
}
