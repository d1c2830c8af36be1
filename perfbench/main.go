// Command perfbench is the repository benchmark: it generates a seeded mSEED
// archive with internal/seisgen, drives one workload against the real
// program (the warehouse library in-process, or the lazyetld daemon over
// loopback), checks every answer against a reference copy decoded once
// through internal/mseed, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// run reports the per-layer ones instead. See README.md for the workloads
// and what each metric means. Build and run it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what a workload runner gets from the command line.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	daemon  string // lazyetld binary
	dir     string // scratch directory of this run, removed at exit
	spanOut string // where the traced run writes its spans
}

func (e *env) dur(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// e2eShare is the share of the measured time the end-to-end phases get:
// all of it, or 40% in a traced run, whose remainder goes to the
// entry-point passes and the layer replay.
func (e *env) e2eShare() float64 {
	if e.trace {
		return 0.4
	}
	return 1
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// outcome is a workload run's tallies and figures.
type outcome struct {
	attempted, failed, wrong int64
	wrongNote                string
	metrics                  []metric // end-to-end
	details                  []metric // per-layer and workload-specific
	notes                    []string
}

func (o *outcome) detail(name, unit string, v float64) {
	o.details = append(o.details, metric{name, unit, v})
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// count folds one request's fate into the tallies.
func (o *outcome) count(r *request, got *answer, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		if o.wrongNote == "" {
			o.wrongNote = fmt.Sprintf("%s failed: %v", r.class, err)
		}
		return false
	}
	if !got.equal(&r.want) {
		o.wrong++
		if o.wrongNote == "" {
			o.wrongNote = fmt.Sprintf("%s answered wrongly\n  sql:  %s %v\n  want: %s\n  got:  %s", r.class, r.sql, r.params, r.want.String(), got.String())
		}
		return false
	}
	return true
}

func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.wrong += p.wrong
	if o.wrongNote == "" {
		o.wrongNote = p.wrongNote
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"archive-cold":   archiveCold,
	"dashboard-http": dashboardHTTP,
	"ingest-refresh": ingestRefresh,
}

func main() {
	workload := flag.String("workload", "", "workload name: archive-cold, dashboard-http or ingest-refresh")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	daemon := flag.String("daemon", "", "lazyetld binary")
	work := flag.String("work", ".bench_build/work", "parent of the run's scratch directory")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := &env{
		seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemon, dir: dir,
		spanOut: filepath.Join(".bench_out", fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed)),
	}
	cleanup := func() {
		stopDaemons()
		os.RemoveAll(dir)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()
	defer func() {
		if r := recover(); r != nil {
			cleanup()
			panic(r)
		}
	}()
	o, err := run(e)
	cleanup()
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	report(*workload, e.trace, o)
}

func fatalf(format string, args ...any) {
	stopDaemons()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// perLayer is every metric a traced run reports, on every workload. A
// layer or phase a workload does not exercise reads 0 (for instance the
// lazyetld layer outside dashboard-http); README.md says which is which.
var perLayer = []metric{
	{"failed_frac", "ratio", 0},
	{"repeat_share", "ratio", 0},
	{"max_rate_qps", "1/s", 0},
	{"lat_p50_ms.low", "ms", 0}, {"lat_p99_ms.low", "ms", 0},
	{"lat_p50_ms.mid", "ms", 0}, {"lat_p99_ms.mid", "ms", 0},
	{"lat_p50_ms.high", "ms", 0}, {"lat_p99_ms.high", "ms", 0},
	{"gen_lag_p99_ms", "ms", 0},
	{"backlog", "count", 0},
	{"trace.overhead_pct", "%", 0},
	{"trace.requests", "count", 0},
	{"replay.wall_ms", "ms", 0},
	{"replay.attributed_ratio", "ratio", 0},
	{"lazyetld.overhead_ms_p50", "ms", 0},
	{"lazyetld.overhead_ms_p99", "ms", 0},
	{"lazyetld.resp_bytes_per_row", "B", 0},
	{"lazyetld.rejected", "count", 0},
	{"warehouse.result_hit_ratio", "ratio", 0},
	{"warehouse.plan_hit_ratio", "ratio", 0},
	{"warehouse.result_hit_us", "us", 0},
	{"warehouse.refresh_ms", "ms", 0},
	{"warehouse.queries_overlapping_refresh", "count", 0},
	{"sql.normalize_us", "us", 0},
	{"sql.parse_us", "us", 0},
	{"plan.build_us", "us", 0},
	{"plan.reorder_us", "us", 0},
	{"plan.exec_self_ms", "ms/req", 0},
	{"plan.prune_ratio", "ratio", 0},
	{"exec.pipelines", "count/req", 0},
	{"exec.fallbacks", "count/req", 0},
	{"exec.morsels", "count/req", 0},
	{"exec.agg_groups", "count/req", 0},
	{"exec.sort_rows", "count/req", 0},
	{"exec.join_probe_rows", "count/req", 0},
	{"exec.bytes_spilled", "B", 0},
	{"etl.extract_ms", "ms/req", 0},
	{"etl.prefetch_stall_ms", "ms/req", 0},
	{"etl.records_per_run", "ratio", 0},
	{"etl.bytes_read_per_sample", "B", 0},
	{"etl.load_metadata_ms", "ms", 0},
	{"repo.open_ms", "ms", 0},
	{"mseed.decode_ns_per_sample", "ns", 0},
	{"mseed.header_scan_ms", "ms", 0},
	{"recycler.hit_ratio", "ratio", 0},
	{"recycler.evictions", "count/req", 0},
	{"recycler.invalidations", "count", 0},
	{"recycler.used_mb", "MB", 0},
	{"mem.high_water_mb", "MB", 0},
	{"mem.denials", "count", 0},
	{"seismic.detect_ms", "ms", 0},
}

// report prints the human-readable summary and then the result line: the
// end-to-end metrics, or in a traced run every per-layer metric.
func report(workload string, trace bool, o *outcome) {
	for _, n := range o.notes {
		fmt.Println("# " + n)
	}
	o.detail("failed_frac", "ratio", ratio(float64(o.failed), float64(o.attempted)))
	out := o.metrics
	if trace {
		got := map[string]metric{}
		for _, m := range o.details {
			got[m.name] = m
		}
		out = nil
		for _, m := range perLayer {
			if g, ok := got[m.name]; ok {
				m = g
			}
			out = append(out, m)
		}
	} else {
		for _, m := range o.details {
			fmt.Printf("#   (detail) %-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	names := make([]string, 0, len(out))
	byName := map[string]metric{}
	for _, m := range out {
		names = append(names, m.name)
		byName[m.name] = m
	}
	sort.Strings(names)
	fmt.Printf("# %s: %d requests attempted, %d failed, %d wrong\n", workload, o.attempted, o.failed, o.wrong)
	for _, n := range names {
		fmt.Printf("#   %-36s %14.6g %s\n", n, byName[n].value, byName[n].unit)
	}
	if o.wrongNote != "" {
		fmt.Fprintln(os.Stderr, "perfbench: "+strings.ReplaceAll(o.wrongNote, "\n", "\n  "))
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range out {
		ms[m.name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.wrong == 0, o.attempted, o.failed, ms})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}
