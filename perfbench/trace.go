package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/etl"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/sql"
	"repro/internal/warehouse"
)

// tracer records spans from the benchmark's own files, around calls into
// the program's public functions. Spans stay in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// finish computes every span's self time: its duration minus the part of
// it its children's (merged) intervals cover.
func (t *tracer) finish() {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSource wraps the lazy ETL engine as the plan's extraction source
// and times every Extract, ExtractStream and BatchSource.Next call.
type tracedSource struct {
	eng    *etl.Engine
	t      *tracer
	parent int
}

func (s *tracedSource) Extract(meta *column.Batch, prune *plan.PruneRange, obs plan.Observer) (*column.Batch, error) {
	id := s.t.begin("etl.Extract", s.parent)
	defer s.t.end(id)
	return s.eng.Extract(meta, prune, obs)
}

func (s *tracedSource) ExtractStream(meta *column.Batch, prune *plan.PruneRange, obs plan.Observer, morselRows int, led *mem.Ledger) (exec.BatchSource, error) {
	id := s.t.begin("etl.ExtractStream", s.parent)
	src, err := s.eng.ExtractStream(meta, prune, obs, morselRows, led)
	s.t.end(id)
	if src == nil || err != nil {
		return src, err
	}
	return &tracedBatches{src: src, t: s.t, parent: s.parent}, nil
}

type tracedBatches struct {
	src    exec.BatchSource
	t      *tracer
	parent int
}

func (b *tracedBatches) Next() (exec.Morsel, bool, error) {
	id := b.t.begin("etl.Next", b.parent)
	defer b.t.end(id)
	return b.src.Next()
}

func (b *tracedBatches) Close() { b.src.Close() }

// RowsServed keeps the extract accounting of a streaming source intact.
func (b *tracedBatches) RowsServed() int64 {
	if c, ok := b.src.(plan.RowsServedCounter); ok {
		return c.RowsServed()
	}
	return 0
}

// traceSpec is what the traced run of a workload replays.
type traceSpec struct {
	dir       string
	opts      warehouse.Options
	reqs      []*request
	templates []string
	d         time.Duration // length of the untraced entry-point pass
	// land, when set, lands new data; every refreshEvery requests the
	// entry-point passes call it, Refresh, and run the probe it returns.
	land         func() (*request, error)
	refreshEvery int
}

// layerTrace runs the traced part of a workload: an untraced and a traced
// entry-point pass over the same requests (their difference is the tracing
// overhead), then the layer replay of those requests through the modules'
// public functions.
func layerTrace(e *env, o *outcome, ts traceSpec) error {
	// Untraced entry-point pass: fixes how many requests the passes replay.
	w, err := warehouse.Open(ts.dir, ts.opts)
	if err != nil {
		return err
	}
	c, err := newLibClient(w, ts.templates)
	if err != nil {
		return err
	}
	t0 := time.Now()
	n := 0
	for ; n < len(ts.reqs) && time.Since(t0) < ts.d; n++ {
		if err := maybeRefresh(c, ts, n, o, nil, 0); err != nil {
			return err
		}
		c.do(ts.reqs[n], o)
	}
	untraced := time.Since(t0)
	reqs := ts.reqs[:n]

	// Traced entry-point pass.
	tr := newTracer()
	root := tr.begin("entry-pass", 0)
	id := tr.begin("warehouse.Open", root)
	w, err = warehouse.Open(ts.dir, ts.opts)
	tr.end(id)
	if err != nil {
		return err
	}
	if c, err = newLibClient(w, ts.templates); err != nil {
		return err
	}
	init := w.InitStats()
	perRecord := ratio(float64(init.Samples), float64(init.Records))
	first := w.Stats()
	firstCache := w.Engine().Cache().Stats()
	var hitLat, detect, refreshes []float64
	t1 := time.Now()
	for i, r := range reqs {
		if err := maybeRefresh(c, ts, i, o, tr, root); err != nil {
			return err
		}
		before := w.Stats()
		name := "warehouse.Query"
		if r.prep >= 0 {
			name = "Prepared.Execute"
		}
		start := time.Now()
		id := tr.begin(name, root)
		res, err := c.execPlain(r)
		tr.end(id)
		var events []int64
		if err == nil && r.want.hunt {
			did := tr.begin("seismic.DetectEvents", root)
			events = huntResult(res.Batch)
			tr.end(did)
			detect = append(detect, ms(tr.dur(did)))
		}
		lat := time.Since(start)
		after := w.Stats()
		if after.QueryCache.ResultHits > before.QueryCache.ResultHits {
			hitLat = append(hitLat, float64(lat)/1e3)
		}
		var got *answer
		if err == nil {
			got, err = observe(res.Batch, &r.want)
			if err == nil && r.want.hunt {
				got.hunt, got.events = true, events
			}
		}
		o.count(r, got, err)
	}
	traced := time.Since(t1)
	tr.end(root)
	for _, s := range tr.spans {
		if s.Name == "warehouse.Refresh" {
			refreshes = append(refreshes, float64(s.End-s.Start)/1e6)
		}
	}
	last := w.Stats()
	lastCache := w.Engine().Cache().Stats()
	nf := float64(max(n, 1))
	qc0, qc1 := first.QueryCache, last.QueryCache
	x0, x1 := first.Extraction, last.Extraction
	e0, e1 := first.Exec, last.Exec
	decoded := float64(x1.Extractions-x0.Extractions) * perRecord
	o.detail("trace.overhead_pct", "%", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds())
	o.detail("trace.requests", "count", float64(n))
	o.detail("warehouse.result_hit_ratio", "ratio", ratio(float64(qc1.ResultHits-qc0.ResultHits), nf))
	o.detail("warehouse.plan_hit_ratio", "ratio", ratio(float64(qc1.PlanHits-qc0.PlanHits), float64(qc1.PlanHits-qc0.PlanHits+qc1.PlanMisses-qc0.PlanMisses)))
	o.detail("warehouse.result_hit_us", "us", zeroNaN(median(hitLat)))
	o.detail("exec.pipelines", "count/req", float64(e1.Pipelines-e0.Pipelines)/nf)
	o.detail("exec.fallbacks", "count/req", float64(e1.PipelineFallbacks-e0.PipelineFallbacks)/nf)
	o.detail("exec.morsels", "count/req", float64(e1.PipelineMorsels-e0.PipelineMorsels)/nf)
	o.detail("exec.agg_groups", "count/req", float64(e1.AggGroups-e0.AggGroups)/nf)
	o.detail("exec.sort_rows", "count/req", float64(e1.SortRows-e0.SortRows)/nf)
	o.detail("exec.join_probe_rows", "count/req", float64(e1.JoinProbeRows-e0.JoinProbeRows)/nf)
	o.detail("exec.bytes_spilled", "B", float64(e1.BytesSpilled-e0.BytesSpilled))
	o.detail("etl.prefetch_stall_ms", "ms/req", float64(x1.PrefetchStallNanos-x0.PrefetchStallNanos)/1e6/nf)
	o.detail("etl.records_per_run", "ratio", ratio(float64(x1.RunRecords-x0.RunRecords), float64(x1.RunsRead-x0.RunsRead)))
	o.detail("etl.bytes_read_per_sample", "B", ratio(float64(x1.BytesRead-x0.BytesRead), decoded))
	o.detail("mseed.decode_ns_per_sample", "ns", ratio(float64(x1.DecodeNanos-x0.DecodeNanos), decoded))
	o.detail("recycler.hit_ratio", "ratio", ratio(float64(lastCache.Hits-firstCache.Hits), float64(lastCache.Hits-firstCache.Hits+lastCache.Misses-firstCache.Misses)))
	o.detail("recycler.evictions", "count/req", float64(lastCache.Evictions-firstCache.Evictions)/nf)
	o.detail("recycler.invalidations", "count", float64(lastCache.Invalidations-firstCache.Invalidations))
	o.detail("recycler.used_mb", "MB", float64(last.CacheBytes)/(1<<20))
	o.detail("mem.high_water_mb", "MB", float64(last.Mem.HighWater)/(1<<20))
	o.detail("mem.denials", "count", float64(last.Mem.Denials-first.Mem.Denials))
	o.detail("seismic.detect_ms", "ms", zeroNaN(median(detect)))
	if len(refreshes) > 0 {
		o.note("traced entry pass: %d refreshes, median %.2f ms", len(refreshes), median(refreshes))
	}
	o.note("traced entry pass: %d requests, %.3f s untraced vs %.3f s traced", n, untraced.Seconds(), traced.Seconds())

	if err := replay(e, o, ts, reqs, tr); err != nil {
		return err
	}
	tr.finish()
	return tr.write(e.spanOut)
}

// execPlain runs a request without detection.
func (c *libClient) execPlain(r *request) (*warehouse.Result, error) {
	q := *r
	q.want.hunt = false
	res, _, err := c.exec(&q)
	return res, err
}

func maybeRefresh(c *libClient, ts traceSpec, i int, o *outcome, tr *tracer, root int) error {
	if ts.land == nil || i == 0 || i%ts.refreshEvery != 0 {
		return nil
	}
	probe, err := ts.land()
	if err != nil {
		return err
	}
	var id int
	if tr != nil {
		id = tr.begin("warehouse.Refresh", root)
	}
	_, err = c.w.Refresh()
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		return err
	}
	c.do(probe, o)
	return nil
}

func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// replay runs reqs through the modules' public functions, layer by layer:
// repo.Open, etl.New + LoadMetadata, then per request sql.Normalize,
// sql.ParseTemplate + BindParams, plan.Build, plan.ReorderJoins and
// plan.Execute over a timed extraction source. Its answers are checked
// against the same reference as the end-to-end run.
func replay(e *env, o *outcome, ts traceSpec, reqs []*request, tr *tracer) error {
	root := tr.begin("replay", 0)
	id := tr.begin("repo.Open", root)
	rp, err := repo.Open(ts.dir)
	tr.end(id)
	if err != nil {
		return err
	}
	o.detail("repo.open_ms", "ms", ms(tr.dur(id)))
	id = tr.begin("mseed.ScanFile", root)
	for _, f := range rp.Files {
		if _, err := mseed.ScanFile(f.AbsPath); err != nil {
			return err
		}
	}
	tr.end(id)
	o.detail("mseed.header_scan_ms", "ms", ms(tr.dur(id)))
	id = tr.begin("etl.LoadMetadata", root)
	store := catalog.NewStore(catalog.MSEED())
	eng := etl.New(rp, store, ts.opts.ETL)
	_, err = eng.LoadMetadata()
	tr.end(id)
	if err != nil {
		return err
	}
	o.detail("etl.load_metadata_ms", "ms", ms(tr.dur(id)))
	ledger := mem.New(ts.opts.MemoryBudget)
	eng.Cache().AttachLedger(ledger)
	pool := exec.NewPoolMorsel(ts.opts.Workers, ts.opts.MorselRows)
	var stats plan.ExecStats
	x0 := eng.ExtractionStats()

	var normalize, parse, build, reorder, self, extract []float64
	var wall time.Duration
	for _, r := range reqs {
		rq := tr.begin("request", root)
		b, err := layered(tr, rq, r, ts, store, eng, pool, ledger, &stats)
		tr.end(rq)
		wall += tr.dur(rq)
		var got *answer
		if err == nil {
			got, err = observe(b, &r.want)
			if err == nil && r.want.hunt {
				got.hunt, got.events = true, huntResult(b)
			}
		}
		o.count(r, got, err)
	}
	tr.end(root)
	tr.finish()
	var attributed int64
	perReq := map[int]map[string]float64{}
	for _, s := range tr.spans {
		if s.Parent == 0 || s.Start < tr.spans[root-1].Start {
			continue
		}
		p := tr.spans[s.Parent-1]
		if p.Name == "plan.Execute" {
			p = tr.spans[p.Parent-1] // source spans sit under plan.Execute
		}
		if p.Name != "request" {
			continue
		}
		attributed += s.Self
		m := perReq[p.ID]
		if m == nil {
			m = map[string]float64{}
			perReq[p.ID] = m
		}
		m[s.Name] += float64(s.Self)
	}
	for _, m := range perReq {
		if v, ok := m["sql.Normalize"]; ok {
			normalize = append(normalize, v/1e3)
		}
		parse = append(parse, (m["sql.ParseTemplate"]+m["sql.BindParams"])/1e3)
		build = append(build, m["plan.Build"]/1e3)
		reorder = append(reorder, m["plan.ReorderJoins"]/1e3)
		self = append(self, m["plan.Execute"]/1e6)
		extract = append(extract, (m["etl.Extract"]+m["etl.ExtractStream"]+m["etl.Next"])/1e6)
	}
	x1 := eng.ExtractionStats()
	o.detail("sql.normalize_us", "us", zeroNaN(median(normalize)))
	o.detail("sql.parse_us", "us", median(parse))
	o.detail("plan.build_us", "us", median(build))
	o.detail("plan.reorder_us", "us", median(reorder))
	o.detail("plan.exec_self_ms", "ms/req", mean(self))
	o.detail("etl.extract_ms", "ms/req", mean(extract))
	o.detail("plan.prune_ratio", "ratio", ratio(float64(x1.RecordsSkipped-x0.RecordsSkipped),
		float64(x1.RecordsSkipped-x0.RecordsSkipped+x1.Extractions-x0.Extractions+x1.CacheReads-x0.CacheReads)))
	o.detail("replay.wall_ms", "ms", ms(wall))
	o.detail("replay.attributed_ratio", "ratio", ratio(float64(attributed), float64(wall)))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layered runs one request through the layers, each call in its own span
// under parent.
func layered(tr *tracer, parent int, r *request, ts traceSpec, store *catalog.Store, eng *etl.Engine, pool *exec.Pool, ledger *mem.Ledger, stats *plan.ExecStats) (*column.Batch, error) {
	template := r.sql
	var params []column.Value
	if r.prep >= 0 {
		template = ts.templates[r.prep]
		for _, p := range r.params {
			params = append(params, column.NewString(p))
		}
	} else {
		id := tr.begin("sql.Normalize", parent)
		n, err := sql.Normalize(r.sql)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		template, params = n.Template, n.Params
	}
	id := tr.begin("sql.ParseTemplate", parent)
	stmt, err := sql.ParseTemplate(template)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("sql.BindParams", parent)
	bound, err := sql.BindParams(stmt, params)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	snap := store.Snapshot()
	id = tr.begin("plan.Build", parent)
	plans, err := plan.Build(bound, snap.Catalog(), ts.opts.Mode)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("plan.ReorderJoins", parent)
	root := plans.Root
	if ro, info := plan.ReorderJoins(root, snap); info != nil && info.Reordered {
		root = ro
	}
	tr.end(id)
	id = tr.begin("plan.Execute", parent)
	qm := exec.NewQueryMem(ledger.Child(0), "")
	defer qm.Cleanup()
	out, err := plan.Execute(root, &plan.Env{Store: snap, Source: &tracedSource{eng: eng, t: tr, parent: id}, Pool: pool, Mem: qm, Stats: stats})
	tr.end(id)
	if err == nil && r.want.hunt {
		did := tr.begin("seismic.DetectEvents", parent)
		huntResult(out)
		tr.end(did)
	}
	return out, err
}
