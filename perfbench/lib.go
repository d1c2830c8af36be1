package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/column"
	"repro/internal/etl"
	"repro/internal/mseed"
	"repro/internal/seisgen"
	"repro/internal/warehouse"
)

// rounds is how many slices a run's measured time is cut into. Set-up and
// freshness are measured between the slices, perRound times each, so every
// figure averages the host's state over the whole run rather than over one
// moment of it.
const (
	rounds   = 6
	perRound = 4
)

// libClient runs requests through the warehouse library in-process.
type libClient struct {
	w    *warehouse.Warehouse
	prep []*warehouse.Prepared
}

func newLibClient(w *warehouse.Warehouse, templates []string) (*libClient, error) {
	c := &libClient{w: w}
	for _, t := range templates {
		p, err := w.Prepare(t)
		if err != nil {
			return nil, err
		}
		c.prep = append(c.prep, p)
	}
	return c, nil
}

// exec runs one request and returns its result; a hunt's detection runs
// inside the timed call.
func (c *libClient) exec(r *request) (*warehouse.Result, []int64, error) {
	var res *warehouse.Result
	var err error
	if r.prep >= 0 {
		ps := make([]column.Value, len(r.params))
		for i, p := range r.params {
			ps[i] = column.NewString(p)
		}
		res, err = c.prep[r.prep].Execute(ps...)
	} else {
		res, err = c.w.Query(r.sql)
	}
	if err != nil || !r.want.hunt {
		return res, nil, err
	}
	return res, huntResult(res.Batch), nil
}

func huntResult(b *column.Batch) []int64 {
	tc, ok1 := b.Col("D.sample_time")
	vc, ok2 := b.Col("D.sample_value")
	if !ok1 || !ok2 {
		return nil
	}
	return detect(tc.Int64s(), vc.Float64s())
}

// do runs, times and checks one request.
func (c *libClient) do(r *request, o *outcome) (time.Duration, bool) {
	t := time.Now()
	res, events, err := c.exec(r)
	lat := time.Since(t)
	var got *answer
	if err == nil {
		got, err = observe(res.Batch, &r.want)
		if err == nil && r.want.hunt {
			got.hunt, got.events = true, events
		}
	}
	return lat, o.count(r, got, err)
}

// loop accumulates a closed loop's latencies (ms) over its slices.
type loop struct {
	lat     []float64
	byClass map[string][]float64
	busy    time.Duration // time spent waiting on the requests
	n       int
	block   int // requests per block of the reported figures, whole pattern cycles
}

// blockReqs is the closed loops' block: 200 requests, ten beyond a block's
// p95, and whole cycles of every workload's 10- or 20-request pattern.
const blockReqs = 200

func newLoop(period int) *loop {
	return &loop{byClass: map[string][]float64{}, block: blockReqs / period * period}
}

// add records one request's latency.
func (lp *loop) add(class string, l time.Duration) {
	lp.lat = append(lp.lat, ms(l))
	lp.busy += l
	lp.byClass[class] = append(lp.byClass[class], ms(l))
	lp.n++
}

// closedLoop sends the stream's next requests one after another until d
// elapses; each, when set, sees every request's start and end.
func (c *libClient) closedLoop(reqs []*request, d time.Duration, o *outcome, lp *loop, each func(start, end time.Time)) {
	t0 := time.Now()
	for lp.n < len(reqs) && time.Since(t0) < d {
		r := reqs[lp.n]
		s := time.Now()
		l, _ := c.do(r, o)
		lp.add(r.class, l)
		if each != nil {
			each(s, s.Add(l))
		}
	}
}

func (lp *loop) classNotes(o *outcome) {
	for _, k := range sortedKeys(lp.byClass) {
		v := lp.byClass[k]
		o.note("class %-9s %5d requests: p50 %8.3f ms, p90 %8.3f ms, max %8.3f ms", k, len(v), median(v), quantile(v, 0.9), quantile(v, 1))
	}
}

func (lp *loop) notes(o *outcome, reqs []*request) {
	lp.classNotes(o)
	if lp.n == len(reqs) {
		o.note("request stream exhausted before the measured time ended")
	}
	o.note("repeat share %.4f over %d requests", repeatShare(reqs[:lp.n]), lp.n)
	o.detail("repeat_share", "ratio", repeatShare(reqs[:lp.n]))
	tailNote(o, lp.lat)
}

// addQueries reports the latency and throughput figures of a closed loop.
// Throughput counts only the time spent waiting on requests, not the
// benchmark's own answer checks between them. The loop is cut into blocks
// of whole pattern cycles, each holding the same mix of classes, and every
// figure is the one the slower quarter of the blocks reach (see
// slowQuartile): the third quartile of the blocks' p50 and p95, the first
// quartile of their throughput. The figures over the whole loop are
// printed as details.
func (lp *loop) addQueries(o *outcome) {
	p50, p95, rate := blockStats(lp.lat, lp.block)
	o.add("query_p50_ms", "ms", slowQuartile(p50))
	o.add("query_p95_ms", "ms", slowQuartile(p95))
	o.add("queries_per_s", "1/s", quantile(rate, 0.25))
	o.detail("query_p50_ms.overall", "ms", median(lp.lat))
	o.detail("query_p95_ms.overall", "ms", quantile(lp.lat, 0.95))
	o.detail("query_p99_ms.overall", "ms", quantile(lp.lat, 0.99))
	o.detail("queries_per_s.overall", "1/s", float64(lp.n)/lp.busy.Seconds())
}

// openTimed measures one set-up: warehouse.Open on a fresh warehouse, and
// Open plus its first answer.
func openTimed(dir string, opts warehouse.Options, first *request, o *outcome) (setup, firstAnswer float64, err error) {
	runtime.GC()
	t := time.Now()
	w, err := warehouse.Open(dir, opts)
	if err != nil {
		return 0, 0, err
	}
	setup = time.Since(t).Seconds()
	c := &libClient{w: w}
	c.do(first, o)
	return setup, time.Since(t).Seconds(), nil
}

// lander lands new data in a repository the way an ingest pipeline does:
// each call appends landChunk samples to a series-day file, rewritten
// atomically (write aside, rename into place), and returns the probe
// request that sees exactly the new samples, and the file's path.
type lander struct {
	root string
	seed int64
	grow map[string]*growing
}

type growing struct {
	day     time.Time
	samples []int32
	written int
}

// landChunk is the samples a landing adds: ten minutes at 1 Hz.
const landChunk = 600

func newLander(root string, seed int64) *lander {
	return &lander{root: root, seed: seed, grow: map[string]*growing{}}
}

func (l *lander) land(st seisgen.Station, channel string, day int) (*request, string, error) {
	key := fmt.Sprintf("%s.%s.%d", st.Code, channel, day)
	g := l.grow[key]
	if g == nil {
		g = &growing{day: day0.AddDate(0, 0, day)}
		g.samples = seisgen.Waveform(seisgen.WaveformConfig{
			NumSamples: 86400, NoiseAmp: 40, DriftAmp: 200,
			Seed: l.seed*1000003 + int64(len(l.grow)),
		})
		l.grow[key] = g
	}
	if g.written+landChunk > len(g.samples) {
		return nil, "", fmt.Errorf("series %s is full", key)
	}
	from := g.written
	g.written += landChunk
	path := filepath.Join(l.root, seisgen.FilePath(st, channel, g.day))
	opts := mseed.SeriesOptions{Network: st.Network, Station: st.Code, Channel: channel, SampleRate: 1}
	if _, err := mseed.WriteSeriesFile(path+".part", opts, g.day, g.samples[:g.written]); err != nil {
		return nil, "", err
	}
	if err := os.Rename(path+".part", path); err != nil {
		return nil, "", err
	}
	lo := g.day.UnixNano() + int64(from)*sec
	hi := lo + landChunk*sec
	var sum float64
	for _, v := range g.samples[from:g.written] {
		sum += float64(v)
	}
	q := fmt.Sprintf("SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview WHERE F.station = '%s' AND F.channel = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'",
		st.Code, channel, ts(lo), ts(hi))
	return &request{class: "probe", sql: q, prep: -1, want: answer{cells: [][]cell{{intCell(landChunk), floatCell(sum / landChunk)}}}}, path, nil
}

// refreshAndProbe makes landed data visible through Refresh and queries
// until the probe's answer includes it. It returns the Refresh time and
// the freshness: from the end of the file write to the first answer that
// includes the new samples.
func refreshAndProbe(w *warehouse.Warehouse, probe *request, landed time.Time, o *outcome) (time.Duration, time.Duration, error) {
	t := time.Now()
	if _, err := w.Refresh(); err != nil {
		return 0, 0, err
	}
	refresh := time.Since(t)
	c := &libClient{w: w}
	for {
		res, _, err := c.exec(probe)
		if err != nil {
			o.count(probe, nil, err)
			return refresh, 0, err
		}
		got, err := observe(res.Batch, &probe.want)
		if err == nil && got.equal(&probe.want) || time.Since(landed) > 5*time.Second {
			fresh := time.Since(landed)
			o.count(probe, got, err)
			return refresh, fresh, nil
		}
	}
}

// freshOnce lands a new series-day file, measures its freshness through
// Refresh, then takes it away again so the repository keeps its size.
func freshOnce(w *warehouse.Warehouse, l *lander, st seisgen.Station, day int, o *outcome) (fresh, refresh float64, err error) {
	probe, path, err := l.land(st, "BHZ", day)
	if err != nil {
		return 0, 0, err
	}
	r, f, err := refreshAndProbe(w, probe, time.Now(), o)
	if err != nil {
		return 0, 0, err
	}
	if err := os.Remove(path); err != nil {
		return 0, 0, err
	}
	if _, err := w.Refresh(); err != nil {
		return 0, 0, err
	}
	return ms(f), ms(r), nil
}

// mix expands a cyclic class pattern into a request stream.
func mix(pattern []string, n int, mk map[string]func() *request) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = mk[pattern[i%len(pattern)]]()
	}
	return out
}

// settle hands the memory generation used back to the system before the
// measured rounds start.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func stations() []seisgen.Station { return seisgen.DefaultStations }

// firstWindows draws the fresh Q1 windows the set-up repetitions answer.
func firstWindows(g *streamGen, lo, hi int64, minDur, maxDur int64) []*request {
	out := make([]*request, rounds*perRound)
	for i := range out {
		out[i] = g.window(lo, hi, minDur, maxDur)
	}
	return out
}

// archiveCold: a 4-day, 1 Hz archive several times larger than the
// recycler budget, queried by one closed-loop client with fresh literals.
func archiveCold(e *env) (*outcome, error) {
	const days = 4
	const budget = 16 << 20
	o := &outcome{}
	a, err := generate(e.dir, e.seed, days)
	if err != nil {
		return nil, err
	}
	if a.decodedBytes() < 3*budget {
		return nil, fmt.Errorf("size guard: decoded working set %d B is under 3x the %d B recycler budget", a.decodedBytes(), budget)
	}
	o.note("size guard: decoded working set %.1f MiB = %.1fx the %d MiB recycler budget (%d files, %d samples, %.1f MiB on disk)",
		float64(a.decodedBytes())/(1<<20), float64(a.decodedBytes())/budget, budget>>20, len(a.files), a.samples, float64(a.bytes)/(1<<20))
	opts := warehouse.Options{Mode: warehouse.Lazy, ETL: etl.Options{CacheBudget: budget}}
	lo, hi := day0.UnixNano(), day0.AddDate(0, 0, days).UnixNano()

	g := newStreamGen(e.seed, a)
	firsts := firstWindows(g, lo, hi, 600*sec, 4*3600*sec)
	mk := map[string]func() *request{
		"window":    func() *request { return g.window(lo, hi, 600*sec, 4*3600*sec) },
		"daygroup":  func() *request { return g.group("daygroup", lo, hi, 86400*sec) },
		"threshold": g.threshold,
		"hunt":      func() *request { return g.raw("hunt", lo, hi, 6*3600*sec, "BHZ", true) },
	}
	pattern := []string{
		"window", "window", "daygroup", "window", "threshold", "window", "hunt", "window", "window", "window",
		"window", "threshold", "window", "window", "hunt", "window", "daygroup", "window", "threshold", "window",
	}
	reqs := mix(pattern, int(e.seconds*150)+200, mk)

	settle()
	w, err := warehouse.Open(e.dir, opts)
	if err != nil {
		return nil, err
	}
	c := &libClient{w: w}
	lp := newLoop(len(pattern))
	l := newLander(e.dir, e.seed)
	var setup, first, fresh, refresh []float64
	rss := &peakRounds{pid: "self"}
	for r := 0; r < rounds; r++ {
		rss.start()
		c.closedLoop(reqs, e.dur(e.e2eShare())/rounds, o, lp, nil)
		for k := 0; k < perRound; k++ {
			i := r*perRound + k
			s, f, err := openTimed(e.dir, opts, firsts[i], o)
			if err != nil {
				return nil, err
			}
			fr, rf, err := freshOnce(w, l, stations()[i%len(stations())], days+i, o)
			if err != nil {
				return nil, err
			}
			setup, first = append(setup, s), append(first, f)
			fresh, refresh = append(fresh, fr), append(refresh, rf)
		}
		if err := rss.end(); err != nil {
			return nil, err
		}
	}
	lp.notes(o, reqs)
	o.detail("warehouse.refresh_ms", "ms", median(refresh))
	if e.trace {
		if err := layerTrace(e, o, traceSpec{dir: e.dir, opts: opts, reqs: reqs, d: e.dur(0.15)}); err != nil {
			return nil, err
		}
	}
	st := w.Stats()
	o.note("recycler after run: %s (%.1f MiB used)", st.CacheStats, float64(st.CacheBytes)/(1<<20))
	o.add("setup_s", "s", median(setup))
	o.add("first_answer_s", "s", slowQuartile(first))
	o.add("fresh_ms", "ms", slowQuartile(fresh))
	lp.addQueries(o)
	o.add("peak_rss_mb", "MB", rss.median(o))
	return o, nil
}

// ingestRefresh: a 2-day archive queried by one closed-loop client while a
// writer in the same process lands ten minutes of new samples every tick,
// calls Refresh and probes until the new samples are visible.
func ingestRefresh(e *env) (*outcome, error) {
	const days = 2
	o := &outcome{}
	a, err := generate(e.dir, e.seed, days)
	if err != nil {
		return nil, err
	}
	opts := warehouse.Options{Mode: warehouse.Lazy}
	lo, hi := day0.UnixNano(), day0.AddDate(0, 0, days).UnixNano()
	g := newStreamGen(e.seed, a)
	firsts := firstWindows(g, lo, hi, 600*sec, 4*3600*sec)
	mk := map[string]func() *request{
		"window": func() *request { return g.window(lo, hi, 600*sec, 4*3600*sec) },
		"group":  func() *request { return g.group("group", lo, hi, 2*3600*sec) },
	}
	pattern := []string{"window", "window", "window", "group", "window", "window", "window", "window", "group", "window"}
	reqs := mix(pattern, int(e.seconds*800)+200, mk)
	warm := fullScan(a)

	settle()
	w, err := warehouse.Open(e.dir, opts)
	if err != nil {
		return nil, err
	}
	c := &libClient{w: w}
	c.do(warm, o)
	lp := newLoop(len(pattern))
	wr := &writer{l: newLander(e.dir, e.seed), days: days}
	res := &ingestResult{}
	var setup, first []float64
	rss := &peakRounds{pid: "self"}
	for r := 0; r < rounds; r++ {
		rss.start()
		if err := ingestLoop(c, wr, reqs, e.dur(e.e2eShare())/rounds, o, lp, res); err != nil {
			return nil, err
		}
		for k := 0; k < perRound; k++ {
			s, f, err := openTimed(e.dir, opts, firsts[r*perRound+k], o)
			if err != nil {
				return nil, err
			}
			setup, first = append(setup, s), append(first, f)
		}
		if err := rss.end(); err != nil {
			return nil, err
		}
	}
	lp.notes(o, reqs)
	o.note("%d refreshes; %d of %d queries overlapped a refresh", len(res.refresh), res.overlapping, lp.n)
	o.detail("warehouse.refresh_ms", "ms", median(res.refresh))
	o.detail("warehouse.queries_overlapping_refresh", "count", float64(res.overlapping))
	if e.trace {
		l := newLander(e.dir, e.seed+1)
		k := 0
		land := func() (*request, error) {
			k++
			probe, _, err := l.land(stations()[3], "BHZ", days+30+(k-1)/(86400/landChunk))
			return probe, err
		}
		err := layerTrace(e, o, traceSpec{dir: e.dir, opts: opts, reqs: reqs, d: e.dur(0.15), land: land, refreshEvery: 40})
		if err != nil {
			return nil, err
		}
	}
	st := w.Stats()
	o.note("recycler after run: %s", st.CacheStats)
	o.add("setup_s", "s", median(setup))
	o.add("first_answer_s", "s", slowQuartile(first))
	o.add("fresh_ms", "ms", slowQuartile(res.fresh))
	lp.addQueries(o)
	o.add("peak_rss_mb", "MB", rss.median(o))
	return o, nil
}

// fullScan reads every sample once; it warms the recycler before timing.
func fullScan(a *archive) *request {
	g := newAgg()
	for _, s := range a.files {
		g.merge(s.agg(0, len(s.values)))
	}
	return &request{class: "warm", sql: "SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview", prep: -1,
		want: answer{cells: [][]cell{aggRow(g)}}}
}

type ingestResult struct {
	fresh, refresh []float64
	overlapping    int
}

// landEvery is the writer's tick.
const landEvery = 100 * time.Millisecond

// writer grows three series, a chunk a tick, a day file each, then moves
// on to the next day.
type writer struct {
	l     *lander
	days  int
	ticks int
}

func (wr *writer) land() (*request, error) {
	i := wr.ticks
	wr.ticks++
	series := i % 3
	probe, _, err := wr.l.land(stations()[series], seisgen.DefaultChannels[series], wr.days+i/(3*86400/landChunk))
	return probe, err
}

// ingestLoop runs the closed-loop client and the writer side by side for d.
func ingestLoop(c *libClient, wr *writer, reqs []*request, d time.Duration, o *outcome, lp *loop, res *ingestResult) error {
	var wo outcome
	var werr error
	var refreshes [][2]time.Time
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(landEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			probe, err := wr.land()
			if err != nil {
				werr = err
				return
			}
			landed := time.Now()
			r, f, err := refreshAndProbe(c.w, probe, landed, &wo)
			if err != nil {
				werr = err
				return
			}
			res.fresh = append(res.fresh, ms(f))
			res.refresh = append(res.refresh, ms(r))
			refreshes = append(refreshes, [2]time.Time{landed, landed.Add(r)})
		}
	}()
	var queries [][2]time.Time
	c.closedLoop(reqs, d, o, lp, func(s, t time.Time) {
		queries = append(queries, [2]time.Time{s, t})
	})
	close(done)
	wg.Wait()
	o.merge(&wo)
	if werr != nil {
		return werr
	}
	for _, q := range queries {
		for _, r := range refreshes {
			if q[0].Before(r[1]) && r[0].Before(q[1]) {
				res.overlapping++
				break
			}
		}
	}
	return nil
}
