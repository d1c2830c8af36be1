package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/seisgen"
	"repro/internal/warehouse"
)

// Offered rates of the dashboard-http open loop (requests per second), the
// p99 latency limit a rate must meet to count toward max_rate_qps, and the
// generator lateness beyond which a rate's figures do not count.
const (
	rateLow     = 100.0
	rateMid     = 200.0
	rateHigh    = 500.0
	p99LimitMs  = 50.0
	maxGenLagMs = 25.0
	conns       = 2
	// closedRate sizes the closed loop: it sends its share of the run's
	// time times this many requests, about what one connection completes
	// on the machine the benchmark was sized on. A fixed count rather than
	// a fixed time keeps the daemon's cache contents, and so its memory,
	// independent of how fast the host happens to run.
	closedRate = 1000.0
)

// tileTemplate is the prepared statement behind the dashboard's tiles.
const tileTemplate = "SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value), AVG(D.sample_value) FROM mseed.dataview WHERE F.station = ? AND F.channel = ? AND D.sample_time >= ? AND D.sample_time < ?"

// dashboardStream builds the dashboard mix: repeated tiles (prepared) and
// repeated ad-hoc panels that the result cache serves, fresh short windows
// over recycler-resident data, metadata joins, and raw-sample ranges of
// about a thousand rows.
func dashboardStream(g *streamGen, n int) []*request {
	a := g.a
	lo, hi := day0.UnixNano(), day0.AddDate(0, 0, 1).UnixNano()
	var tiles, panels []*request
	for i := 0; i < 8; i++ {
		st, ch := g.pick(a.stations), g.pick(a.channels)
		h := g.second(lo, hi-3600*sec) / (3600 * sec) * (3600 * sec)
		s := a.aggOf(st, ch, h, h+3600*sec)
		row := []cell{intCell(s.n), {null: true}, {null: true}, {null: true}}
		if s.n > 0 {
			row = []cell{intCell(s.n), floatCell(s.min), floatCell(s.max), floatCell(s.sum / float64(s.n))}
		}
		tiles = append(tiles, &request{class: "tile", sql: tileTemplate, prep: 0,
			params: []string{st, ch, ts(h), ts(h + 3600*sec)}, want: answer{cells: [][]cell{row}}})
	}
	for i := 0; i < 6; i++ {
		ch := g.pick(a.channels)
		h := g.second(lo, hi-3600*sec) / (3600 * sec) * (3600 * sec)
		q := fmt.Sprintf("SELECT F.station, COUNT(*), AVG(D.sample_value) FROM mseed.dataview WHERE F.channel = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s' GROUP BY F.station ORDER BY F.station",
			ch, ts(h), ts(h+3600*sec))
		var want answer
		for _, st := range a.stations {
			if s := a.aggOf(st, ch, h, h+3600*sec); s.n > 0 {
				want.cells = append(want.cells, []cell{strCell(st), intCell(s.n), floatCell(s.sum / float64(s.n))})
			}
		}
		panels = append(panels, &request{class: "panel", sql: q, prep: -1, want: want})
	}
	mk := map[string]func() *request{
		"tile":     func() *request { return tiles[g.rng.Intn(len(tiles))] },
		"panel":    func() *request { return panels[g.rng.Intn(len(panels))] },
		"window":   func() *request { return g.window(lo, hi, 60*sec, 1800*sec) },
		"metajoin": func() *request { return g.metaJoin(lo, hi) },
		"raw":      func() *request { return g.raw("raw", lo, hi, 1000*sec, "", false) },
	}
	return mix(dashPattern, n, mk)
}

// dashPattern is the dashboard's cyclic class mix.
var dashPattern = []string{
	"tile", "window", "tile", "raw", "panel", "window", "tile", "metajoin", "window", "tile",
	"raw", "window", "tile", "panel", "metajoin", "window", "tile", "raw", "window", "metajoin",
}

// dashboardHTTP: a one-day archive that fits the recycler, served by a
// freshly started lazyetld and driven open-loop over two keep-alive
// connections at three fixed rates, then closed-loop over one. Each round
// runs a slice of every phase, then times daemon start-ups and freshness
// with separate daemon processes over the same repository.
//
// The end-to-end latencies and throughput come from the closed loop: with
// no queue in front of a request, a host stall slows that request alone,
// whereas at a fixed offered rate it also delays every request queued
// behind it, which makes the open loop's tail a measure of the host as much
// as of the program. The open loop's per-rate figures are per-layer
// metrics; a traced run, which reports no end-to-end metric, gives the open
// loop the closed loop's share too.
func dashboardHTTP(e *env) (*outcome, error) {
	// In the open loop two client connections decode responses on up to two
	// threads; spare scheduler slots keep the dispatcher on its schedule
	// while they do. The closed loop is one sequential client and runs on
	// one thread, so no request hops between client threads on its way.
	// The in-process traced passes get the default back, so the library
	// runs with the daemon's worker count.
	openProcs := runtime.NumCPU() + 2
	procs := runtime.GOMAXPROCS(openProcs)
	o := &outcome{}
	a, err := generate(e.dir, e.seed, 1)
	if err != nil {
		return nil, err
	}
	const shippedBudget = 256 << 20
	if a.decodedBytes() > shippedBudget/2 {
		return nil, fmt.Errorf("size guard: decoded working set %d B does not fit half the shipped %d B recycler budget", a.decodedBytes(), shippedBudget)
	}
	g := newStreamGen(e.seed, a)
	lo, hi := day0.UnixNano(), day0.AddDate(0, 0, 1).UnixNano()
	firsts := firstWindows(g, lo, hi, 60*sec, 1800*sec)
	slice := e.dur(e.e2eShare()) / rounds
	openSlice := slice / 2
	if e.trace {
		openSlice = slice
	}
	rates := []struct {
		name string
		rate float64
		d    time.Duration
	}{{"low", rateLow, openSlice * 20 / 100}, {"mid", rateMid, openSlice * 60 / 100}, {"high", rateHigh, openSlice * 20 / 100}}
	period := len(dashPattern)
	nClosed := int(closedRate*(slice-openSlice).Seconds()) / period * period
	nReq := 100
	for _, p := range rates {
		nReq += rounds * int(p.rate*p.d.Seconds())
	}
	nReq += rounds * (nClosed + period)
	reqs := dashboardStream(g, nReq)
	warm := fullScan(a)
	logPath := filepath.Join(e.dir, "lazyetld.log")

	settle()
	d, _, err := startDaemon(e.daemon, e.dir, logPath)
	if err != nil {
		return nil, err
	}
	clients := make([]*httpClient, conns)
	for i := range clients {
		clients[i] = newHTTPClient(d.base)
	}
	if err := clients[0].prepare([]string{tileTemplate}); err != nil {
		return nil, err
	}
	for _, c := range clients[1:] {
		c.ids = clients[0].ids
	}
	var mu sync.Mutex
	clients[0].do(warm, o, &mu)
	ev, _, err := clients[0].serverStats()
	if err != nil {
		return nil, err
	}
	if ev != 0 {
		return nil, fmt.Errorf("size guard: %d recycler evictions after warm-up; the dashboard must be cache-resident", ev)
	}
	o.note("size guard: decoded working set %.1f MiB fits the shipped %d MiB recycler; 0 evictions after warm-up",
		float64(a.decodedBytes())/(1<<20), shippedBudget>>20)

	next := 0
	take := func(k int) []*request {
		k = min(k, len(reqs)-next)
		out := reqs[next : next+k]
		next += k
		return out
	}
	phases := map[string]*phase{}
	closed := newLoop(period)
	var setup, first, fresh []float64
	l := newLander(e.dir, e.seed)
	rss := &peakRounds{pid: d.pid()}
	for r := 0; r < rounds; r++ {
		rss.start()
		for _, p := range rates {
			ph := openLoop(clients, take(int(p.rate*p.d.Seconds())), p.rate, p.d, o)
			if phases[p.name] == nil {
				phases[p.name] = &phase{byClass: map[string][]float64{}}
			}
			phases[p.name].merge(ph)
		}
		runtime.GOMAXPROCS(1)
		next = closedHTTP(clients[0], reqs, min(next+(period-next%period)%period, len(reqs)), nClosed, o, closed)
		runtime.GOMAXPROCS(openProcs)
		if err := rss.end(); err != nil {
			return nil, err
		}
		for k := 0; k < perRound; k++ {
			i := r*perRound + k
			s, f, err := daemonSetup(e, logPath, firsts[i], o)
			if err != nil {
				return nil, err
			}
			fr, err := daemonFresh(e, logPath, l, stations()[i%len(stations())], 1+i, o)
			if err != nil {
				return nil, err
			}
			setup, first, fresh = append(setup, s), append(first, f), append(fresh, fr)
		}
	}

	maxRate := 0.0
	var lag, overhead []float64
	var rows, bytes, backlog int64
	for _, p := range rates {
		ph := phases[p.name]
		for _, k := range sortedKeys(ph.byClass) {
			v := ph.byClass[k]
			o.note("  class %-9s %5d requests: p50 %8.3f ms, p90 %8.3f ms, p99 %8.3f ms", k, len(v), median(v), quantile(v, 0.9), quantile(v, 0.99))
		}
		p99 := quantile(ph.lat, 0.99)
		ok := ph.valid(conns) && p99 <= p99LimitMs
		if ok {
			maxRate = p.rate
		}
		o.note("rate %-4s %5.0f/s: p50 %.3f ms, p99 %.3f ms (%d samples), generator lag p99 %.3f ms, backlog %d, counts toward max rate: %v",
			p.name, p.rate, median(ph.lat), p99, len(ph.lat), quantile(ph.lag, 0.99), ph.backlog, ok)
		o.detail("lat_p50_ms."+p.name, "ms", median(ph.lat))
		o.detail("lat_p99_ms."+p.name, "ms", p99)
		lag = append(lag, ph.lag...)
		overhead = append(overhead, ph.overhead...)
		rows += ph.rows
		bytes += ph.bytes
		backlog = max(backlog, ph.backlog)
	}
	ev2, rejected, err := clients[0].serverStats()
	if err != nil {
		return nil, err
	}
	d.stop()
	o.note("recycler evictions after the run: %d; repeat share %.4f over %d requests", ev2, repeatShare(reqs[:next]), next)
	o.detail("max_rate_qps", "1/s", maxRate)
	o.detail("gen_lag_p99_ms", "ms", quantile(lag, 0.99))
	o.detail("backlog", "count", float64(backlog))
	o.detail("repeat_share", "ratio", repeatShare(reqs[:next]))
	o.detail("lazyetld.overhead_ms_p50", "ms", median(overhead))
	o.detail("lazyetld.overhead_ms_p99", "ms", quantile(overhead, 0.99))
	o.detail("lazyetld.resp_bytes_per_row", "B", ratio(float64(bytes), float64(rows)))
	o.detail("lazyetld.rejected", "count", float64(rejected))
	if e.trace {
		runtime.GOMAXPROCS(procs)
		err := layerTrace(e, o, traceSpec{dir: e.dir, opts: warehouse.Options{Mode: warehouse.Lazy},
			reqs: reqs, templates: []string{tileTemplate}, d: e.dur(0.15)})
		if err != nil {
			return nil, err
		}
	}

	o.add("setup_s", "s", median(setup))
	o.add("first_answer_s", "s", slowQuartile(first))
	o.add("fresh_ms", "ms", slowQuartile(fresh))
	if closed.n > 0 {
		o.note("closed loop, 1 connection:")
		closed.classNotes(o)
		closed.addQueries(o)
		tailNote(o, closed.lat)
	}
	o.add("peak_rss_mb", "MB", rss.median(o))
	return o, nil
}

// daemonSetup starts a separate lazyetld over the repository and times it
// to /readyz (setup) and to its first answer.
func daemonSetup(e *env, logPath string, firstReq *request, o *outcome) (setup, first float64, err error) {
	d, s, err := startDaemon(e.daemon, e.dir, logPath)
	if err != nil {
		return 0, 0, err
	}
	defer d.stop()
	t := time.Now()
	var mu sync.Mutex
	newHTTPClient(d.base).do(firstReq, o, &mu)
	return s.Seconds(), (s + time.Since(t)).Seconds(), nil
}

// daemonFresh lands a new series-day file and, since lazyetld sees new data
// only when it starts, starts a separate daemon and probes until the answer
// includes the file. It returns the milliseconds from the end of the write
// to that answer, and removes the file again.
func daemonFresh(e *env, logPath string, l *lander, st seisgen.Station, day int, o *outcome) (float64, error) {
	probe, path, err := l.land(st, "BHZ", day)
	if err != nil {
		return 0, err
	}
	landed := time.Now()
	d, _, err := startDaemon(e.daemon, e.dir, logPath)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	h := newHTTPClient(d.base)
	for {
		rep, err := h.exec(probe)
		if err != nil {
			o.count(probe, nil, err)
			break
		}
		got, err := observeJSON(rep.Rows, &probe.want)
		if err == nil && got.equal(&probe.want) || time.Since(landed) > 5*time.Second {
			o.count(probe, got, err)
			break
		}
	}
	fresh := ms(time.Since(landed))
	return fresh, os.Remove(path)
}
