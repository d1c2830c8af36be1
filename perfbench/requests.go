package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/column"
	"repro/internal/seismic"
)

// request is one generated unit of work: the SQL (or a prepared statement
// and its parameters) the program receives, and the answer the reference
// copy says it must return.
type request struct {
	class  string
	sql    string   // ad-hoc text, or the template when prep >= 0
	prep   int      // index into the workload's prepared templates; -1 = ad hoc
	params []string // prepared-statement parameters (all strings)
	want   answer
}

// key identifies a request's normalized SQL plus parameters; repeats of a
// key are what the result cache can serve.
func (r *request) key() string {
	if r.prep >= 0 {
		return fmt.Sprintf("p%d\x1f%s", r.prep, strings.Join(r.params, "\x1f"))
	}
	return r.sql
}

// cell is one value of a small answer.
type cell struct {
	null  bool
	isInt bool
	i     int64
	f     float64
	s     string
}

func intCell(v int64) cell     { return cell{isInt: true, i: v} }
func floatCell(v float64) cell { return cell{f: v} }
func strCell(v string) cell    { return cell{s: v} }

func (c cell) num() float64 {
	if c.isInt {
		return float64(c.i)
	}
	return c.f
}

func (c cell) String() string {
	switch {
	case c.null:
		return "NULL"
	case c.isInt:
		return fmt.Sprint(c.i)
	case c.s != "":
		return c.s
	}
	return fmt.Sprint(c.f)
}

func (c cell) equal(o cell) bool {
	switch {
	case c.null || o.null:
		return c.null == o.null
	case c.s != "" || o.s != "":
		return c.s == o.s
	case c.isInt && o.isInt:
		return c.i == o.i
	}
	a, b := c.num(), o.num()
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// answer is an expected or observed result. Small results are compared
// cell by cell; raw-sample results by row count, value sum, time sum and
// end points, plus the STA/LTA detections when the request is an event hunt.
type answer struct {
	cells  [][]cell
	raw    bool
	rows   int
	sum    float64
	tsum   int64
	first  int64
	last   int64
	hunt   bool
	events []int64 // detected onsets, ns
}

func (a *answer) String() string {
	if a.raw {
		return fmt.Sprintf("rows=%d sum=%g tsum=%d first=%d last=%d events=%v", a.rows, a.sum, a.tsum, a.first, a.last, a.events)
	}
	return fmt.Sprint(a.cells)
}

func (a *answer) equal(o *answer) bool {
	if a.raw != o.raw {
		return false
	}
	if a.raw {
		if a.rows != o.rows || a.sum != o.sum || a.tsum != o.tsum || a.first != o.first || a.last != o.last || len(a.events) != len(o.events) {
			return false
		}
		for i := range a.events {
			if a.events[i] != o.events[i] {
				return false
			}
		}
		return true
	}
	if len(a.cells) != len(o.cells) {
		return false
	}
	for i := range a.cells {
		if len(a.cells[i]) != len(o.cells[i]) {
			return false
		}
		for j := range a.cells[i] {
			if !a.cells[i][j].equal(o.cells[i][j]) {
				return false
			}
		}
	}
	return true
}

// rawAnswer summarizes a time-ordered sample series.
func rawAnswer(times []int64, values []float64, hunt bool) answer {
	a := answer{raw: true, rows: len(times), hunt: hunt}
	for i, t := range times {
		a.sum += values[i]
		a.tsum += t
	}
	if len(times) > 0 {
		a.first, a.last = times[0], times[len(times)-1]
	}
	if hunt {
		a.events = detect(times, values)
	}
	return a
}

// huntConfig is the E8 detector: the paper's 2 s / 15 s STA/LTA windows
// rescaled to hold the same sample counts at 1 Hz as at 40 Hz.
var huntConfig = seismic.Config{SampleRate: 1, STAWindow: 80 * time.Second, LTAWindow: 600 * time.Second, TriggerOn: 6}

func detect(times []int64, values []float64) []int64 {
	evs, err := seismic.DetectEvents(times, values, huntConfig)
	if err != nil {
		return nil
	}
	out := make([]int64, len(evs))
	for i, e := range evs {
		out[i] = e.Onset.UnixNano()
	}
	return out
}

// observe converts a library result batch to an answer. Hunts run the
// detector over the returned columns, so its time is part of the request.
func observe(b *column.Batch, want *answer) (*answer, error) {
	if want.raw {
		tc, ok1 := b.Col("D.sample_time")
		vc, ok2 := b.Col("D.sample_value")
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("raw answer lacks D.sample_time/D.sample_value (columns %v)", b.Names())
		}
		a := rawAnswer(tc.Int64s(), vc.Float64s(), false)
		return &a, nil
	}
	a := &answer{}
	for i := 0; i < b.NumRows(); i++ {
		var row []cell
		for _, v := range b.Row(i) {
			row = append(row, valueCell(v))
		}
		a.cells = append(a.cells, row)
	}
	return a, nil
}

func valueCell(v column.Value) cell {
	if v.Null {
		return cell{null: true}
	}
	switch v.Type {
	case column.Int64, column.Timestamp:
		return intCell(v.I)
	case column.Float64:
		return floatCell(v.F)
	case column.Bool:
		return intCell(v.I)
	}
	return strCell(v.S)
}

// observeJSON converts an HTTP response's rows to an answer.
func observeJSON(rows [][]any, want *answer) (*answer, error) {
	if want.raw {
		times := make([]int64, len(rows))
		values := make([]float64, len(rows))
		for i, r := range rows {
			if len(r) != 2 {
				return nil, fmt.Errorf("raw row %d has %d cells", i, len(r))
			}
			ts, _ := r[0].(string)
			t, err := time.Parse(tsLayout, ts)
			if err != nil {
				return nil, err
			}
			n, _ := r[1].(json.Number)
			f, err := n.Float64()
			if err != nil {
				return nil, err
			}
			times[i], values[i] = t.UnixNano(), f
		}
		a := rawAnswer(times, values, false)
		return &a, nil
	}
	a := &answer{}
	for _, r := range rows {
		var row []cell
		for _, v := range r {
			switch x := v.(type) {
			case nil:
				row = append(row, cell{null: true})
			case json.Number:
				if i, err := x.Int64(); err == nil {
					row = append(row, intCell(i))
				} else {
					f, err := x.Float64()
					if err != nil {
						return nil, err
					}
					row = append(row, floatCell(f))
				}
			case string:
				row = append(row, strCell(x))
			default:
				return nil, fmt.Errorf("unexpected JSON cell %T", v)
			}
		}
		a.cells = append(a.cells, row)
	}
	return a, nil
}

// tsLayout is the timestamp literal format of the generated SQL, and the
// display format the daemon returns timestamps in.
const tsLayout = "2006-01-02T15:04:05.000"

func ts(ns int64) string { return time.Unix(0, ns).UTC().Format(tsLayout) }

const sec = int64(time.Second)

// streamGen draws requests with seeded literals. It redraws any request
// whose key occurred before, so its own requests never repeat.
type streamGen struct {
	rng  *rand.Rand
	a    *archive
	seen map[string]bool
}

func newStreamGen(seed int64, a *archive) *streamGen {
	return &streamGen{rng: rand.New(rand.NewSource(seed)), a: a, seen: map[string]bool{}}
}

func (g *streamGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// second draws a whole second in [lo, hi).
func (g *streamGen) second(lo, hi int64) int64 { return lo + g.rng.Int63n((hi-lo)/sec)*sec }

// draw calls mk until it yields an unseen key.
func (g *streamGen) draw(mk func() *request) *request {
	for {
		r := mk()
		if !g.seen[r.key()] {
			g.seen[r.key()] = true
			return r
		}
	}
}

func aggRow(g agg) []cell {
	if g.n == 0 {
		return []cell{intCell(0), {null: true}}
	}
	return []cell{intCell(g.n), floatCell(g.sum / float64(g.n))}
}

// window is a Figure 1 Q1-style aggregate over a short window of one series.
func (g *streamGen) window(lo, hi int64, minDur, maxDur int64) *request {
	return g.draw(func() *request {
		st, ch := g.pick(g.a.stations), g.pick(g.a.channels)
		dur := minDur + g.rng.Int63n((maxDur-minDur)/sec)*sec
		t0 := g.second(lo, hi-dur)
		q := fmt.Sprintf("SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview WHERE F.station = '%s' AND F.channel = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'",
			st, ch, ts(t0), ts(t0+dur))
		return &request{class: "window", sql: q, prep: -1, want: answer{cells: [][]cell{aggRow(g.a.aggOf(st, ch, t0, t0+dur))}}}
	})
}

// group is a Figure 1 Q2-style per-station GROUP BY over a window of dur;
// over 24 hours it is the paper's full-day Q2.
func (g *streamGen) group(class string, lo, hi, dur int64) *request {
	return g.draw(func() *request {
		ch := g.pick(g.a.channels)
		t0 := g.second(lo, hi-dur)
		t1 := t0 + dur
		q := fmt.Sprintf("SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value) FROM mseed.dataview WHERE F.channel = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s' GROUP BY F.station ORDER BY F.station",
			ch, ts(t0), ts(t1))
		var want answer
		for _, st := range g.a.stations {
			s := g.a.aggOf(st, ch, t0, t1)
			if s.n > 0 {
				want.cells = append(want.cells, []cell{strCell(st), intCell(s.n), floatCell(s.min), floatCell(s.max)})
			}
		}
		return &request{class: class, sql: q, prep: -1, want: want}
	})
}

// threshold is a zone-prunable scan for samples above a high threshold
// over one station's whole archive.
func (g *streamGen) threshold() *request {
	return g.draw(func() *request {
		st := g.pick(g.a.stations)
		thr := 1500 + g.rng.Intn(6000)
		q := fmt.Sprintf("SELECT COUNT(*), MAX(D.sample_value) FROM mseed.dataview WHERE F.station = '%s' AND D.sample_value > %d", st, thr)
		var n int64
		mx := math.Inf(-1)
		for _, s := range g.a.files {
			if s.station != st {
				continue
			}
			for b := range s.blkMax {
				if s.blkMax[b] <= float64(thr) {
					continue
				}
				for _, v := range s.values[b*blockLen : min((b+1)*blockLen, len(s.values))] {
					if v > float64(thr) {
						n++
						mx = math.Max(mx, v)
					}
				}
			}
		}
		row := []cell{intCell(n), {null: true}}
		if n > 0 {
			row[1] = floatCell(mx)
		}
		return &request{class: "threshold", sql: q, prep: -1, want: answer{cells: [][]cell{row}}}
	})
}

// raw returns the samples of one series over a window, time-ordered; a
// hunt also runs STA/LTA detection over them (the paper's E8).
func (g *streamGen) raw(class string, lo, hi, dur int64, channel string, hunt bool) *request {
	return g.draw(func() *request {
		st, ch := g.pick(g.a.stations), channel
		if ch == "" {
			ch = g.pick(g.a.channels)
		}
		t0 := g.second(lo, hi-dur)
		q := fmt.Sprintf("SELECT D.sample_time, D.sample_value FROM mseed.dataview WHERE F.station = '%s' AND F.channel = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s' ORDER BY D.sample_time",
			st, ch, ts(t0), ts(t0+dur))
		times, values := g.a.rawOf(st, ch, t0, t0+dur)
		return &request{class: class, sql: q, prep: -1, want: rawAnswer(times, values, hunt)}
	})
}

// metaJoin is an mseed.files ⋈ mseed.records aggregate over a time range:
// metadata only, no payload is touched.
func (g *streamGen) metaJoin(lo, hi int64) *request {
	return g.draw(func() *request {
		dur := int64(1800+g.rng.Intn(6*3600)) * sec
		t0 := g.second(lo, hi-dur)
		q := fmt.Sprintf("SELECT F.station, COUNT(*), SUM(R.num_samples) FROM mseed.files F JOIN mseed.records R ON F.file_id = R.file_id WHERE R.start_time >= '%s' AND R.start_time < '%s' GROUP BY F.station ORDER BY F.station",
			ts(t0), ts(t0+dur))
		var want answer
		for _, st := range g.a.stations {
			var n, samples int64
			for _, s := range g.a.files {
				if s.station != st {
					continue
				}
				for i, rs := range s.recStart {
					if rs >= t0 && rs < t0+dur {
						n++
						samples += s.recSamples[i]
					}
				}
			}
			if n > 0 {
				want.cells = append(want.cells, []cell{strCell(st), intCell(n), intCell(samples)})
			}
		}
		return &request{class: "metajoin", sql: q, prep: -1, want: want}
	})
}

// repeatShare is the fraction of requests whose key occurred earlier in
// the stream.
func repeatShare(reqs []*request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	seen := map[string]bool{}
	rep := 0
	for _, r := range reqs {
		k := r.key()
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(len(reqs))
}
