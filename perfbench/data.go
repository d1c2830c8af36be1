package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/mseed"
	"repro/internal/seisgen"
)

// day0 is the first day of every generated repository (the day of the
// paper's Figure 1 queries).
var day0 = time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)

// series is the reference copy of one generated file, decoded once through
// internal/mseed at set-up. It is the oracle every answer is checked
// against: it never touches the lazy-extraction path or either cache.
type series struct {
	station, channel string
	times            []int64   // sample times, ns since epoch, ascending
	values           []float64 // sample values (gain 1: the raw counts)
	prefix           []float64 // prefix[i] = sum of values[:i], exact for integer counts
	blkMin, blkMax   []float64 // per-block extrema, blockLen samples a block
	recStart         []int64   // record start times
	recSamples       []int64   // record sample counts
	start            int64     // first sample time
}

const blockLen = 512

// loadSeries decodes one file the way the generator wrote it. Sample
// times follow the mSEED convention (record start + i / rate).
func loadSeries(path string) (*series, error) {
	recs, err := mseed.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &series{}
	for _, r := range recs {
		h := r.Header
		s.station, s.channel = h.Station, h.Channel
		start, rate := h.StartNanos(), h.SampleRate()
		s.recStart = append(s.recStart, start)
		s.recSamples = append(s.recSamples, int64(len(r.Samples)))
		for i, v := range r.Samples {
			s.times = append(s.times, start+int64(float64(i)/rate*1e9))
			s.values = append(s.values, float64(v))
		}
	}
	if len(s.times) == 0 {
		return nil, fmt.Errorf("%s: no samples", path)
	}
	s.start = s.times[0]
	s.prefix = make([]float64, len(s.values)+1)
	for i, v := range s.values {
		s.prefix[i+1] = s.prefix[i] + v
	}
	for b := 0; b < len(s.values); b += blockLen {
		e := min(b+blockLen, len(s.values))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range s.values[b:e] {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		s.blkMin, s.blkMax = append(s.blkMin, lo), append(s.blkMax, hi)
	}
	return s, nil
}

// span returns the index range [a, b) of samples with lo <= time < hi.
func (s *series) span(lo, hi int64) (int, int) {
	a := sort.Search(len(s.times), func(i int) bool { return s.times[i] >= lo })
	b := sort.Search(len(s.times), func(i int) bool { return s.times[i] >= hi })
	return a, b
}

// agg summarizes values[a:b].
type agg struct {
	n        int64
	sum      float64
	min, max float64
}

func newAgg() agg { return agg{min: math.Inf(1), max: math.Inf(-1)} }

func (g *agg) merge(o agg) {
	g.n += o.n
	g.sum += o.sum
	g.min, g.max = math.Min(g.min, o.min), math.Max(g.max, o.max)
}

func (s *series) agg(a, b int) agg {
	g := newAgg()
	if a >= b {
		return g
	}
	g.n, g.sum = int64(b-a), s.prefix[b]-s.prefix[a]
	for i := a; i < b; {
		if i%blockLen == 0 && i+blockLen <= b {
			k := i / blockLen
			g.min, g.max = math.Min(g.min, s.blkMin[k]), math.Max(g.max, s.blkMax[k])
			i += blockLen
			continue
		}
		g.min, g.max = math.Min(g.min, s.values[i]), math.Max(g.max, s.values[i])
		i++
	}
	return g
}

// archive is the reference view of a whole generated repository.
type archive struct {
	files    []*series
	stations []string
	channels []string
	samples  int64
	bytes    int64 // on-disk size
}

// generate writes a seeded repository, with one recording gap per
// series-day as real archives have, and loads its reference copy.
func generate(dir string, seed int64, days int) (*archive, error) {
	cfg := seisgen.RepoConfig{
		Dir: dir, Days: days, StartDay: day0,
		SamplesPerDay: 86400, SampleRate: 1,
		EventsPerDay: 2, GapsPerDay: 1, Seed: seed,
	}
	gen, err := seisgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	a := &archive{}
	for _, st := range seisgen.DefaultStations {
		a.stations = append(a.stations, st.Code)
	}
	a.channels = append(a.channels, seisgen.DefaultChannels...)
	sort.Strings(a.stations)
	sort.Strings(a.channels)
	for _, g := range gen {
		s, err := loadSeries(g.Path)
		if err != nil {
			return nil, err
		}
		a.files = append(a.files, s)
		a.samples += int64(len(s.values))
		a.bytes += fileSize(g.Path)
	}
	return a, nil
}

// of returns the files of one station and channel in time order.
func (a *archive) of(station, channel string) []*series {
	var out []*series
	for _, s := range a.files {
		if s.station == station && s.channel == channel {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// aggOf summarizes a station-channel over [lo, hi).
func (a *archive) aggOf(station, channel string, lo, hi int64) agg {
	g := newAgg()
	for _, s := range a.of(station, channel) {
		x, y := s.span(lo, hi)
		g.merge(s.agg(x, y))
	}
	return g
}

// rawOf returns the samples of a station-channel over [lo, hi) in time order.
func (a *archive) rawOf(station, channel string, lo, hi int64) (times []int64, values []float64) {
	for _, s := range a.of(station, channel) {
		x, y := s.span(lo, hi)
		times = append(times, s.times[x:y]...)
		values = append(values, s.values[x:y]...)
	}
	return times, values
}

// decodedBytes is the in-memory size of the repository once every record
// sits in the recycler: one int64 time and one float64 value per sample.
func (a *archive) decodedBytes() int64 { return a.samples * 16 }

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
