package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// slowQuartile is the time the slower quarter of a run's samples reach, its
// third quartile. The 2-core host the benchmark was sized on switches
// between a fast and a slow speed many times a second, the fast one getting
// anywhere from 15% to 60% of the time, so a run's median moves with the
// share each speed happened to get; its third quartile stays on the slow
// speed.
func slowQuartile(xs []float64) float64 { return quantile(xs, 0.75) }

// blockStats splits a closed loop's latencies (ms, in stream order, the
// first at a pattern boundary) into whole blocks of n requests (the whole
// loop when it is shorter) and returns each block's p50, p95 and
// throughput in requests per second of latency.
func blockStats(lat []float64, n int) (p50, p95, rate []float64) {
	n = min(n, len(lat))
	for i := 0; n > 0 && i+n <= len(lat); i += n {
		blk := lat[i : i+n]
		var sum float64
		for _, v := range blk {
			sum += v
		}
		p50, p95 = append(p50, median(blk)), append(p95, quantile(blk, 0.95))
		rate = append(rate, float64(n)*1e3/sum)
	}
	return p50, p95, rate
}

// tailOK reports whether xs holds at least ten samples beyond the
// q-quantile, the least a tail percentile needs to mean anything.
func tailOK(xs []float64, q float64) bool {
	return float64(len(xs))*(1-q) >= 10
}

// tailNote flags a run too short for its tail percentiles to mean much.
func tailNote(o *outcome, lat []float64) {
	for _, q := range []float64{0.95, 0.99} {
		if !tailOK(lat, q) {
			o.note("p%.0f rests on %d samples: fewer than 10 lie beyond it", 100*q, len(lat))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of a
// process ("self" or a pid), so a peak read later covers only what followed.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRounds records a process's peak resident set round by round; the
// reported figure is the median round's peak, which one badly timed garbage
// collection moves less than the peak of the whole run.
type peakRounds struct {
	pid   string
	peaks []float64
	reset error
}

func (p *peakRounds) start() {
	if err := resetPeakRSS(p.pid); err != nil {
		p.reset = err
	}
}

func (p *peakRounds) end() error {
	v, err := peakRSSMB(p.pid)
	p.peaks = append(p.peaks, v)
	return err
}

func (p *peakRounds) median(o *outcome) float64 {
	if p.reset != nil {
		o.note("peak RSS is the whole run's high-water mark: cannot reset it (%v)", p.reset)
	}
	return median(p.peaks)
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
