package etl

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/sql"
)

// runQueryEnv executes a lazy-mode query with an explicit environment
// configuration, so tests can pin the materializing engine (NoPipeline,
// which drains the stream through Extract) and the pipelined streaming path
// at chosen worker counts and morsel sizes.
func runQueryEnv(e *Engine, store *catalog.Store, q string, workers, morselRows int, noPipeline bool) (*column.Batch, error) {
	return runQueryWith(e, store, q, plan.Env{
		Pool:       exec.NewPoolMorsel(workers, morselRows),
		NoPipeline: noPipeline,
	})
}

// runQueryWith executes a lazy-mode query under env, with the engine as the
// extraction source.
func runQueryWith(e *Engine, store *catalog.Store, q string, env plan.Env) (*column.Batch, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	plans, err := plan.Build(stmt, store.Catalog(), plan.Lazy)
	if err != nil {
		return nil, err
	}
	env.Store, env.Source = store, e
	return plan.Execute(plans.Root, &env)
}

// referenceSamples decodes the repository's files of one channel through
// the eager mseed.ReadFile path, in repository order, and returns the
// samples whose gained value exceeds above: per-sample times derived from the
// record start and rate, values scaled by gain. It is the answer to a raw
// dataview select computed without the lazy extractor.
func referenceSamples(t *testing.T, e *Engine, channel string, gain, above float64) ([]int64, []float64) {
	t.Helper()
	var times []int64
	var values []float64
	for _, f := range e.Repository().Files {
		if !strings.Contains(f.URI, channel) {
			continue
		}
		recs, err := mseed.ReadFile(f.AbsPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			h := r.Header
			for i, s := range r.Samples {
				if v := float64(s) * gain; v > above {
					times = append(times, h.StartNanos()+int64(float64(i)/h.SampleRate()*1e9))
					values = append(values, v)
				}
			}
		}
	}
	return times, values
}

// TestStreamMatchesExtract requires both extraction paths — the pipelined
// stream and the materializing engine's Extract drain — to return exactly
// the samples an independent eager decode yields, in order, cold and warm,
// at several parallelism and morsel settings.
func TestStreamMatchesExtract(t *testing.T) {
	const gain = 1.5
	_, _, dir := newEngine(t, 3000, Options{})
	q := `SELECT D.sample_time, D.sample_value FROM mseed.dataview
	      WHERE F.channel = 'BHZ' AND D.sample_value > 10`

	for _, p := range []int{1, 4} {
		for _, morsel := range []int{61, 5000} {
			for _, noPipeline := range []bool{false, true} {
				name := fmt.Sprintf("parallelism=%d morsel=%d noPipeline=%v", p, morsel, noPipeline)
				e, store, _ := newEngineAt(t, dir, Options{Parallelism: p, Gain: gain})
				if _, err := e.LoadMetadata(); err != nil {
					t.Fatal(err)
				}
				wantT, wantV := referenceSamples(t, e, "BHZ", gain, 10)
				if len(wantT) == 0 {
					t.Fatal("reference decode returned no samples; test is vacuous")
				}
				for _, pass := range []string{"cold", "warm"} {
					got, err := runQueryEnv(e, store, q, p, morsel, noPipeline)
					if err != nil {
						t.Fatalf("%s %s: %v", name, pass, err)
					}
					if !slices.Equal(got.ColAt(0).Int64s(), wantT) || !slices.Equal(got.ColAt(1).Float64s(), wantV) {
						t.Errorf("%s %s: %d rows differ from the %d-sample reference decode",
							name, pass, got.NumRows(), len(wantT))
					}
				}
				if st := e.ExtractionStats(); st.SamplesServed == 0 {
					t.Errorf("%s: no samples counted", name)
				}
			}
		}
	}
}

// firstFile returns the URI of the first repository file whose URI contains
// channel: the first file of that channel in extraction plan order, which
// follows the metadata's file order.
func firstFile(t *testing.T, e *Engine, channel string) string {
	t.Helper()
	for _, f := range e.Repository().Files {
		if strings.Contains(f.URI, channel) {
			return f.URI
		}
	}
	t.Fatalf("no %s file", channel)
	return ""
}

// TestStreamDeterministicReadFailure truncates every qualifying file after
// the metadata load, so prefetch ReadAt calls fail mid-query. Whatever run
// fails first in wall-clock time, the surfaced error must be that of the
// earliest failing run in plan order, which names the first BHZ file —
// identical to the materializing engine's, at every parallelism.
func TestStreamDeterministicReadFailure(t *testing.T) {
	_, _, dir := newEngine(t, 2000, Options{})
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`

	truncate := func(e *Engine) {
		n := 0
		for _, f := range e.Repository().Files {
			if !strings.Contains(f.URI, "BHZ") {
				continue
			}
			st, err := os.Stat(f.AbsPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(f.AbsPath, st.Size()/3); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n < 2 {
			t.Fatalf("truncated %d files, want >= 2", n)
		}
	}

	oracle, oracleStore, _ := newEngineAt(t, dir, Options{Parallelism: 1})
	if _, err := oracle.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	const tries = 3
	type eng struct {
		e *Engine
		s *catalog.Store
	}
	var streams []eng
	for _, p := range []int{1, 8} {
		for i := 0; i < tries; i++ {
			e, store, _ := newEngineAt(t, dir, Options{Parallelism: p})
			if _, err := e.LoadMetadata(); err != nil {
				t.Fatal(err)
			}
			streams = append(streams, eng{e, store})
		}
	}
	truncate(oracle)

	_, wantErr := runQueryEnv(oracle, oracleStore, q, 1, 0, true)
	if wantErr == nil {
		t.Fatal("materializing extraction over truncated files did not fail")
	}
	if first := firstFile(t, oracle, "BHZ"); !strings.Contains(wantErr.Error(), first) {
		t.Fatalf("error %q does not name the first damaged file %s", wantErr, first)
	}
	for i, se := range streams {
		_, err := runQueryEnv(se.e, se.s, q, 4, 61, false)
		if err == nil {
			t.Fatalf("stream %d: no error over truncated files", i)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("stream %d: error %q != materializing error %q", i, err, wantErr)
		}
	}
}
