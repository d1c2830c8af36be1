package etl

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/repo"
)

// newEngineAt opens an engine over an existing repository directory (unlike
// newEngine, which generates a fresh one), so several engines can share one
// set of files.
func newEngineAt(t *testing.T, dir string, opts Options) (*Engine, *catalog.Store, string) {
	t.Helper()
	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := catalog.NewStore(catalog.MSEED())
	return New(rp, store, opts), store, dir
}

// numSamplesFieldOffset is where the fixed header stores the sample count
// (big-endian uint16), relative to the record start.
const numSamplesFieldOffset = 30

// patchRecordSampleCount rewrites the NumSamples field of the record at the
// given offset in a file on disk, returning the original count.
func patchRecordSampleCount(t *testing.T, path string, recordOffset int64, count uint16) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	field := data[recordOffset+numSamplesFieldOffset : recordOffset+numSamplesFieldOffset+2]
	orig := int(binary.BigEndian.Uint16(field))
	binary.BigEndian.PutUint16(field, count)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return orig
}

// fileFor returns the absolute path and URI of the engine's file for the
// given station/channel pair.
func fileFor(t *testing.T, e *Engine, station, channel string) (path, uri string) {
	t.Helper()
	for _, f := range e.Repository().Files {
		if strings.Contains(f.URI, station) && strings.Contains(f.URI, channel) {
			return f.AbsPath, f.URI
		}
	}
	t.Fatalf("no file for %s/%s", station, channel)
	return "", ""
}

func countQuery(station, channel string) string {
	return fmt.Sprintf(`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '%s' AND F.channel = '%s'`,
		station, channel)
}

// TestExtractZeroSampleRecord patches one record's sample count to zero
// before the metadata load: extraction must serve the remaining records and
// contribute zero rows (not an error) for the empty record.
func TestExtractZeroSampleRecord(t *testing.T) {
	e, store, _ := newEngine(t, 3000, Options{})
	path, _ := fileFor(t, e, "HGN", "BHZ")
	infos, err := mseed.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 3 {
		t.Fatalf("file has %d records, want >= 3", len(infos))
	}
	victim := infos[1]
	orig := patchRecordSampleCount(t, path, victim.Offset, 0)
	if orig != victim.Header.NumSamples || orig == 0 {
		t.Fatalf("patched count %d, header said %d", orig, victim.Header.NumSamples)
	}
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	b := runLazyQuery(t, e, store, countQuery("HGN", "BHZ"))
	if got, want := b.Row(0)[0].I, int64(3000-orig); got != want {
		t.Errorf("count = %d, want %d (zero-sample record must contribute no rows)", got, want)
	}
}

// TestExtractStaleSampleCountMisfit patches a record after the metadata
// load, so the decoded length disagrees with R.num_samples: extraction must
// trust the decoded record over the stale metadata on both paths (the
// pipelined stream and the materializing engine's Extract drain), whose
// prefetch charges were sized from the stale count.
func TestExtractStaleSampleCountMisfit(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			for _, noPipeline := range []bool{false, true} {
				t.Run(fmt.Sprintf("noPipeline=%v", noPipeline), func(t *testing.T) {
					e, store, _ := newEngine(t, 3000, Options{Parallelism: parallelism})
					if _, err := e.LoadMetadata(); err != nil {
						t.Fatal(err)
					}
					path, _ := fileFor(t, e, "HGN", "BHZ")
					infos, err := mseed.ScanFile(path)
					if err != nil {
						t.Fatal(err)
					}
					victim := infos[1]
					orig := patchRecordSampleCount(t, path, victim.Offset, 0)
					b, err := runQueryEnv(e, store, countQuery("HGN", "BHZ"), parallelism, 0, noPipeline)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := b.Row(0)[0].I, int64(3000-orig); got != want {
						t.Errorf("count = %d, want %d (the patched record must shrink the output)", got, want)
					}
				})
			}
		})
	}
}

// TestExtractStaleMtimeReextraction bumps a source file's mtime after a
// warming query: cached entries must invalidate and the next query must
// re-extract that file's records, with identical results.
func TestExtractStaleMtimeReextraction(t *testing.T) {
	e, store, _ := newEngine(t, 2000, Options{})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value) FROM mseed.dataview
	      WHERE F.station = 'HGN' AND F.channel = 'BHZ'`
	first := runLazyQuery(t, e, store, q)
	warmExtractions := e.ExtractionStats().Extractions
	if warmExtractions == 0 {
		t.Fatal("no extractions on cold run")
	}

	// A warm re-run is pure cache reads.
	runLazyQuery(t, e, store, q)
	if got := e.ExtractionStats().Extractions; got != warmExtractions {
		t.Fatalf("warm run extracted: %d -> %d", warmExtractions, got)
	}

	path, _ := fileFor(t, e, "HGN", "BHZ")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	future := st.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	again := runLazyQuery(t, e, store, q)
	if got := e.ExtractionStats().Extractions; got != 2*warmExtractions {
		t.Errorf("stale-mtime run extracted %d records total, want %d (full re-extraction)",
			got, 2*warmExtractions)
	}
	if first.String() != again.String() {
		t.Errorf("re-extraction changed results:\nbefore: %v\nafter: %v", first, again)
	}
}

// TestPrefetchCacheOverflowFallback runs the whole-file prefetch ablation
// with a cache budget too small to admit anything: every qualifying record
// must fall back to a direct decode from the prefetched buffer.
func TestPrefetchCacheOverflowFallback(t *testing.T) {
	e, store, _ := newEngine(t, 3000, Options{PrefetchWholeFile: true, CacheBudget: 1})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	b := runLazyQuery(t, e, store, countQuery("HGN", "BHZ"))
	if got := b.Row(0)[0].I; got != 3000 {
		t.Errorf("count = %d, want 3000", got)
	}
	if e.Cache().Len() != 0 {
		t.Errorf("cache admitted %d entries despite a 1-byte budget", e.Cache().Len())
	}
	st := e.ExtractionStats()
	if st.Extractions == 0 {
		t.Error("no extractions recorded")
	}
	if st.RunsRead == 0 || st.RunRecords == 0 {
		t.Errorf("run counters not threaded: %+v", st)
	}
}

// TestExtractBitIdenticalAcrossParallelism requires the raw universal-table
// output (not just aggregates) to be byte-identical at every Parallelism
// setting, cold and warm.
func TestExtractBitIdenticalAcrossParallelism(t *testing.T) {
	q := `SELECT D.sample_time, D.sample_value FROM mseed.dataview
	      WHERE F.channel = 'BHZ' AND F.station = 'ISK'`
	var cold, warm []string
	var runs []int64
	for _, p := range []int{1, 2, 8} {
		e, store, _ := newEngine(t, 3000, Options{Parallelism: p})
		if _, err := e.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
		cold = append(cold, runLazyQuery(t, e, store, q).String())
		warm = append(warm, runLazyQuery(t, e, store, q).String())
		runs = append(runs, e.ExtractionStats().RunsRead)
	}
	for i := 1; i < len(cold); i++ {
		if cold[i] != cold[0] {
			t.Errorf("cold output differs between Parallelism settings")
		}
		if warm[i] != warm[0] {
			t.Errorf("warm output differs between Parallelism settings")
		}
		if runs[i] != runs[0] {
			t.Errorf("run plans differ across Parallelism: %v", runs)
		}
	}
	if warm[0] == "" || cold[0] != warm[0] {
		t.Errorf("warm output differs from cold output")
	}
}

// TestExtractDeterministicErrorOrder corrupts several qualifying files and
// requires the parallel extractor to report the same error as the serial
// one — the earliest failing file in extraction order (the first BHZ file),
// not the race winner.
func TestExtractDeterministicErrorOrder(t *testing.T) {
	_, _, dir := newEngine(t, 2000, Options{})
	// Corrupt one mid-file record header in every BHZ file: metadata stays
	// valid (loaded before corruption below), decode fails.
	corrupt := func(e *Engine) {
		n := 0
		for _, f := range e.Repository().Files {
			if !strings.Contains(f.URI, "BHZ") {
				continue
			}
			data, err := os.ReadFile(f.AbsPath)
			if err != nil {
				t.Fatal(err)
			}
			copy(data[512:518], "??????") // second record's sequence number
			if err := os.WriteFile(f.AbsPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n < 2 {
			t.Fatalf("corrupted %d files, want >= 2", n)
		}
	}
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`

	// All engines load metadata before the corruption, so the scan sees
	// valid headers and only run-time extraction hits the damage.
	serial, serialStore, _ := newEngineAt(t, dir, Options{Parallelism: 1})
	if _, err := serial.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	const tries = 4
	pars := make([]*Engine, tries)
	parStores := make([]*catalog.Store, tries)
	for i := range pars {
		par, parStore, _ := newEngineAt(t, dir, Options{Parallelism: 8})
		if _, err := par.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
		pars[i], parStores[i] = par, parStore
	}
	corrupt(serial)

	_, serialErr := runLazyQueryErr(serial, serialStore, q)
	if serialErr == nil {
		t.Fatal("serial extraction over corrupt files did not fail")
	}
	if first := firstFile(t, serial, "BHZ"); !strings.Contains(serialErr.Error(), first) {
		t.Fatalf("error %q does not name the first damaged file %s", serialErr, first)
	}
	for try := 0; try < tries; try++ {
		_, parErr := runLazyQueryErr(pars[try], parStores[try], q)
		if parErr == nil {
			t.Fatal("parallel extraction over corrupt files did not fail")
		}
		if parErr.Error() != serialErr.Error() {
			t.Fatalf("try %d: parallel error %q != serial error %q", try, parErr, serialErr)
		}
	}
}

// TestZonePruneRunAccounting pins the run planner's single coalescing rule.
// With nothing cached (a 1-byte recycler), the reads a zone-pruned query
// issues plus the reads it reports pruning saved must equal the reads the
// same query issues with skipping off.
func TestZonePruneRunAccounting(t *testing.T) {
	_, _, dir := newEngine(t, 3000, Options{})
	var threshold float64
	var runsRead, runsSkipped [2]int64
	var counts [2]int64
	for k, noSkipping := range []bool{false, true} {
		e, store, _ := newEngineAt(t, dir, Options{CacheBudget: 1})
		if _, err := e.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
		// A full scan collects every record's zone entry.
		full, err := runQueryWith(e, store, `SELECT F.uri, MAX(D.sample_value) FROM mseed.dataview GROUP BY F.uri ORDER BY 2`, plan.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			// The median file maximum: files below it prune whole (saving
			// their runs), files above it keep records that pass.
			threshold = full.ColAt(1).Float64s()[full.NumRows()/2]
		}
		before := e.ExtractionStats()
		q := fmt.Sprintf(`SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value > %g`, threshold)
		b, err := runQueryWith(e, store, q, plan.Env{NoSkipping: noSkipping})
		if err != nil {
			t.Fatal(err)
		}
		after := e.ExtractionStats()
		counts[k] = b.Row(0)[0].I
		runsRead[k] = after.RunsRead - before.RunsRead
		runsSkipped[k] = after.RunsSkipped - before.RunsSkipped
		if !noSkipping && (after.RecordsSkipped == before.RecordsSkipped || runsSkipped[k] == 0) {
			t.Fatalf("threshold %g pruned %d records and %d runs; test is vacuous",
				threshold, after.RecordsSkipped-before.RecordsSkipped, runsSkipped[k])
		}
	}
	if counts[0] != counts[1] || counts[0] == 0 {
		t.Fatalf("counts with and without skipping: %v", counts)
	}
	if runsSkipped[1] != 0 {
		t.Errorf("NoSkipping reported %d runs skipped", runsSkipped[1])
	}
	if runsRead[0]+runsSkipped[0] != runsRead[1] {
		t.Errorf("skipping: %d runs read + %d skipped != %d runs read without skipping",
			runsRead[0], runsSkipped[0], runsRead[1])
	}
}

// TestExtractDrainEmpty runs Extract over a metadata batch with no rows and
// over one whose rows the zone maps all prune: both must answer zero rows
// that still carry the universal table's sample columns.
func TestExtractDrainEmpty(t *testing.T) {
	e, store, _ := newEngine(t, 500, Options{})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	meta := extractionMeta(t, store)
	check := func(name string, b *column.Batch, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.NumRows() != 0 {
			t.Errorf("%s: %d rows, want 0", name, b.NumRows())
		}
		for _, c := range []string{"F.uri", "D.sample_time", "D.sample_value"} {
			if _, ok := b.Col(c); !ok {
				t.Errorf("%s: result lacks %s (have %v)", name, c, b.Names())
			}
		}
	}

	b, err := e.Extract(meta.Range(0, 0), nil, plan.NopObserver{})
	check("zero metadata rows", b, err)

	// Collect every record's zone entry, then prune them all.
	if _, err := e.Extract(meta, nil, plan.NopObserver{}); err != nil {
		t.Fatal(err)
	}
	before := e.ExtractionStats().RecordsSkipped
	b, err = e.Extract(meta, &plan.PruneRange{AlwaysFalse: true}, plan.NopObserver{})
	check("all rows pruned", b, err)
	if got := e.ExtractionStats().RecordsSkipped - before; got != int64(meta.NumRows()) {
		t.Errorf("pruned %d of %d records", got, meta.NumRows())
	}
}
