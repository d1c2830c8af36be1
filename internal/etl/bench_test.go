package etl

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/seisgen"
)

// benchEngine builds an engine over a generated repository and returns it
// with the extraction-metadata batch (F.* and R.* columns) covering every
// record — what the planner's metadata phase hands to Extract for an
// unfiltered query.
func benchEngine(b *testing.B, opts Options) (*Engine, *column.Batch) {
	b.Helper()
	dir := b.TempDir()
	if _, err := seisgen.Generate(seisgen.RepoConfig{Dir: dir, SamplesPerDay: 20000, Seed: 21}); err != nil {
		b.Fatal(err)
	}
	rp, err := repo.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	store := catalog.NewStore(catalog.MSEED())
	e := New(rp, store, opts)
	if _, err := e.LoadMetadata(); err != nil {
		b.Fatal(err)
	}
	return e, extractionMeta(b, store)
}

// extractionMeta builds the extraction-metadata batch (F.* and R.* columns)
// covering every record of the store's loaded metadata.
func extractionMeta(tb testing.TB, store *catalog.Store) *column.Batch {
	tb.Helper()
	fb, err := store.Table(catalog.TableFiles)
	if err != nil {
		tb.Fatal(err)
	}
	fids, _ := fb.Col("file_id")
	furis, _ := fb.Col("uri")
	flens, _ := fb.Col("record_length")
	uriByID := make(map[int64]string)
	lenByID := make(map[int64]int64)
	for i := 0; i < fb.NumRows(); i++ {
		uriByID[fids.Int64s()[i]] = furis.Strings()[i]
		lenByID[fids.Int64s()[i]] = flens.Int64s()[i]
	}
	rb, err := store.Table(catalog.TableRecords)
	if err != nil {
		tb.Fatal(err)
	}
	rids, _ := rb.Col("file_id")
	seqs, _ := rb.Col("seqno")
	offs, _ := rb.Col("file_offset")
	nums, _ := rb.Col("num_samples")
	n := rb.NumRows()
	uris := make([]string, n)
	recLens := make([]int64, n)
	for i := 0; i < n; i++ {
		uris[i] = uriByID[rids.Int64s()[i]]
		recLens[i] = lenByID[rids.Int64s()[i]]
	}
	return column.MustNewBatch(
		column.NewStrings("F.uri", uris),
		column.NewInt64s("F.record_length", recLens),
		column.NewInt64s("R.seqno", append([]int64(nil), seqs.Int64s()...)),
		column.NewInt64s("R.file_offset", append([]int64(nil), offs.Int64s()...)),
		column.NewInt64s("R.num_samples", append([]int64(nil), nums.Int64s()...)),
	)
}

// BenchmarkExtractColdCache measures the run-coalesced miss path: with the
// cache disabled every iteration re-extracts all records of all files, so
// ns/op exposes the syscall coalescing and allocs/op the per-record entries
// the stream parks for its consumer.
func BenchmarkExtractColdCache(b *testing.B) {
	e, meta := benchEngine(b, Options{DisableCache: true})
	var samples int64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := e.Extract(meta, nil, plan.NopObserver{})
		if err != nil {
			b.Fatal(err)
		}
		samples = int64(out.NumRows())
	}
	b.SetBytes(samples * 16) // one int64 time + one float64 value per row
	st := e.ExtractionStats()
	if st.RunsRead == 0 {
		b.Fatal("no coalesced runs recorded")
	}
	b.ReportMetric(float64(st.RunRecords)/float64(st.RunsRead), "records/run")
}

// BenchmarkExtractWarmCache measures the pure recycler-hit path: one cold
// warming pass, then every iteration serves all records from the cache.
func BenchmarkExtractWarmCache(b *testing.B) {
	e, meta := benchEngine(b, Options{})
	if _, err := e.Extract(meta, nil, plan.NopObserver{}); err != nil {
		b.Fatal(err)
	}
	cold := e.ExtractionStats().Extractions
	var samples int64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := e.Extract(meta, nil, plan.NopObserver{})
		if err != nil {
			b.Fatal(err)
		}
		samples = int64(out.NumRows())
	}
	b.StopTimer()
	b.SetBytes(samples * 16)
	if got := e.ExtractionStats().Extractions; got != cold {
		b.Fatalf("warm iterations extracted: %d -> %d", cold, got)
	}
}
