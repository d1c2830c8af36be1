package plan

import (
	"fmt"

	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/obs"
)

// Pipeline decomposition: a plan spine of the shape
//
//	[Limit] [Sort] [Project] [Aggregate] (Filter | Join)* (Scan | LazyExtract)
//
// runs as one morsel-wise push pipeline. The leaf produces morsels (table
// row ranges, or the lazy extraction stream), Filter and Join probe stages
// run fused over each morsel's selection vector, and the pipeline ends at
// one of its breakers: the aggregation sink or the final-output collector.
// Join build sides, sort, spill, and the metadata plan under a LazyExtract
// remain materializing — they need their whole input by nature. The
// materializing engine stays behind Env.NoPipeline as the bit-identity
// oracle.

// RowsServedCounter reports how many rows a source has delivered; a
// streaming source implements it so the extract event and stats stay
// comparable with the materializing path.
type RowsServedCounter interface {
	RowsServed() int64
}

// pipePlan is a decomposed pipeline spine.
type pipePlan struct {
	leaf    Node          // *Scan or *LazyExtract
	ops     []Node        // *Filter / *Join stages, leaf-to-root order
	restore *RestoreOrder // optional provenance re-sequencing breaker
	agg     *Aggregate    // optional aggregation breaker
	post    []Node        // *Project / *Sort / *Limit, outermost-first
}

// decompose peels a plan into a pipePlan, reporting whether the spine fits
// the pipeline shape.
func decompose(n Node) (*pipePlan, bool) {
	pp := &pipePlan{}
peel:
	for {
		switch x := n.(type) {
		case *Limit:
			pp.post = append(pp.post, x)
			n = x.Child
		case *Sort:
			pp.post = append(pp.post, x)
			n = x.Child
		case *Project:
			pp.post = append(pp.post, x)
			n = x.Child
		default:
			break peel
		}
	}
	if a, ok := n.(*Aggregate); ok {
		pp.agg = a
		n = a.Child
	}
	// A reordered join spine re-sequences its output below the aggregate.
	// The spine underneath still pipelines; the restore itself is a breaker
	// (it needs every row), so the aggregate then runs materializing on the
	// restored batch.
	if r, ok := n.(*RestoreOrder); ok {
		pp.restore = r
		n = r.Child
	}
	var rev []Node
	for {
		switch x := n.(type) {
		case *Filter:
			rev = append(rev, x)
			n = x.Child
		case *Join:
			rev = append(rev, x)
			n = x.L
		case *Scan, *LazyExtract:
			pp.leaf = n
			for i := len(rev) - 1; i >= 0; i-- {
				pp.ops = append(pp.ops, rev[i])
			}
			return pp, true
		default:
			return nil, false
		}
	}
}

// allowed decides whether a decomposed spine actually runs pipelined.
// Under a finite memory budget, joins and grouped aggregates stay on the
// materializing engine: their spill paths need the whole input on hand
// (grace-hash probe, shard replay), and falling back mid-stream would
// re-run extraction. The decision is made here, before any operator
// starts, so a pipeline never aborts halfway.
func (pp *pipePlan) allowed(env *Env) bool {
	hasJoin, hasFilter := false, false
	for _, op := range pp.ops {
		switch op.(type) {
		case *Join:
			hasJoin = true
		case *Filter:
			hasFilter = true
		}
	}
	scanPreds := false
	if s, ok := pp.leaf.(*Scan); ok {
		scanPreds = len(s.Preds) > 0
	}
	_, lazy := pp.leaf.(*LazyExtract)
	if !lazy && !hasJoin && !hasFilter && pp.agg == nil && !scanPreds {
		return false // bare table read; nothing to fuse
	}
	if env.Mem.Limited() && (hasJoin || (pp.agg != nil && len(pp.agg.GroupBy) > 0)) {
		env.Stats.recordPipelineFallback()
		return false
	}
	return true
}

// extractProto is the universal table's zero-row schema for a metadata
// batch: the meta columns plus the two data columns extraction appends.
func extractProto(meta *column.Batch) (*column.Batch, error) {
	p := meta.Gather([]int32{})
	if err := p.AddColumn(column.NewTimestamps("D.sample_time", nil)); err != nil {
		return nil, err
	}
	if err := p.AddColumn(column.NewFloat64s("D.sample_value", nil)); err != nil {
		return nil, err
	}
	return p, nil
}

// executePipelined runs a decomposed spine as one push pipeline.
func executePipelined(pp *pipePlan, env *Env) (*column.Batch, error) {
	o := env.obs()
	var (
		src     exec.BatchSource
		proto   *column.Batch
		stages  []exec.PipeStage
		closers []func()
	)
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	ran := false
	defer func() {
		if !ran && src != nil {
			src.Close() // stop a stream we never handed to RunPipeline
		}
	}()

	type filterInfo struct {
		x  *Filter
		st *exec.FilterStage
	}
	type joinInfo struct {
		x     *Join
		jp    *exec.JoinProbe
		st    *exec.ProbeStage
		rRows int
	}
	var filters []filterInfo
	var joins []joinInfo
	var scanX *Scan
	var scanFS *exec.FilterStage
	scanRows := 0

	var scanSp *obs.Span

	switch leaf := pp.leaf.(type) {
	case *Scan:
		sp := env.Trace.StartChild("scan " + leaf.Table)
		b, err := scanBase(leaf, env)
		if err != nil {
			return nil, err
		}
		sp.End()
		scanSp = sp
		scanX, scanRows = leaf, b.NumRows()
		proto = b.Range(0, 0)
		if len(leaf.Preds) > 0 {
			scanFS = exec.NewFilterStage(leaf.Preds)
			stages = append(stages, scanFS)
		}
		src = exec.NewBatchMorsels(b, env.Pool.MorselRows())
		// Zone-range skipping: morsels over ranges the batch statistics
		// prove empty against the pushed-down predicates never enter the
		// pipeline. The filter stage stays — surviving ranges are a
		// superset — so output is bit-identical to the full feed.
		if !env.NoSkipping && len(leaf.Preds) > 0 {
			stored, _ := env.Store.Table(leaf.Table)
			bz := env.Store.TableZones(leaf.Table)
			if stored != nil && bz != nil && bz.Rows == b.NumRows() {
				if checks := compileZoneChecks(leaf.Preds, leaf.Prefix, stored); len(checks) > 0 {
					segs, skRanges, skRows := keptSegments(bz, checks)
					if skRanges > 0 {
						src = newSegmentMorsels(b, segs, env.Pool.MorselRows())
						env.Stats.recordScanSkip(skRanges, skRows)
						ReportScan(o, ScanReport{
							Target:      leaf.Table,
							Rows:        int64(scanRows) - skRows,
							RowsSkipped: skRows,
						})
						o.Event("scan-skip", fmt.Sprintf("%s: zone maps skip %d ranges (%d of %d rows) against %s",
							leaf.Table, skRanges, skRows, scanRows, exprList(leaf.Preds)))
					}
				}
			}
		}

	case *LazyExtract:
		meta, prune, err := lazyMeta(leaf, env)
		if err != nil {
			return nil, err
		}
		if src, err = env.Source.ExtractStream(meta, prune, o, env.Pool.MorselRows(), env.Mem.Ledger()); err != nil {
			return nil, err
		}
		if proto, err = extractProto(meta); err != nil {
			return nil, err
		}
	}

	for _, op := range pp.ops {
		switch x := op.(type) {
		case *Filter:
			fs := exec.NewFilterStage(x.Preds)
			stages = append(stages, fs)
			filters = append(filters, filterInfo{x: x, st: fs})
		case *Join:
			bsp := env.Trace.StartChild("join-build " + x.Describe())
			benv := *env
			benv.Trace = bsp
			r, err := Execute(x.R, &benv)
			if err != nil {
				return nil, err
			}
			jp, err := exec.BuildProbeTable(proto, r, x.LKeys, x.RKeys, env.Pool, env.Mem)
			if err != nil {
				return nil, err
			}
			bsp.AddRows(int64(r.NumRows()))
			bsp.End()
			closers = append(closers, jp.Close)
			if jp.Spilled() {
				// Defensive: allowed() keeps joins off pipelines under a
				// finite budget, and unlimited builds never spill.
				return nil, fmt.Errorf("%w: join build spilled", exec.ErrPipelineFallback)
			}
			st := jp.NewStage()
			stages = append(stages, st)
			joins = append(joins, joinInfo{x: x, jp: jp, st: st, rRows: r.NumRows()})
			if proto, err = jp.Proto(proto); err != nil {
				return nil, err
			}
		}
	}

	var sink exec.PipeSink
	var aggSink *exec.AggSink
	if pp.agg != nil && pp.restore == nil {
		var err error
		aggSink, err = exec.NewAggSink(proto, pp.agg.GroupBy, pp.agg.Aggs, env.Mem)
		if err != nil {
			return nil, err
		}
		sink = aggSink
	} else {
		sink = exec.NewCollectSink(proto)
	}

	// With tracing on, wrap every stage and the sink so per-morsel compute
	// time accumulates into Add-style spans (cumulative across pool
	// workers). The typed refs held above (scanFS, filters, joins, aggSink)
	// keep pointing at the inner stages, so post-run reporting is untouched.
	var timed []*timedStage
	if env.Trace != nil {
		for i, st := range stages {
			ts := &timedStage{inner: st, sp: env.Trace.Child("stage " + st.Label())}
			stages[i] = ts
			timed = append(timed, ts)
		}
		name := "stage collect"
		if aggSink != nil {
			name = "stage aggregate"
		}
		sink = &timedSink{inner: sink, sp: env.Trace.Child(name)}
	}

	ran = true
	ps, err := env.Pool.RunPipeline(src, stages, sink)
	if err != nil {
		return nil, err
	}
	out, err := sink.Finish()
	if err != nil {
		return nil, err
	}
	for _, ts := range timed {
		_, kept := ts.inner.Rows()
		ts.sp.AddRows(kept)
	}
	scanSp.AddRows(int64(scanRows))

	env.Stats.recordPipeline(ps.Morsels)
	if scanX != nil {
		if scanFS != nil {
			in, kept := scanFS.Rows()
			env.Stats.recordFilterStage(in, kept)
			o.Event("scan", fmt.Sprintf("%s: %d of %d rows pass %s", scanX.Table, kept, scanRows, exprList(scanX.Preds)))
		} else {
			o.Event("scan", fmt.Sprintf("%s: %d rows", scanX.Table, scanRows))
		}
	}
	if rc, ok := src.(RowsServedCounter); ok {
		o.Event("extract", fmt.Sprintf("lazy extraction produced %d universal-table rows", rc.RowsServed()))
	}
	for _, fi := range filters {
		in, kept := fi.st.Rows()
		env.Stats.recordFilterStage(in, kept)
		o.Event("filter", fmt.Sprintf("%s: %d -> %d rows", exprList(fi.x.Preds), in, kept))
	}
	for _, ji := range joins {
		js := ji.jp.Stats()
		probed, matches := ji.st.Rows()
		js.ProbeRows = int(probed)
		js.Matches = int(matches)
		env.Stats.recordJoin(js)
		build := "serial"
		if js.ParallelBuild {
			build = "parallel"
		}
		keyPath := "encoded"
		if js.IntKeys {
			keyPath = "packed-int"
		}
		o.Event("join", fmt.Sprintf("%s: %d x %d -> %d rows (build: %d rows, %d partitions, %s, %s keys; probed %d rows)",
			ji.x.Describe(), probed, ji.rRows, matches,
			js.BuildRows, js.Partitions, build, keyPath, probed))
	}
	if aggSink != nil {
		env.Stats.recordAgg(exec.AggStats{Rows: int(aggSink.RowsIn()), Groups: out.NumRows()})
		o.Event("aggregate", fmt.Sprintf("%d rows -> %d groups", aggSink.RowsIn(), out.NumRows()))
	}
	o.Event("pipeline", fmt.Sprintf("%d stage(s) fused over %d morsels", len(stages), ps.Morsels))

	if pp.restore != nil {
		rsp := env.Trace.StartChild("restore-order")
		if out, err = restoreOrder(out, pp.restore.RowIDs, pp.restore.Cols); err != nil {
			return nil, err
		}
		rsp.AddRows(int64(out.NumRows()))
		rsp.End()
		o.Event("restore-order", fmt.Sprintf("%d rows re-sequenced to the SQL join order", out.NumRows()))
		if pp.agg != nil {
			in := out.NumRows()
			asp := env.Trace.StartChild("aggregate")
			var as exec.AggStats
			if out, as, err = env.Pool.AggregateMem(env.Mem, out, pp.agg.GroupBy, pp.agg.Aggs); err != nil {
				return nil, err
			}
			asp.AddRows(int64(out.NumRows()))
			asp.End()
			env.Stats.recordAgg(as)
			o.Event("aggregate", fmt.Sprintf("%d rows -> %d groups", in, out.NumRows()))
		}
	}

	// Post-pipeline breakers, innermost first.
	for i := len(pp.post) - 1; i >= 0; i-- {
		switch x := pp.post[i].(type) {
		case *Project:
			psp := env.Trace.StartChild("project")
			if out, err = exec.Project(out, x.Exprs, x.Names); err != nil {
				return nil, err
			}
			psp.End()
		case *Sort:
			ssp := env.Trace.StartChild("sort")
			var ss exec.SortStats
			if out, ss, err = env.Pool.SortWithStats(out, x.Keys); err != nil {
				return nil, err
			}
			ssp.AddRows(int64(out.NumRows()))
			ssp.End()
			env.Stats.recordSort(ss)
			if ss.Strategy != exec.SortStrategyNone {
				o.Event("sort", fmt.Sprintf("%s sort of %d rows (%d runs)", ss.Strategy, ss.Rows, ss.Runs))
			}
		case *Limit:
			out = exec.Limit(out, x.N)
		}
	}
	return out, nil
}
