package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"profipy/internal/analysis"
)

// traceLayers runs each sampled op's campaign once untraced in-process
// (the reference for the tracing overhead), then replays every
// experiment of it through the layers' public calls, checks that each
// replayed record byte-equals the record the timed op produced at the
// same plan index (service ops: the streamed record of the same
// injection point), replays each op's records through the result
// store, writes the spans out and returns the per-layer metrics. Metrics of a layer the workload does
// not reach (prefix and fork off the fork path, the HTTP layer off the
// service) read 0.
func (b *bench) traceLayers(sample []*opOut, m *meter) (map[string]metric, error) {
	var fsyncs, jobs float64
	if b.def.service {
		n, j, err := b.svc.fsyncsSinceMark()
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %w", err)
		}
		fsyncs, jobs = n, float64(j)
	}

	tr := newTracer()
	var st replayStats
	var replayExps int
	var replayTime time.Duration
	var storeFsyncs float64
	// The overhead's reference: each sampled campaign run untraced through
	// campaign.Campaign.Run in this process, before its replay on even
	// ops and after it on odd ones, so warm-up favours neither side.
	// Each op gives a ratio of replay to untraced time; the overhead is
	// their median, so a burst of machine contention that hits one side
	// of one pair does not set it.
	var ratios []float64
	plainRun := func(spec opSpec) time.Duration {
		start := time.Now()
		_, err := b.env.campaign(spec, b.def.fork, nil)
		d := time.Since(start)
		b.check("untraced in-process run ("+spec.kind+")", err)
		if err != nil {
			return 0
		}
		return d
	}
	replayOp := func(out *opOut) (time.Duration, error) {
		c := builders[out.spec.kind](b.env.rt, out.spec.seed)
		c.PrefixFork = b.def.fork
		start := time.Now()
		records, rep, err := replay(c, b.env.rt, tr, &st)
		d := time.Since(start)
		replayTime += d
		if err == nil {
			replayExps += len(records)
			err = sameAtPlanIndex(out, records)
		}
		b.check("replayed records equal the op's ("+out.spec.kind+")", err)
		if err != nil {
			return 0, nil
		}
		n, err := replayStore(tr, c, records, rep)
		if err != nil {
			return 0, fmt.Errorf("store replay: %w", err)
		}
		storeFsyncs += n
		return d, nil
	}
	for i, out := range sample {
		var plain time.Duration
		if i%2 == 0 {
			plain = plainRun(out.spec)
		}
		traced, err := replayOp(out)
		if err != nil {
			return nil, err
		}
		if i%2 == 1 {
			plain = plainRun(out.spec)
		}
		if plain > 0 && traced > 0 {
			ratios = append(ratios, traced.Seconds()/plain.Seconds())
		}
	}
	if !b.def.service {
		fsyncs, jobs = storeFsyncs, float64(len(sample))
	}
	if err := writeSpans(b.traceOut, tr.spans); err != nil {
		return nil, err
	}

	exps := float64(replayExps)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	traced := ratio(exps, replayTime.Seconds())
	runTime, _ := tr.total("workload.run")
	execUS := ratio(float64(m.execNS)/1e3, float64(m.exps))
	layerUS := 0.0
	for _, name := range []string{"experiment", "analysis.add", "workload.prefix_build"} {
		d, _ := tr.total(name)
		layerUS += float64(d.Microseconds())
	}
	ms, us := time.Millisecond, time.Microsecond
	readTime, _ := tr.total("resultstore.read")
	_, appends := tr.total("resultstore.append")
	return map[string]metric{
		"plan.build_ms":                 {tr.mean("plan.build", ms), "ms"},
		"plan.points":                   {ratio(float64(st.points), float64(len(sample))), "count"},
		"interp.compile_base_ms":        {tr.mean("interp.compile_base", ms), "ms"},
		"coverage.analyze_ms":           {tr.mean("coverage.analyze", ms), "ms"},
		"workload.prefix_build_ms":      {tr.mean("workload.prefix_build", ms), "ms"},
		"workload.snapshots":            {ratio(float64(st.snapshots), float64(len(sample))), "count"},
		"mutator.apply_us":              {tr.mean("mutator.apply", us), "us"},
		"interp.with_files_us":          {tr.mean("interp.with_files", us), "us"},
		"interp.incremental_ratio":      {ratio(float64(st.incremental), float64(st.withFiles)), "ratio"},
		"interp.cache_hit_ratio":        {ratio(float64(st.cacheHits), float64(st.withFiles)), "ratio"},
		"sandbox.create_us":             {tr.mean("sandbox.create", us), "us"},
		"sandbox.destroy_us":            {tr.mean("sandbox.destroy", us), "us"},
		"kvclient.env_boot_us":          {tr.mean("kvclient.env_boot", us), "us"},
		"workload.run_ms":               {tr.mean("workload.run", ms), "ms"},
		"interp.msteps_per_s":           {ratio(float64(st.steps)/1e6, runTime.Seconds()), "Msteps/s"},
		"workload.fork_run_ms":          {tr.mean("workload.fork_run", ms), "ms"},
		"workload.fork_hit_ratio":       {ratio(float64(st.forkHits), exps), "ratio"},
		"analysis.add_us":               {tr.mean("analysis.add", us), "us"},
		"executor.execute_ms_per_exp":   {execUS / 1e3, "ms"},
		"executor.self_us_per_exp":      {execUS - ratio(layerUS, exps), "us"},
		"resultstore.append_us":         {tr.mean("resultstore.append", us), "us"},
		"resultstore.finish_ms":         {tr.mean("resultstore.finish", ms), "ms"},
		"resultstore.journal_append_ms": {tr.mean("resultstore.journal_append", ms), "ms"},
		"resultstore.read_us":           {ratio(float64(readTime.Microseconds()), float64(appends)), "us"},
		"resultstore.fsyncs_per_job":    {ratio(fsyncs, jobs), "count"},
		"saas.submit_ms":                {ratio(float64(m.submitNS)/1e6, float64(m.ops)), "ms"},
		"saas.report_fetch_ms":          {ratio(float64(m.fetchNS)/1e6, float64(m.ops)), "ms"},
		"saas.stream_bytes_per_record":  {ratio(float64(m.streamBytes), float64(m.exps)), "B"},
		"gc.cycles_per_kexp":            {m.perExp(m.gcCycles * 1e3), "count"},
		"gc.cpu_ms_per_exp":             {m.perExp(m.gcCPU * 1e3), "ms"},
		"trace.exp_per_s":               {traced, "1/s"},
		"trace.overhead_pct":            {(median(ratios) - 1) * 100, "%"},
	}, nil
}

// sameAtPlanIndex checks that the replay's records byte-equal the op's
// at the same plan index. Service ops deliver records in completion
// order, so their streamed lines are matched by injection point.
func sameAtPlanIndex(out *opOut, records []analysis.Record) error {
	replayed := &opOut{records: records}
	if out.lines != nil {
		return sameRecords(recordsByID(out), recordsByID(replayed))
	}
	if len(records) != len(out.records) {
		return fmt.Errorf("%d records replayed, the op has %d", len(records), len(out.records))
	}
	for i := range records {
		want, err1 := json.Marshal(out.records[i])
		got, err2 := json.Marshal(records[i])
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			return fmt.Errorf("plan index %d (%s) differs", i, records[i].Point.ID())
		}
	}
	return nil
}

// writeSpans writes the traced run's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
