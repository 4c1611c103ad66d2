package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/coverage"
	"profipy/internal/faultmodel"
	"profipy/internal/interp"
	"profipy/internal/mutator"
	"profipy/internal/obs"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/resultstore"
	"profipy/internal/runtimefault"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// span is one timed call into a layer. Spans nest: Parent is the span
// that was open when this one began (0 for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. The replay runs on
// one goroutine, so an open-span stack gives every span its parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// total sums the durations and counts of the spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// mean is the mean duration of the spans named name, in unit.
func (t *tracer) mean(name string, unit time.Duration) float64 {
	d, n := t.total(name)
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(unit)
}

// replayStats are the counts a replay measures at the layer boundaries.
type replayStats struct {
	points    int
	snapshots int
	// forkHits counts experiments resumed from a prefix snapshot.
	forkHits int
	// withFiles counts experiment derivations; incremental and cacheHits
	// how many of them took the declaration-level fast path and the
	// content-hash cache.
	withFiles, incremental, cacheHits int
	// steps are the round steps of experiments run straight through.
	steps int64
}

// replayer holds one campaign's prepared state while its experiments
// replay.
type replayer struct {
	c        *campaign.Campaign
	rt       *sandbox.Runtime
	tr       *tracer
	st       *replayStats
	cache    *scanner.ProjectCache
	pl       *plan.Plan
	covered  map[string]bool
	models   map[string]*pattern.MetaModel
	rtFaults map[string]*runtimefault.Fault
	prefixes *workload.PrefixSet
}

// replay runs one campaign the way campaign.Campaign.Run does, but
// through each layer's public calls with a span around every call:
// scan and plan, base compile, coverage, the prefix build when forking,
// and per experiment its derivation, sandbox, workload run and
// analysis. It returns the records in plan order.
func replay(c *campaign.Campaign, rt *sandbox.Runtime, tr *tracer, st *replayStats) ([]analysis.Record, *analysis.Report, error) {
	root := tr.begin("op")
	defer tr.end(root)
	r := &replayer{c: c, rt: rt, tr: tr, st: st}

	sp := tr.begin("plan.build")
	r.cache = scanner.NewProjectCache(scanSubset(c))
	pl, err := plan.BuildFromCache(r.cache, c.Faultload)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	r.pl = pl
	st.points += len(pl.Points)

	sp = tr.begin("interp.compile_base")
	base := compileBase(c, r.cache)
	tr.end(sp)

	wcfg := c.Workload
	wcfg.Program = base
	wcfg.Engine = c.Engine
	boot := wcfg.Env
	wcfg.Env = func(it *interp.Interp, ctr *sandbox.Container) {
		id := tr.begin("kvclient.env_boot")
		boot(it, ctr)
		tr.end(id)
	}

	sp = tr.begin("coverage.analyze")
	r.covered, err = coverage.AnalyzeCached(rt, c.Image, c.Files, r.cache, pl.Points, wcfg)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}

	compiled, rtFaults, err := faultmodel.CompileSplit(c.Faultload)
	if err != nil {
		return nil, nil, err
	}
	r.rtFaults = rtFaults
	r.models = make(map[string]*pattern.MetaModel, len(compiled))
	for _, mm := range compiled {
		if _, isRuntime := rtFaults[mm.Name]; !isRuntime {
			r.models[mm.Name] = mm
		}
	}

	if c.PrefixFork && base != nil {
		r.prefixes = r.buildPrefixes(wcfg)
		st.snapshots += r.prefixes.Stats().Snapshots
	}

	var hits0, incr0 uint64
	if base != nil {
		hits0, _ = base.CacheStats()
		incr0 = base.IncrementalRecompiles()
	}
	agg, err := analysis.NewAggregator(c.Analysis)
	if err != nil {
		return nil, nil, err
	}
	records := make([]analysis.Record, len(pl.Points))
	for i := range records {
		records[i] = r.experiment(i, wcfg)
		sp := tr.begin("analysis.add")
		agg.Add(records[i])
		tr.end(sp)
	}
	if base != nil {
		hits, _ := base.CacheStats()
		st.cacheHits += int(hits - hits0)
		st.incremental += int(base.IncrementalRecompiles() - incr0)
	}
	return records, agg.Report(), nil
}

// compileBase compiles the workload's files once, reusing the scan's
// parses, as the campaign's compile phase does; nil selects the
// tree-walk fallback.
func compileBase(c *campaign.Campaign, cache *scanner.ProjectCache) *interp.Program {
	units := make([]interp.SourceUnit, 0, len(c.Workload.Files))
	for _, name := range c.Workload.Files {
		if pf, err := cache.Get(name); err == nil {
			units = append(units, interp.SourceUnit{Name: name, Src: pf.Src, AST: pf.File})
			continue
		}
		src, ok := c.Files[name]
		if !ok {
			return nil
		}
		units = append(units, interp.SourceUnit{Name: name, Src: src})
	}
	prog, err := interp.CompileProgram(units)
	if err != nil {
		return nil
	}
	return prog
}

// buildPrefixes runs the base program once in a scratch container,
// snapshotting at each injection site's first reach.
func (r *replayer) buildPrefixes(wcfg workload.Config) *workload.PrefixSet {
	sp := r.tr.begin("workload.prefix_build")
	defer r.tr.end(sp)
	seen := map[string]bool{}
	var sites []string
	for _, pt := range r.pl.Points {
		if pt.Func != "" && !seen[pt.Func] {
			seen[pt.Func] = true
			sites = append(sites, pt.Func)
		}
	}
	img := r.c.Image
	img.Files = r.c.Files
	ctr := r.rt.CreateSeeded(img, r.c.Seed)
	defer func() { _ = r.rt.Destroy(ctr) }()
	ps, err := workload.BuildPrefixes(ctr, wcfg, sites)
	if err != nil {
		return nil
	}
	return ps
}

// experiment runs plan index i: derive the experiment (a runtime
// injector, or a mutated source and its recompiled program), resume it
// from its site's prefix when forking, else run it in a fresh container.
// Seeds derive from the campaign seed and the plan index, as in the
// campaign, so the record bytes must match the campaign's.
func (r *replayer) experiment(i int, wcfg workload.Config) analysis.Record {
	tr := r.tr
	root := tr.begin("experiment")
	defer tr.end(root)
	pt := r.pl.Points[i]
	rec := analysis.Record{Point: pt, FaultType: r.pl.TypeOf(pt), Covered: r.covered[pt.ID()]}
	seed := r.c.Seed + int64(i) + 1
	img := r.c.Image
	img.Files = r.c.Files

	var eng *runtimefault.Engine
	newEngine := func() bool {
		fault := *r.rtFaults[pt.Spec]
		fault.Site = pt.Func
		e, err := runtimefault.NewEngine([]runtimefault.Fault{fault}, seed)
		if err != nil {
			return false
		}
		eng = e
		wcfg.Injector = e
		return true
	}
	if _, ok := r.rtFaults[pt.Spec]; ok {
		if !newEngine() {
			return rec
		}
	} else {
		mm, ok := r.models[pt.Spec]
		if !ok {
			return rec
		}
		pf, err := r.cache.Get(pt.File)
		if err != nil {
			return rec
		}
		sp := tr.begin("mutator.apply")
		mut, err := mutator.ApplyParsed(pf, mm, pt, mutator.Options{Triggered: true})
		tr.end(sp)
		if err != nil {
			return rec
		}
		img.Overlay = map[string][]byte{pt.File: mut.Source}
		if wcfg.Program != nil {
			sp := tr.begin("interp.with_files")
			prog, err := wcfg.Program.WithFiles(img.Overlay)
			tr.end(sp)
			r.st.withFiles++
			if err == nil {
				wcfg.Program = prog
			} else {
				wcfg.Program = nil
			}
		}
	}

	if pre := r.prefixes.For(pt.Func); pre != nil && wcfg.Program != nil && pt.Func != "" {
		ctr := r.create(img, seed)
		sp := tr.begin("workload.fork_run")
		result, ok, _ := workload.RunForked(ctr, wcfg, workload.ForkSpec{Prefix: pre, BaseFiles: r.c.Files, Overlay: img.Overlay})
		tr.end(sp)
		r.destroy(ctr)
		if ok {
			r.st.forkHits++
			rec.Result = result
			if eng != nil {
				rec.Injections = eng.Report()
			}
			return rec
		}
		// The aborted fork may have advanced the injector; the straight
		// run starts from a fresh one, as in the campaign.
		if eng != nil && !newEngine() {
			return rec
		}
	}

	ctr := r.create(img, seed)
	sp := tr.begin("workload.run")
	result, err := workload.Run(ctr, wcfg)
	tr.end(sp)
	r.destroy(ctr)
	if err != nil {
		return rec
	}
	for _, rr := range result.Rounds {
		r.st.steps += rr.Steps
	}
	rec.Result = result
	if eng != nil {
		rec.Injections = eng.Report()
	}
	return rec
}

func (r *replayer) create(img sandbox.Image, seed int64) *sandbox.Container {
	sp := r.tr.begin("sandbox.create")
	defer r.tr.end(sp)
	return r.rt.CreateSeeded(img, seed)
}

func (r *replayer) destroy(ctr *sandbox.Container) {
	sp := r.tr.begin("sandbox.destroy")
	defer r.tr.end(sp)
	_ = r.rt.Destroy(ctr)
}

// replayStore writes one op's records through a fresh persistent store
// the way the service does for a job and returns the store's fsyncs.
func replayStore(tr *tracer, c *campaign.Campaign, records []analysis.Record, rep *analysis.Report) (float64, error) {
	dir, err := os.MkdirTemp(benchDir, "replay-store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := resultstore.Open(filepath.Join(dir, "data"))
	if err != nil {
		return 0, err
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	err = storeJob(tr, st, c, records, rep)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return reg.Counter("profipy_resultstore_fsyncs_total", "").Value(), err
}

// storeJob journals the job queued (with the project files, as the
// service's write-ahead entry carries them) and running, streams the
// records, finishes the campaign, journals it done, then pages every
// record back.
func storeJob(tr *tracer, st *resultstore.Store, c *campaign.Campaign, records []analysis.Record, rep *analysis.Report) error {
	payload, err := json.Marshal(map[string]any{"project": c.Name, "files": c.Files})
	if err != nil {
		return err
	}
	const job, camp = "job-1", "camp-1"
	journal := func(state string, payload []byte) error {
		sp := tr.begin("resultstore.journal_append")
		defer tr.end(sp)
		return st.AppendJournal(resultstore.JournalEntry{Job: job, State: state, Campaign: camp, Payload: payload})
	}
	if err := journal(resultstore.JournalQueued, payload); err != nil {
		return err
	}
	if err := journal(resultstore.JournalRunning, nil); err != nil {
		return err
	}
	w, err := st.StartCampaign(resultstore.Meta{ID: camp, Project: c.Name})
	if err != nil {
		return err
	}
	for _, rec := range records {
		sp := tr.begin("resultstore.append")
		err := w.Append(rec)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.begin("resultstore.finish")
	err = w.Finish(resultstore.StatusDone, nil, rep)
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := journal(resultstore.JournalDone, nil); err != nil {
		return err
	}
	read := 0
	for after := int64(0); ; {
		sp := tr.begin("resultstore.read")
		page, err := st.Records(camp, after, 100)
		tr.end(sp)
		if err != nil {
			return err
		}
		read += len(page.Records)
		if page.Done || len(page.Records) == 0 {
			break
		}
		after = page.Next
	}
	if read != len(records) {
		return fmt.Errorf("store read back %d of %d records", read, len(records))
	}
	return nil
}
