package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/kvclient"
	"profipy/internal/plan"
	"profipy/internal/sandbox"
)

// builders are the benchmark's campaigns: the paper's §V campaigns A, B
// and C, the mixed compile-time + runtime campaign R, and the late-site
// campaign whose injection sites are all reached after a long shared
// workload prefix (the case prefix forking exists for).
var builders = map[string]func(*sandbox.Runtime, int64) *campaign.Campaign{
	"A":    kvclient.CampaignA,
	"B":    kvclient.CampaignB,
	"C":    kvclient.CampaignC,
	"R":    kvclient.CampaignR,
	"late": kvclient.CampaignLate,
}

// campaignEnv is the inputs every op is built from.
type campaignEnv struct {
	// rt is sized from the machine: Cores = nproc, so the paper's N−1
	// rule gives nproc−1 experiment workers.
	rt *sandbox.Runtime
	// planLen is each campaign's plan length, from an independent scan.
	planLen map[string]int
	// runtimeSpecs names the faultload specs injected at run time; the
	// others are compile-time mutations.
	runtimeSpecs map[string]bool
}

func newCampaignEnv(cores int) (*campaignEnv, error) {
	e := &campaignEnv{
		rt:           sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: cores}),
		planLen:      map[string]int{},
		runtimeSpecs: map[string]bool{},
	}
	for kind, build := range builders {
		c := build(e.rt, 0)
		pl, err := plan.Build(scanSubset(c), c.Faultload)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", kind, err)
		}
		e.planLen[kind] = pl.Len()
		for _, s := range c.Faultload {
			if s.IsRuntime() {
				e.runtimeSpecs[s.Name] = true
			}
		}
	}
	return e, nil
}

// scanSubset is the file set a campaign scans (Campaign.ScanFiles of
// Files, or every file).
func scanSubset(c *campaign.Campaign) map[string][]byte {
	if len(c.ScanFiles) == 0 {
		return c.Files
	}
	out := make(map[string][]byte, len(c.ScanFiles))
	for _, name := range c.ScanFiles {
		if data, ok := c.Files[name]; ok {
			out[name] = data
		}
	}
	return out
}

// opOut is what one op produced.
type opOut struct {
	spec opSpec
	// dur runs from Run (or POST) to the report in hand; first to the
	// first experiment record.
	dur, first time.Duration
	// records in plan order (in-process ops); service ops fill it from
	// lines when checked.
	records []analysis.Record
	// lines are the streamed NDJSON records, in arrival order.
	lines  [][]byte
	report *analysis.Report
	// execTime is the campaign's execute phase.
	execTime time.Duration
	forkHits int

	// Service ops only: the raw campaign view, the POST and view-fetch
	// latencies and the stream's size.
	view          []byte
	submit, fetch time.Duration
	streamBytes   int
}

// campaign runs one in-process campaign op through campaign.Campaign.Run.
func (e *campaignEnv) campaign(spec opSpec, fork bool, m *meter) (*opOut, error) {
	c := builders[spec.kind](e.rt, spec.seed)
	c.PrefixFork = fork
	out := &opOut{spec: spec}
	start := time.Now()
	c.Sink = executor.SinkFunc(func(int, analysis.Record) {
		if out.first == 0 {
			out.first = time.Since(start)
		}
		m.sampleHeap()
	})
	res, err := c.Run()
	out.dur = time.Since(start)
	if err != nil {
		return nil, err
	}
	out.records = res.Records
	out.report = res.Report
	out.execTime = res.ExecTime
	out.forkHits = res.ForkHits
	return out, nil
}

// checkOp runs the per-op correctness checks: the record count equals
// the plan length with no nil Result, the report matches a recount from
// the records, compile-time mutations at points the fault-free run did
// not cover fail in neither round, and with forking on every experiment
// resumed from a snapshot.
func (b *bench) checkOp(out *opOut) error {
	if b.def.service {
		if err := decodeServiceOut(out); err != nil {
			return err
		}
	}
	want := b.env.planLen[out.spec.kind]
	if len(out.records) != want {
		return fmt.Errorf("%d records, plan has %d points", len(out.records), want)
	}
	var covered, failures, unavailable, available int
	for i, rec := range out.records {
		if rec.Result == nil || len(rec.Result.Rounds) != 2 {
			return fmt.Errorf("record %d (%s): no two-round result", i, rec.Point.ID())
		}
		r1, r2 := rec.Result.Rounds[0], rec.Result.Rounds[1]
		if rec.Covered {
			covered++
		} else if !b.env.runtimeSpecs[rec.Point.Spec] && (!r1.OK || !r2.OK) {
			return fmt.Errorf("record %d (%s): mutation at an uncovered point failed", i, rec.Point.ID())
		}
		// The paper's definitions: a failure is a failed round 1 (fault
		// enabled); it is unavailable when round 2 (fault disabled)
		// failed too; availability is the share with a healthy round 2.
		if !r1.OK {
			failures++
			if !r2.OK {
				unavailable++
			}
		}
		if r2.OK {
			available++
		}
	}
	rep := out.report
	availability := float64(available) / float64(len(out.records))
	if rep == nil || rep.Total != len(out.records) || rep.Covered != covered || rep.Failures != failures ||
		rep.Unavailable != unavailable || rep.Availability != availability {
		return fmt.Errorf("report does not match the records: got %+v, recount total=%d covered=%d failures=%d unavailable=%d availability=%v",
			rep, len(out.records), covered, failures, unavailable, availability)
	}
	if b.def.fork && out.forkHits != want {
		return fmt.Errorf("%d of %d experiments forked", out.forkHits, want)
	}
	return nil
}

// runChecks runs the once-per-run checks against the run's first op.
func (b *bench) runChecks(first *opOut) {
	again, err := b.op(first.spec, nil)
	if err == nil {
		err = b.checkOp(again)
	}
	if err == nil {
		err = sameRecords(recordsByID(first), recordsByID(again))
	}
	b.check("repeated op gives identical records", err)

	if b.def.fork {
		straight, err := b.env.campaign(first.spec, false, nil)
		if err == nil {
			err = sameRecords(recordsByID(first), recordsByID(straight))
		}
		b.check("fork off gives identical records", err)
	}
	if b.def.service {
		local, err := b.env.campaign(first.spec, false, nil)
		if err == nil {
			err = sameRecords(recordsByID(first), recordsByID(local))
		}
		b.check("streamed records equal an in-process run", err)
	}
}

// recordsByID maps each record's injection-point ID to its JSON bytes:
// the streamed line for service ops, the record's encoding otherwise. A
// repeated ID gets its occurrence number appended.
func recordsByID(out *opOut) map[string][]byte {
	m := make(map[string][]byte, len(out.records))
	seen := map[string]int{}
	for i, rec := range out.records {
		id := rec.Point.ID()
		seen[id]++
		if n := seen[id]; n > 1 {
			id += "#" + strconv.Itoa(n)
		}
		if out.lines != nil {
			m[id] = out.lines[i]
			continue
		}
		data, err := json.Marshal(rec)
		if err != nil {
			data = []byte("unencodable: " + err.Error())
		}
		m[id] = data
	}
	return m
}

// sameRecords reports the first difference between two record sets.
func sameRecords(want, got map[string][]byte) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !bytes.Equal(want[id], got[id]) {
			return fmt.Errorf("record %s differs", id)
		}
	}
	return nil
}
