// Command perfbench is ProFIPy's end-to-end campaign benchmark.
//
// One run measures one workload in a fresh process: it drives a fixed
// number of whole campaigns from a single closed-loop client, in nine
// parts each after a fresh set-up (inputs, server, store, warm-up ops),
// checks every result, and prints one JSON object as its last line of
// standard output. With --trace 1 it additionally replays a sample of
// the ops through each layer's public calls with a timer around every
// call and reports per-layer metrics instead of the end-to-end ones.
//
//	bash perfbench/run.sh --workload late-fork --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh steady --runs 10
//
// Run it from the repository root: the store's data dirs and the
// traced run's span file live under .bench_build/ there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// processStart anchors the first set-up measurement: set-up time runs
// from process start to the first timed op.
var processStart = time.Now()

// benchDir holds everything a run writes, relative to the checkout root.
const benchDir = ".bench_build/perfbench"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: late-fork or service-jobs")
	seed := fs.Int64("seed", 1, "workload seed; every campaign seed of the run is drawn from it")
	seconds := fs.Int("seconds", 10, "run length; the op count is sized so a run measures about this long on the reference machine")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	traceOut := fs.String("trace-out", "", "file the traced run writes its spans to (default "+benchDir+"/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (late-fork, service-jobs), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if *traceOut == "" {
		*traceOut = fmt.Sprintf("%s/trace-%s-%d.json", benchDir, def.name, *seed)
	}
	b := &bench{def: def, seed: *seed, seconds: *seconds, traced: *traced == 1, traceOut: *traceOut}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workloadDef is one closed-loop workload: a rotation of campaign kinds
// run in-process or through the service.
type workloadDef struct {
	name string
	// rotation is the fixed op order; every run does whole rotations.
	rotation []string
	// fork runs the campaigns with prefix-snapshot forking on.
	fork bool
	// service drives the ops through the HTTP API of an in-process
	// saas.Server instead of campaign.Campaign.Run.
	service bool
	// opsPerSecond sizes a run: a run does seconds×opsPerSecond ops,
	// rounded up to whole rotations (about one run length on the
	// 2-core reference machine while its host is loaded; a quiet one
	// finishes in under half of it).
	opsPerSecond float64
}

var workloads = map[string]workloadDef{
	"late-fork":    {name: "late-fork", rotation: []string{"late"}, fork: true, opsPerSecond: 28},
	"service-jobs": {name: "service-jobs", rotation: []string{"A", "B", "C", "R"}, service: true, opsPerSecond: 12},
}

// setupRounds is how often a run sets up, each time before an equal
// part of the timed ops; setup_s is their median.
const setupRounds = 9

// warmOps is how many warm-up ops each set-up runs: one rotation of
// service-jobs.
const warmOps = 4

// sampleOps is how many of the first timed ops the traced run replays:
// two rotations of service-jobs.
const sampleOps = 8

// bench is one run's state.
type bench struct {
	def      workloadDef
	seed     int64
	seconds  int
	traced   bool
	traceOut string

	cores int
	env   *campaignEnv
	svc   *service // service-jobs only, nil once torn down

	attempted, failed int
}

// check counts one per-run correctness check.
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %v\n", what, err)
	}
}

// opCount is the run's fixed number of timed ops: whole rotations.
func (b *bench) opCount() int {
	n := int(math.Ceil(float64(b.seconds) * b.def.opsPerSecond))
	r := len(b.def.rotation)
	return (n + r - 1) / r * r
}

// opSpec names one op: a campaign kind and the campaign seed drawn for it.
type opSpec struct {
	kind string
	seed int64
}

// schedule draws the run's ops from the workload seed: kinds rotate in
// the fixed order, campaign seeds come from the seed's stream.
func (b *bench) schedule(n int, rng *rand.Rand) []opSpec {
	ops := make([]opSpec, n)
	for i := range ops {
		ops[i] = opSpec{kind: b.def.rotation[i%len(b.def.rotation)], seed: rng.Int63n(1 << 40)}
	}
	return ops
}

func (b *bench) run() (*result, error) {
	b.cores = runtime.NumCPU()
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return nil, err
	}
	// Warm-up ops draw their campaign seeds from their own stream, so
	// the timed ops are the same with and without tracing.
	warmRNG := rand.New(rand.NewSource(^b.seed))
	ops := b.schedule(b.opCount(), rand.New(rand.NewSource(b.seed)))

	// Set up before each of setupRounds equal parts of the timed ops and
	// report the median: a burst of machine contention then skews one
	// set-up, not setup_s. The traced run sets up once.
	rounds := setupRounds
	if b.traced {
		rounds = 1
	}
	rotations := len(ops) / len(b.def.rotation)
	m := newMeter()
	var setups []float64
	var first *opOut
	var sample []*opOut
	start := processStart
	for k := 0; k < rounds; k++ {
		if err := b.setup(b.schedule(warmOps, warmRNG)); err != nil {
			_ = b.teardown(false)
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k == 0 {
			b.printEnv()
			if b.traced && b.def.service {
				if err := b.svc.markFsyncs(); err != nil {
					_ = b.teardown(false)
					return nil, err
				}
			}
		}
		lo := k * rotations / rounds * len(b.def.rotation)
		hi := (k + 1) * rotations / rounds * len(b.def.rotation)
		for i := lo; i < hi; i++ {
			out := b.timedOp(i, ops[i], m)
			if out != nil && i == 0 {
				first = out
			}
			if out != nil && b.traced && i < sampleOps {
				sample = append(sample, out)
			}
		}
		if k < rounds-1 {
			if err := b.teardown(true); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		start = time.Now()
	}
	if first != nil {
		b.runChecks(first)
	} else {
		b.check("first op succeeded", fmt.Errorf("no record of the first op"))
	}

	var metrics map[string]metric
	if b.traced {
		var err error
		if metrics, err = b.traceLayers(sample, m); err != nil {
			_ = b.teardown(false)
			return nil, err
		}
	} else {
		metrics = m.endToEnd(median(setups))
	}
	if err := b.teardown(true); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// timedOp runs and checks op i inside the meter's window; nil means it
// failed (and is counted so).
func (b *bench) timedOp(i int, spec opSpec, m *meter) *opOut {
	w := m.begin()
	out, err := b.op(spec, m)
	m.end(w)
	b.attempted++
	if err == nil {
		err = b.checkOp(out)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: op %d (%s seed %d) failed: %v\n", i, spec.kind, spec.seed, err)
		return nil
	}
	m.addOp(out)
	return out
}

// setup builds the inputs (and for service-jobs the server and its
// store) and runs the warm-up ops.
func (b *bench) setup(warm []opSpec) error {
	env, err := newCampaignEnv(b.cores)
	if err != nil {
		return err
	}
	b.env = env
	if b.def.service {
		if b.svc, err = startService(b.cores); err != nil {
			return err
		}
	}
	for _, spec := range warm {
		out, err := b.op(spec, nil)
		if err == nil {
			err = b.checkOp(out)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", spec.kind, err)
		}
	}
	return nil
}

// teardown stops the service, if any, and removes its data dir. With
// check set it first checks that the reopened store lists every job.
func (b *bench) teardown(check bool) error {
	if b.svc == nil {
		return nil
	}
	svc := b.svc
	b.svc = nil
	svc.stop()
	if check {
		b.check("reopened store lists every job done", svc.checkReopen())
	}
	return os.RemoveAll(svc.dir)
}

// op runs one campaign of the workload.
func (b *bench) op(spec opSpec, m *meter) (*opOut, error) {
	if b.def.service {
		return b.svc.job(spec, m, b.env.planLen[spec.kind])
	}
	return b.env.campaign(spec, b.def.fork, m)
}

// printEnv prints the machine and toolchain the run measured on; the
// store data dirs live under benchDir.
func (b *bench) printEnv() {
	fmt.Printf("env: workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s cpu=%q datadir_fs=%s ops=%d\n",
		b.def.name, b.seed, b.cores, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsTypeOf(benchDir), b.opCount())
}
