package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// runtime/metrics samples a meter reads at op boundaries.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mHeapLive   = "/gc/heap/live:bytes"
)

// meter accumulates the end-to-end metrics over the timed ops. Process
// counters (CPU, allocation, GC) are read at each op's start and end,
// so the checks that run between ops stay out of them.
type meter struct {
	win  []metrics.Sample
	heap []metrics.Sample // sampleHeap's own, read from the record path
	// peak is the live heap's peak within the current op; opPeaks holds
	// it for every timed op.
	peak    atomic.Uint64
	opPeaks []float64

	ops       int
	exps      int
	opSeconds float64
	durs      []float64
	firsts    []float64
	cpu       float64
	alloc     float64
	gcCycles  float64
	gcCPU     float64
	execNS    int64

	// Service ops: submit and view-fetch latency sums, stream bytes.
	submitNS, fetchNS int64
	streamBytes       int
}

func newMeter() *meter {
	return &meter{
		win:  []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}},
		heap: []metrics.Sample{{Name: mHeapLive}},
	}
}

// window is a reading of the process counters at an op's start.
type window struct {
	cpu, alloc, cycles, gcCPU float64
}

func (m *meter) read() window {
	metrics.Read(m.win)
	return window{
		cpu:    cpuSeconds(),
		alloc:  float64(m.win[0].Value.Uint64()),
		cycles: float64(m.win[1].Value.Uint64()),
		gcCPU:  m.win[2].Value.Float64(),
	}
}

func (m *meter) begin() window {
	m.peak.Store(0)
	m.sampleHeap()
	return m.read()
}

// end adds the counters' growth since begin.
func (m *meter) end(w window) {
	now := m.read()
	m.cpu += now.cpu - w.cpu
	m.alloc += now.alloc - w.alloc
	m.gcCycles += now.cycles - w.cycles
	m.gcCPU += now.gcCPU - w.gcCPU
	m.sampleHeap()
	m.opPeaks = append(m.opPeaks, float64(m.peak.Load()))
}

// addOp records a checked op's latencies and experiment count.
func (m *meter) addOp(out *opOut) {
	m.ops++
	m.exps += len(out.records)
	m.opSeconds += out.dur.Seconds()
	m.durs = append(m.durs, out.dur.Seconds())
	m.firsts = append(m.firsts, out.first.Seconds())
	m.execNS += out.execTime.Nanoseconds()
	m.submitNS += out.submit.Nanoseconds()
	m.fetchNS += out.fetch.Nanoseconds()
	m.streamBytes += out.streamBytes
}

// sampleHeap folds the live heap (as of the last GC) into the peak. It
// is called as each record arrives; a nil meter (warm-up, checks)
// ignores it.
func (m *meter) sampleHeap() {
	if m == nil {
		return
	}
	metrics.Read(m.heap)
	v := m.heap[0].Value.Uint64()
	for {
		p := m.peak.Load()
		if v <= p || m.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (m *meter) expPerSecond() float64 {
	if m.opSeconds == 0 {
		return 0
	}
	return float64(m.exps) / m.opSeconds
}

// perExp divides a total by the experiment count.
func (m *meter) perExp(v float64) float64 {
	if m.exps == 0 {
		return 0
	}
	return v / float64(m.exps)
}

// endToEnd is the untraced run's metric set.
func (m *meter) endToEnd(setup float64) map[string]metric {
	return map[string]metric{
		"exp_per_s":          {m.expPerSecond(), "1/s"},
		"campaign_s_p50":     {quantile(m.durs, 0.5), "s"},
		"first_record_s_p50": {quantile(m.firsts, 0.5), "s"},
		"cpu_ms_per_exp":     {m.perExp(m.cpu * 1e3), "ms"},
		"alloc_kb_per_exp":   {m.perExp(m.alloc / 1024), "KB"},
		"peak_heap_mb":       {quantile(m.opPeaks, 0.9) / (1 << 20), "MB"},
		"setup_s":            {setup, "s"},
	}
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsTypeOf names the filesystem holding dir, from its statfs magic.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	default:
		return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
	}
}
