package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the steadiness command needs.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyRun is one child run's outcome.
type steadyRun struct {
	Set      int     `json:"set"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *result `json:"result"`
}

// steadyMain runs two interleaved sets of untraced runs of this build
// and reports, per workload and end-to-end metric, each set's median
// and quartiles, and whether the sets agree within BENCHMARK.json's
// bounds: every quartile spread within the bound, the second median no
// worse than the first by more than the bound, and the same share of
// failed ops.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per set and workload")
	seconds := fs.Int("seconds", 0, "run length (default: BENCHMARK.json's run_seconds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: BENCHMARK.json: %v\n", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	all, err := runSets(names, *runs, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}
	if raw, err := json.MarshalIndent(all, "", " "); err == nil {
		_ = os.WriteFile(benchDir+"/steady.json", raw, 0o644)
	}

	agree := true
	for _, name := range names {
		fmt.Printf("\n%s (%d runs per set, %d s each)\n", name, *runs, *seconds)
		fmt.Printf("%-20s %-6s %12s %12s %12s %7s   %12s %12s %12s %7s  %6s  %s\n",
			"metric", "unit", "med1", "q1", "q3", "spread1", "med2", "q1", "q3", "spread2", "bound", "verdict")
		var failed, attempted [2]int
		for _, r := range all {
			if r.Workload == name {
				failed[r.Set] += r.Result.Failed
				attempted[r.Set] += r.Result.Attempted
			}
		}
		fmt.Printf("failed ops: %d of %d, %d of %d\n", failed[0], attempted[0], failed[1], attempted[1])
		if failed[0]*attempted[1] != failed[1]*attempted[0] {
			agree = false
			fmt.Println("FAIL: the sets fail different shares of their ops")
		}
		for _, m := range spec.EndToEnd {
			var med, q1, q3, spread [2]float64
			for set := 0; set < 2; set++ {
				var vals []float64
				for _, r := range all {
					if r.Workload == name && r.Set == set {
						vals = append(vals, r.Result.Metrics[m.Name].Value)
					}
				}
				med[set] = median(vals)
				q1[set], q3[set] = quartiles(vals)
				spread[set] = (q3[set] - q1[set]) / med[set]
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			var why []string
			if math.Max(spread[0], spread[1]) > m.Bound {
				why = append(why, "spread")
			}
			if worse > m.Bound {
				why = append(why, fmt.Sprintf("median %+.1f%%", 100*worse))
			}
			verdict := "ok"
			if len(why) > 0 {
				verdict = "FAIL " + strings.Join(why, ", ")
				agree = false
			} else if math.Max(spread[0], spread[1]) > m.Bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-20s %-6s %12.6g %12.6g %12.6g %6.2f%%   %12.6g %12.6g %12.6g %6.2f%%  %5.1f%%  %s\n",
				m.Name, m.Unit, med[0], q1[0], q3[0], 100*spread[0], med[1], q1[1], q3[1], 100*spread[1], 100*m.Bound, verdict)
		}
	}
	if agree {
		fmt.Println("\nthe two sets agree within the bounds")
		return 0
	}
	fmt.Println("\nthe two sets do NOT agree within the bounds")
	return 1
}

// runSets runs the two sets, interleaved: run i of set 0 and of set 1
// back to back, alternating which goes first, so drift of the machine
// hits both sets alike.
func runSets(names []string, runs, seconds int) ([]steadyRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var all []steadyRun
	for i := 0; i < runs; i++ {
		sets := []int{0, 1}
		if i%2 == 1 {
			sets = []int{1, 0}
		}
		for _, set := range sets {
			for _, name := range names {
				seed := int64(1000*(set+1) + i)
				res, err := runChild(self, name, seed, seconds)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s: exp_per_s=%.1f\n", set, i, name, res.Metrics["exp_per_s"].Value)
				all = append(all, steadyRun{Set: set, Workload: name, Seed: seed, Result: res})
			}
		}
	}
	return all, nil
}

// runChild runs one untraced benchmark run in a fresh process and
// returns the result its last stdout line carries.
func runChild(self, workload string, seed int64, seconds int) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), the definition the bounds are checked against.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
