package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// steadiness runs the workload n times per set, each run in its own
// process with its own seed (seed, seed+1, ...), and prints each
// metric's median, quartiles and (q3−q1)/median beside its bound from
// BENCHMARK.json. With several sets it also prints each later set's
// median change against the first set's, in the metric's worse
// direction — the "two sets of runs agree" check.
func steadiness(workload string, seed int64, seconds, trace, n, sets int) error {
	spec, err := loadBenchSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	bound := map[string]float64{}
	better := map[string]string{}
	for _, m := range spec.EndToEnd {
		bound[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	medians := make([]map[string]float64, sets)
	for s := 0; s < sets; s++ {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			runSeed := seed + int64(i)
			rep, err := runOnce(self, workload, runSeed, seconds, trace)
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", s+1, runSeed, err)
			}
			if !rep.Correct {
				return fmt.Errorf("set %d seed %d: run reported incorrect output (%d of %d failed)", s+1, runSeed, rep.Failed, rep.Attempted)
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d run %d/%d (seed %d) done\n", s+1, i+1, n, runSeed)
		}
		medians[s] = map[string]float64{}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("set %d: workload=%s runs=%d seeds=%d..%d trace=%d\n", s+1, workload, n, seed, seed+int64(n)-1, trace)
		tw := tabwriter.NewWriter(os.Stdout, 0, 2, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tq1\tmedian\tq3\tspread\tbound\tspread/bound\t")
		for _, name := range names {
			q1, q2, q3, err := quartiles(values[name])
			if err != nil {
				return err
			}
			medians[s][name] = q2
			spread := "-"
			if q2 != 0 {
				spread = fmt.Sprintf("%.4f", (q3-q1)/q2)
			}
			b, ratio := "-", "-"
			if bd, ok := bound[name]; ok {
				b = fmt.Sprintf("%.3f", bd)
				if q2 != 0 {
					ratio = fmt.Sprintf("%.2f", (q3-q1)/q2/bd)
				}
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%s\t%s\t%s\t\n", name, q1, q2, q3, spread, b, ratio)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	for s := 1; s < sets; s++ {
		fmt.Printf("set %d vs set 1: median change in the worse direction, beside the bound\n", s+1)
		tw := tabwriter.NewWriter(os.Stdout, 0, 2, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tset 1\tset "+strconv.Itoa(s+1)+"\tworse by\tbound\t")
		names := make([]string, 0, len(medians[0]))
		for name := range medians[0] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := medians[0][name], medians[s][name]
			worse := 0.0
			if a != 0 {
				worse = (b - a) / a
				if better[name] == "higher" {
					worse = -worse
				}
			}
			bd := "-"
			if v, ok := bound[name]; ok {
				bd = fmt.Sprintf("%.3f", v)
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%+.4f\t%s\t\n", name, a, b, worse, bd)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// runOnce runs one benchmark process and parses its result line.
func runOnce(self, workload string, seed int64, seconds, trace int) (report, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, err
	}
	return lastReport(out.Bytes())
}

// lastReport parses the result line: the last non-empty line of stdout.
func lastReport(out []byte) (report, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return report{}, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return rep, nil
}
