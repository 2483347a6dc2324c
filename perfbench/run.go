package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/server"
)

// batchShare is the part of a batch workload's measured seconds spent
// on whole-fleet runs; the rest serves its small jobs.
const batchShare = 0.4

// minServed is the fewest submissions a served phase sends at each
// rate: above minTailSamples, so its p95 always has ten samples beyond
// it. A short --seconds stretches the phase rather than drop the p95.
const minServed = 240

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// batchReference is the digest every batch run of specs must produce:
// the pinned one at the default seed on amd64, where it was recorded,
// otherwise that of an untimed 1-worker pass.
func batchReference(ctx context.Context, w workload, specs []fleet.Spec, seed int64) (string, error) {
	if seed == defaultSeed && w.pinned != "" && runtime.GOARCH == "amd64" {
		return w.pinned, nil
	}
	ref, err := runFleet(ctx, specs, 1, w.stream)
	if err != nil {
		return "", err
	}
	fmt.Printf("reference digest (1 worker): %s\n", ref)
	return ref, nil
}

// servedResult is one served phase: the submissions and outcomes at the
// lo and hi rates, and what each cost.
type servedResult struct {
	subs      [2][]submission
	outs      [2][]outcome
	oks       [2][]bool
	cpu, wall time.Duration
	scraped   map[string]float64
}

// rateNames labels the two offered rates.
var rateNames = [2]string{"lo", "hi"}

// rounds is how many interleaved rounds the measured seconds are split
// into — batch runs, then the lo rate, then the hi rate, in each round —
// so every metric samples the whole run rather than one stretch of it,
// and a few slow seconds of a shared host move it less.
const rounds = 3

// servedPhase starts the daemon and offers the workload's job mix at its
// lo and hi rates, window/2 each in total (at least minServed
// submissions per rate), split into interleaved rounds; between(r), when
// set, runs first in round r. Afterwards — outside the timed region — it
// checks every result against an in-process run. Spans of the rounds and
// of every request go to tr when it is non-nil.
func servedPhase(ctx context.Context, w workload, seed int64, window time.Duration, nproc int, tr *tracer, between func(round int) error) (servedResult, error) {
	var sr servedResult
	d, err := startDaemon(nproc, nproc)
	if err != nil {
		return sr, fmt.Errorf("start daemon: %w", err)
	}
	rates := [2]float64{w.lo, w.hi}
	for k, rate := range rates {
		n := int(math.Ceil(rate * (window / 2).Seconds()))
		if n < minServed {
			n = minServed
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
		sr.subs[k] = schedule(rng, n, rate, w.mix)
		sr.outs[k] = make([]outcome, n)
	}
	for r := 0; r < rounds; r++ {
		if between != nil {
			if err := between(r); err != nil {
				d.stop()
				return sr, err
			}
		}
		t0, c0 := time.Now(), processCPU()
		for k := range rates {
			// Round r sends its share of the rate's schedule, shifted to
			// start when the round does.
			n := len(sr.subs[k])
			lo, hi := r*n/rounds, (r+1)*n/rounds
			subs := sr.subs[k][lo:hi]
			shift := subs[0].Due - sr.subs[k][0].Due
			for i := range subs {
				subs[i].Due -= shift
			}
			phase := tr.begin("loadgen." + rateNames[k])
			var at time.Duration
			if tr != nil {
				at = tr.now()
			}
			outs := openLoop(ctx, subs, nproc, func(ctx context.Context, i int) outcome {
				return d.submit(ctx, subs[i].Spec)
			})
			tr.end(phase, int64(len(subs)))
			copy(sr.outs[k][lo:hi], outs)
			for _, o := range outs {
				tr.add("movrd.job."+o.Cache, phase, at+o.Sent, at+o.Done, 1)
			}
		}
		sr.wall += time.Since(t0)
		sr.cpu += processCPU() - c0
	}
	sr.scraped, err = d.scrape("movrd_job_latency_seconds_sum", "movrd_job_latency_seconds_count",
		"movrd_job_queue_wait_seconds_sum", "movrd_job_queue_wait_seconds_count")
	d.stop()
	if err != nil {
		return sr, fmt.Errorf("scrape metrics: %w", err)
	}

	refs := map[string]string{}
	ref := func(spec server.JobSpec) (string, error) {
		h, err := spec.Hash()
		if err != nil {
			return "", err
		}
		if r, ok := refs[h]; ok {
			return r, nil
		}
		r, err := referenceDigest(ctx, spec, nproc)
		refs[h] = r
		return r, err
	}
	id := tr.begin("verify.served")
	for k := range rates {
		if sr.oks[k], err = verifyServed(sr.subs[k], sr.outs[k], ref); err != nil {
			break
		}
	}
	tr.end(id, int64(len(refs)))
	return sr, err
}

// latenciesMS is each submission's latency from its due time.
func latenciesMS(subs []submission, outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = float64(o.Done-subs[i].Due) / float64(time.Millisecond)
	}
	return out
}

// counts sums a served phase: attempted and failed submissions, those
// that met the latency limit, and the player-seconds simulated by
// executed (cache-miss) jobs.
func (sr servedResult) counts(slo time.Duration) (attempted, failed, sloMet int, executedPS float64, err error) {
	for k := range sr.outs {
		for i, o := range sr.outs[k] {
			attempted++
			if !sr.oks[k][i] {
				failed++
				continue
			}
			if o.Done-sr.subs[k][i].Due <= slo {
				sloMet++
			}
			if o.Cache == "miss" {
				ps, err := jobPlayerSeconds(sr.subs[k][i].Spec)
				if err != nil {
					return 0, 0, 0, 0, err
				}
				executedPS += ps
			}
		}
	}
	return attempted, failed, sloMet, executedPS, nil
}

// jobPlayerSeconds is the simulated play time a fleet job executes.
func jobPlayerSeconds(spec server.JobSpec) (float64, error) {
	norm, err := spec.Normalize()
	if err != nil || norm.Fleet == nil {
		return 0, fmt.Errorf("player-seconds of %+v: %v", spec, err)
	}
	f := norm.Fleet
	return float64(f.Sessions*len(f.Variants)) * float64(f.DurationMS) / 1000, nil
}

// servedLatencies fills the end-to-end latency and SLO metrics.
func servedLatencies(w workload, sr servedResult, vals map[string]float64) (attempted, failed int, executedPS float64, err error) {
	for k, rn := range rateNames {
		lat := latenciesMS(sr.subs[k], sr.outs[k])
		for _, p := range []float64{50, 95} {
			v, err := percentile(lat, p)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s rate: %w", rn, err)
			}
			vals[fmt.Sprintf("p%g_ms_%s", p, rn)] = v
		}
		fmt.Printf("served %s: %d submissions at %.0f jobs/s; median ms by class:", rn, len(lat), [2]float64{w.lo, w.hi}[k])
		byClass := map[string][]float64{}
		for i, s := range sr.subs[k] {
			class := fmt.Sprintf("%s/%dms", sr.outs[k][i].Cache, s.Spec.Fleet.DurationMS)
			byClass[class] = append(byClass[class], lat[i])
		}
		classes := make([]string, 0, len(byClass))
		for c := range byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Printf(" %s n=%d %.2f", c, len(byClass[c]), median(byClass[c]))
		}
		fmt.Println()
	}
	attempted, failed, sloMet, executedPS, err := sr.counts(w.slo)
	if err != nil {
		return 0, 0, 0, err
	}
	vals["slo_met_frac"] = float64(sloMet) / float64(attempted)
	vals["jobs_per_cpu_s"] = float64(attempted-failed) / sr.cpu.Seconds()
	return attempted, failed, executedPS, nil
}

// untracedRun measures every end-to-end metric.
func untracedRun(ctx context.Context, w workload, seed int64, seconds, nproc int) (report, error) {
	vals := map[string]float64{}
	attempted, failed := 0, 0
	measure := time.Duration(seconds) * time.Second
	served := measure

	var setup time.Duration
	var err error
	var between func(int) error
	var bs batchStats
	var specs []fleet.Spec
	if w.specs != nil {
		setup, err = timeSetup(func() (time.Duration, error) {
			c0 := processCPU()
			_, err := w.specs(seed)
			return processCPU() - c0, err
		})
		if err != nil {
			return report{}, fmt.Errorf("generate specs: %w", err)
		}
		if specs, err = w.specs(seed); err != nil {
			return report{}, err
		}
		want, err := batchReference(ctx, w, specs, seed)
		if err != nil {
			return report{}, fmt.Errorf("reference pass: %w", err)
		}
		window := time.Duration(batchShare * float64(measure))
		between = func(int) error {
			if err := batchRound(ctx, specs, nproc, w.stream, window/rounds, want, &bs); err != nil {
				return fmt.Errorf("batch run: %w", err)
			}
			return nil
		}
		served = measure - window
	} else {
		setup, err = timeSetup(func() (time.Duration, error) {
			c0 := processCPU()
			d, err := startDaemon(nproc, nproc)
			if err != nil {
				return 0, err
			}
			up := processCPU() - c0
			d.stop()
			return up, nil
		})
		if err != nil {
			return report{}, fmt.Errorf("daemon start: %w", err)
		}
	}
	vals["setup_s"] = setup.Seconds()

	sr, err := servedPhase(ctx, w, seed, served, nproc, nil, between)
	if err != nil {
		return report{}, fmt.Errorf("served phase: %w", err)
	}
	if w.specs != nil {
		fmt.Printf("batch: %d runs of %d sessions (%.0f player-s each)\n", bs.Runs, len(specs), playerSeconds(specs))
		attempted, failed = bs.Runs, bs.Failed
		vals["player_s_per_cpu_s"] = median(bs.PerCPU)
		vals["player_s_per_s"] = median(bs.PerWall)
	}
	a, f, executedPS, err := servedLatencies(w, sr, vals)
	if err != nil {
		return report{}, err
	}
	attempted += a
	failed += f
	if w.specs == nil {
		vals["player_s_per_cpu_s"] = executedPS / sr.cpu.Seconds()
		vals["player_s_per_s"] = executedPS / sr.wall.Seconds()
	}
	if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return report{}, err
	}
	vals["ok_frac"] = float64(attempted-failed) / float64(attempted)
	return buildReport(endToEnd, vals, attempted, failed)
}

// servedLayers fills the server and load-generator layer metrics.
func servedLayers(sr servedResult, vals map[string]float64) error {
	var hits, late []float64
	var n, coalesced, rejected int
	for k := range sr.outs {
		for i, o := range sr.outs[k] {
			n++
			switch {
			case o.Status == http.StatusTooManyRequests:
				rejected++
			case o.Cache == "hit":
				hits = append(hits, float64(o.Done-o.Sent)/float64(time.Millisecond))
			case o.Cache == "coalesced":
				coalesced++
			}
			late = append(late, float64(o.Sent-sr.subs[k][i].Due)/float64(time.Millisecond))
		}
	}
	lateP95, err := percentile(late, 95)
	if err != nil {
		return err
	}
	if len(hits) > 0 {
		vals["server.hit_ms_p50"] = median(hits)
	}
	mean := func(h string) float64 {
		if c := sr.scraped[h+"_count"]; c > 0 {
			return 1000 * sr.scraped[h+"_sum"] / c
		}
		return 0
	}
	vals["server.run_ms_mean"] = mean("movrd_job_latency_seconds")
	vals["server.queue_wait_ms_mean"] = mean("movrd_job_queue_wait_seconds")
	vals["server.cache_hit_frac"] = float64(len(hits)) / float64(n)
	vals["server.coalesced_frac"] = float64(coalesced) / float64(n)
	vals["server.rejected_frac"] = float64(rejected) / float64(n)
	vals["loadgen.late_ms_p95"] = lateP95
	return nil
}

// tracedRun measures every per-layer metric with spans kept in memory,
// then writes the spans out and prints the self-time table.
func tracedRun(ctx context.Context, w workload, seed int64, seconds, nproc int) (report, error) {
	vals := map[string]float64{}
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	tr := newTracer()
	root := tr.begin("perfbench." + w.name)
	measure := time.Duration(seconds) * time.Second

	var groups [][]fleet.Spec
	var replay []fleet.Spec
	served := measure
	if w.specs != nil {
		id := tr.begin("fleet.specs")
		specs, err := w.specs(seed)
		tr.end(id, 1)
		if err != nil {
			return report{}, err
		}
		groups = [][]fleet.Spec{specs}
		replay = w.replay(specs)
		served = measure - time.Duration(batchShare*float64(measure))
	}

	sr, err := servedPhase(ctx, w, seed, served, nproc, tr, nil)
	if err != nil {
		return report{}, fmt.Errorf("served phase: %w", err)
	}
	attempted, failed, _, _, err := sr.counts(w.slo)
	if err != nil {
		return report{}, err
	}
	if err := servedLayers(sr, vals); err != nil {
		return report{}, err
	}

	if w.specs == nil {
		// The layer pass runs the first fresh jobs' session specs.
		for _, s := range sr.subs[0] {
			if s.First >= 0 {
				continue
			}
			norm, err := s.Spec.Normalize()
			if err != nil {
				return report{}, err
			}
			id := tr.begin("fleet.specs")
			specs, _, err := expandFleetJob(*norm.Fleet)
			tr.end(id, 1)
			if err != nil {
				return report{}, err
			}
			groups = append(groups, specs)
			if len(groups) <= replayJobs {
				replay = append(replay, specs...)
			}
			if len(groups) == layerJobs {
				break
			}
		}
	}

	if err := geometrySpans(tr, groups); err != nil {
		return report{}, err
	}
	if w.name == "venue" {
		if err := interferenceSpans(tr, groups[0], venueBays, venuePerBay, venueChannels); err != nil {
			return report{}, err
		}
	}
	if err := probeLayers(tr, seed); err != nil {
		return report{}, fmt.Errorf("probe layers: %w", err)
	}
	pinned := ""
	if seed == defaultSeed && runtime.GOARCH == "amd64" {
		pinned = w.pinned
	}
	lp, err := layerPass(ctx, tr, groups, nproc, w.stream, pinned)
	if err != nil {
		return report{}, err
	}
	attempted += lp.runs
	failed += lp.failed
	counts, overhead, err := replayPass(tr, replay)
	if err != nil {
		return report{}, err
	}
	tr.end(root, 1)

	tot := tr.totals()
	layerValues(tot, lp, counts, nproc, vals)
	vals["trace.overhead_frac"] = overhead

	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return report{}, err
	}
	path := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	printSelfTable(os.Stdout, tot, tr.spans)
	fmt.Printf("exact counts: steps=%d reassess=%d optimize=%d probes=%d traces=%d frames=%d shares=%d cache hit/reval/miss=%d/%d/%d\n",
		counts.steps, counts.reassess, counts.optimize, counts.probes, counts.traces, counts.frames, counts.shares,
		counts.pc.Hits, counts.pc.Revalidations, counts.pc.Misses)
	fmt.Printf("tracing overhead: %.2f%% (traced vs untraced replay)\n", 100*overhead)
	return buildReport(perLayer, vals, attempted, failed)
}

// How many of the movrd workload's first fresh jobs the traced run's
// layer pass and replay cover.
const (
	layerJobs  = 40
	replayJobs = 4
)
