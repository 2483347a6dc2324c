package main

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1: percentile must sort
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {100, 200}, {1, 2}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..200 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// Nearest rank leaves exactly ten samples beyond p95 at the minimum.
	p95, _ := percentile(xs, 95)
	beyond := 0
	for _, x := range xs {
		if x > p95 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p95 of 200, want 10", beyond)
	}
	if _, err := percentile(xs[:199], 95); !errors.Is(err, errFewSamples) {
		t.Errorf("p95 of 199 samples: err %v, want errFewSamples", err)
	}
	if got, err := percentile(xs[:9], 50); err != nil || got != 196 {
		t.Errorf("p50 of 200..192 = %v, %v; want 196", got, err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) in CPython.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v", c.xs, q1, q2, q3, err, c.want)
		}
	}
}

func TestOpenLoopStallDelaysRequestsDueBehindIt(t *testing.T) {
	const stall = 150 * time.Millisecond
	subs := make([]submission, 5)
	for i := range subs {
		subs[i] = submission{Due: time.Duration(i) * 10 * time.Millisecond, First: -1}
	}
	run := func(stallFirst bool) []outcome {
		return openLoop(context.Background(), subs, 1, func(_ context.Context, i int) outcome {
			if i == 0 && stallFirst {
				time.Sleep(stall)
			} else {
				time.Sleep(time.Millisecond)
			}
			return outcome{Status: http.StatusOK}
		})
	}
	outs := run(true)
	lat := latenciesMS(subs, outs)
	for i := 1; i < len(subs); i++ {
		// Request i could only go out once the stalled one returned:
		// its latency from its due time carries the wait.
		floor := float64(stall-subs[i].Due) / float64(time.Millisecond)
		if lat[i] < floor {
			t.Errorf("request %d latency %.1f ms, want at least %.1f ms (stall not counted)", i, lat[i], floor)
		}
		if late := outs[i].Sent - subs[i].Due; late < stall-subs[i].Due-5*time.Millisecond {
			t.Errorf("request %d sent %v late, want about %v", i, late, stall-subs[i].Due)
		}
	}
	for i, l := range latenciesMS(subs, run(false)) {
		if l > 100 {
			t.Errorf("without a stall request %d took %.1f ms", i, l)
		}
	}
}

func TestDigestRejectsOneByteChange(t *testing.T) {
	result := []byte(`{"kind":"fleet","fleet":{"Agg":{"Sessions":3}},"render":"ok"}`)
	want := digest(result)
	if err := checkDigest(result, want); err != nil {
		t.Fatalf("unchanged result rejected: %v", err)
	}
	for i := range result {
		bad := append([]byte(nil), result...)
		bad[i] ^= 1
		if checkDigest(bad, want) == nil {
			t.Fatalf("result with byte %d changed accepted", i)
		}
	}
}

func TestCorruptedResultLowersOkFrac(t *testing.T) {
	job := func(seed int64) server.JobSpec {
		return fleetJob(server.FleetJobSpec{Scenario: "home", Sessions: 1, DurationMS: 200, Seed: seed})
	}
	good := map[int64]string{1: digest([]byte("one")), 2: digest([]byte("two")), 3: digest([]byte("three"))}
	ref := func(s server.JobSpec) (string, error) { return good[s.Fleet.Seed], nil }
	subs := []submission{{Spec: job(1), First: -1}, {Spec: job(2), First: -1}, {Spec: job(3), First: -1}, {Spec: job(1), First: 0}}
	done := func(sha string) outcome {
		return outcome{Status: http.StatusOK, State: "done", Cache: "miss", SHA: sha, Intact: true}
	}
	clean := []outcome{done(good[1]), done(good[2]), done(good[3]), done(good[1])}
	clean[3].Cache = "hit"

	okFrac := func(outs []outcome) float64 {
		t.Helper()
		oks, err := verifyServed(subs, outs, ref)
		if err != nil {
			t.Fatal(err)
		}
		sr := servedResult{}
		sr.subs[0], sr.outs[0], sr.oks[0] = subs, outs, oks
		attempted, failed, _, _, err := sr.counts(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return float64(attempted-failed) / float64(attempted)
	}
	if f := okFrac(clean); f != 1 {
		t.Fatalf("ok_frac of clean results = %v, want 1", f)
	}

	cases := map[string]func([]outcome){
		"body corrupted in flight": func(o []outcome) { o[1].Intact = false },
		"wrong result":             func(o []outcome) { o[2].SHA = good[1] },
		"repeat differs":           func(o []outcome) { o[3].SHA = good[2] },
		"rejected with 429":        func(o []outcome) { o[0] = outcome{Status: http.StatusTooManyRequests} },
		"job failed":               func(o []outcome) { o[1].State = "failed" },
	}
	for name, corrupt := range cases {
		outs := append([]outcome(nil), clean...)
		corrupt(outs)
		if f := okFrac(outs); f >= 1 {
			t.Errorf("%s: ok_frac %v, want below 1", name, f)
		}
	}
}

func TestServedResultMatchesInProcessReference(t *testing.T) {
	d, err := startDaemon(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	ctx := context.Background()
	for _, spec := range []server.JobSpec{
		fleetJob(server.FleetJobSpec{Scenario: "home", Sessions: 2, DurationMS: 200, Seed: 5}),
		fleetJob(server.FleetJobSpec{Scenario: "home", Sessions: 1, Variants: variantNames, DurationMS: 200, Seed: 6}),
		fleetJob(server.FleetJobSpec{Scenario: "coex", Sessions: 2, HeadsetsPerRoom: 2, DurationMS: 200, Seed: 7}),
		fleetJob(server.FleetJobSpec{Scenario: "venue", Bays: 2, HeadsetsPerRoom: 2, Channels: 1, DurationMS: 200, Seed: 8}),
		fleetJob(server.FleetJobSpec{Scenario: "venue", Bays: 2, HeadsetsPerRoom: 2, Channels: 1, Agg: "exact", DurationMS: 200, Seed: 9}),
	} {
		o := d.submit(ctx, spec)
		if o.Err != nil || o.State != "done" || !o.Intact {
			t.Fatalf("%s: %+v", spec.Fleet.Scenario, o)
		}
		want, err := referenceDigest(ctx, spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		if o.SHA != want {
			t.Errorf("%s: daemon digest %s, in-process %s", spec.Fleet.Scenario, o.SHA, want)
		}
	}
}

func TestScheduleIsSeededOrderedAndRepeats(t *testing.T) {
	mix := workloads[2].mix
	a := schedule(rand.New(rand.NewSource(3)), 400, 50, mix)
	b := schedule(rand.New(rand.NewSource(3)), 400, 50, mix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	repeats := 0
	for i, s := range a {
		if i > 0 && s.Due <= a[i-1].Due {
			t.Fatalf("arrival %d due %v not after %v", i, s.Due, a[i-1].Due)
		}
		if s.First >= 0 {
			repeats++
			if s.First > i-repeatGap || !reflect.DeepEqual(a[s.First].Spec, s.Spec) || a[s.First].First != -1 {
				t.Fatalf("arrival %d repeats %d badly", i, s.First)
			}
		}
	}
	if repeats < 90 || repeats > 100 {
		t.Errorf("%d of 400 arrivals repeat, want about 1 in %d", repeats, repeatEvery)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms}, // overlaps a
		{Name: "c", Parent: 0, Start: 60 * ms, End: 70 * ms},
		{Name: "d", Parent: 3, Start: 62 * ms, End: 64 * ms},
	}
	want := []time.Duration{50 * ms, 20 * ms, 30 * ms, 8 * ms, 2 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better %q", d.Name, d.Better)
		}
	}
	spec, err := loadBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, benchmark reports %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %+v", i, m, d)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, benchmark has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
}

func TestBuildReportRefusesMissingOrNonFiniteMetrics(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	if _, err := buildReport(endToEnd, vals, 1, 0); err != nil {
		t.Fatalf("complete metrics refused: %v", err)
	}
	delete(vals, "setup_s")
	if _, err := buildReport(endToEnd, vals, 1, 0); err == nil {
		t.Error("missing setup_s accepted")
	}
	vals["setup_s"] = 0
	vals["p95_ms_hi"] = 1 / vals["setup_s"]
	if _, err := buildReport(endToEnd, vals, 1, 0); err == nil {
		t.Error("infinite p95 accepted")
	}
}
