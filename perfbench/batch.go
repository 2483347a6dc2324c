package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/movr-sim/movr/internal/fleet"
)

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest accepts b only when its SHA-256 is want.
func checkDigest(b []byte, want string) error {
	if got := digest(b); got != want {
		return fmt.Errorf("digest %s, want %s", got, want)
	}
	return nil
}

// resultDigest is the SHA-256 of a fleet result's JSON encoding: the
// aggregate, plus the sketch state on the streaming path or every
// per-session outcome on the exact path.
func resultDigest(res fleet.Result) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encode fleet result: %w", err)
	}
	return digest(raw), nil
}

// playerSeconds is the simulated play time of specs.
func playerSeconds(specs []fleet.Spec) float64 {
	var s float64
	for _, sp := range specs {
		s += sp.Session.Duration.Seconds()
	}
	return s
}

// runFleet runs specs once on workers and returns the result digest.
// stream selects the constant-memory streaming collector.
func runFleet(ctx context.Context, specs []fleet.Spec, workers int, stream bool) (string, error) {
	var col fleet.Collector
	if stream {
		col = fleet.StreamCollectorFor(specs)
	}
	res, err := fleet.RunCollect(ctx, specs, fleet.Config{Workers: workers}, col)
	if err != nil {
		return "", err
	}
	return resultDigest(res)
}

// batchStats is the outcome of a batch phase.
type batchStats struct {
	Runs, Failed int
	PerCPU       []float64 // player-seconds per process CPU-second, per run
	PerWall      []float64 // player-seconds per wall-second, per run
}

// batchRound runs the whole fleet on workers, checking every run's
// digest against want: once, and again while another run of the same
// length would end within half a run of window.
func batchRound(ctx context.Context, specs []fleet.Spec, workers int, stream bool, window time.Duration, want string, st *batchStats) error {
	ps := playerSeconds(specs)
	start := time.Now()
	for {
		t0, c0 := time.Now(), processCPU()
		got, err := runFleet(ctx, specs, workers, stream)
		wall, cpu := time.Since(t0), processCPU()-c0
		if err != nil {
			return err
		}
		st.Runs++
		if got != want {
			st.Failed++
			logf("batch run %d: digest %s, want %s", st.Runs, got, want)
		}
		st.PerCPU = append(st.PerCPU, ps/cpu.Seconds())
		st.PerWall = append(st.PerWall, ps/wall.Seconds())
		if time.Since(start)+wall/2 > window {
			return nil
		}
	}
}

// timeSetup times a set-up as the median of repeated calls. fn does one
// set-up and returns the part of its cost that counts (a set-up may
// include teardown that does not). Calls during the first 50 ms (at
// least five) warm caches and lazy initialisation up and are not timed.
// Set-ups under 1 ms are batched so each sample spans at least 1 ms, and
// each sample starts from a collected heap, which keeps timer
// granularity, one-off stalls and garbage left by earlier samples out of
// the median.
func timeSetup(fn func() (time.Duration, error)) (time.Duration, error) {
	const (
		samples = 21
		span    = time.Millisecond
		warmup  = 50 * time.Millisecond
	)
	var last time.Duration
	for n, t0 := 0, time.Now(); n < 5 || time.Since(t0) < warmup; n++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		last = d
	}
	per := 1
	if last < span {
		per = int(span/(last+1)) + 1
	}
	ds := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		runtime.GC()
		var sum time.Duration
		for k := 0; k < per; k++ {
			d, err := fn()
			if err != nil {
				return 0, err
			}
			sum += d
		}
		ds = append(ds, float64(sum)/float64(per))
	}
	return time.Duration(median(ds)), nil
}
