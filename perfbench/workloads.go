package main

import (
	"math/rand"
	"time"

	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/server"
)

// defaultSeed is the seed whose batch digests are pinned below.
const defaultSeed = 1

// workload is one input set the benchmark runs. A batch workload runs a
// whole fleet repeatedly for throughput and then serves small jobs of
// its own kind through the daemon for latency; a served workload is
// the daemon alone.
type workload struct {
	name string
	why  string

	// specs generates the batch fleet for a seed; nil for a served
	// workload. stream selects the streaming collector.
	specs  func(seed int64) ([]fleet.Spec, error)
	stream bool
	// pinned is the batch result digest at defaultSeed.
	pinned string

	// mix generates the served phase's fresh job specs; lo and hi are
	// its two offered rates in jobs/s, both well under capacity; slo
	// is the latency limit slo_met_frac counts against.
	mix    jobMix
	lo, hi float64
	slo    time.Duration

	// replay picks the specs whose lower layers the traced run drives.
	replay func(specs []fleet.Spec) []fleet.Spec
}

// The batch workloads' shape: the venue layout, shared by its generator
// and the traced run's interference-table spans, and the session length.
const (
	venueBays     = 16
	venuePerBay   = 4
	venueChannels = 3
	batchDuration = 10 * time.Second
)

// sessionVariants maps the job API's variant names to session variants.
var sessionVariants = map[string]experiments.SessionVariant{
	"direct":   experiments.VariantDirectOnly,
	"static":   experiments.VariantMoVRStatic,
	"reactive": experiments.VariantMoVRReactive,
	"tracking": experiments.VariantMoVRTracking,
}

// variantNames lists the job API's variant names in comparison order.
var variantNames = []string{"direct", "static", "reactive", "tracking"}

func venueSpecs(seed int64) ([]fleet.Spec, error) {
	return fleet.Venue(venueBays, venuePerBay, fleet.ScenarioConfig{
		Seed:          seed,
		Duration:      batchDuration,
		VenueChannels: venueChannels,
	})
}

// homeVariantSpecs is 64 homes, each run under all four variants,
// expanded exactly as a multi-variant daemon job.
func homeVariantSpecs(seed int64) ([]fleet.Spec, error) {
	specs, _, err := expandFleetJob(server.FleetJobSpec{Scenario: "home", Sessions: 64, Variants: variantNames,
		DurationMS: int(batchDuration / time.Millisecond), Seed: seed})
	return specs, err
}

// playMS is the i-th fresh job's session length: every largeEvery-th
// job plays largeScale times as long. Those long jobs are about 1 in 5
// submissions, so the p95 falls among them and reads their service
// time rather than whichever short job a scheduling hiccup of the host
// delayed.
func playMS(i, ms int) int {
	if i%largeEvery == largeEvery-1 {
		return largeScale * ms
	}
	return ms
}

const (
	largeEvery = 4
	largeScale = 4
)

func fleetJob(f server.FleetJobSpec) server.JobSpec {
	return server.JobSpec{Kind: "fleet", Fleet: &f}
}

var workloads = []workload{
	{
		name:   "venue",
		why:    "16 bays x 4 players on the bay-lockstep path: gain control, coex geometry and cross-bay interference dominate",
		specs:  venueSpecs,
		stream: true,
		pinned: "b2dc14dbd3a228951e4ab78175ae1316a929e43e635b3aca928a3024c85cd4b9",
		mix: func(rng *rand.Rand, i int) server.JobSpec {
			return fleetJob(server.FleetJobSpec{Scenario: "venue", Bays: 2, HeadsetsPerRoom: 2, Channels: 1,
				Agg: "exact", DurationMS: playMS(i, 250), Seed: rng.Int63()})
		},
		lo: 35, hi: 70, slo: 250 * time.Millisecond,
		replay: func(specs []fleet.Spec) []fleet.Spec { return specs[:2*venuePerBay] },
	},
	{
		name:   "home_variants",
		why:    "64 homes x 4 variants on the per-session path: antenna, link budget and channel tracing dominate, gain control is minor",
		specs:  homeVariantSpecs,
		pinned: "85016f9660c3db4884bc16f435976dcd3a9c713fa93c8ed88bf32c520009614d",
		mix: func(rng *rand.Rand, i int) server.JobSpec {
			return fleetJob(server.FleetJobSpec{Scenario: "home", Sessions: 2, Variants: variantNames,
				DurationMS: playMS(i, 500), Seed: rng.Int63()})
		},
		lo: 40, hi: 80, slo: 250 * time.Millisecond,
		replay: func(specs []fleet.Spec) []fleet.Spec {
			// The first four homes under every variant.
			var out []fleet.Spec
			for v := range variantNames {
				out = append(out, specs[v*64:v*64+4]...)
			}
			return out
		},
	},
	{
		name: "movrd",
		why:  "open-loop small home and coex jobs through the job API, 1 in 4 a repeat, so cache hits run beside executing misses",
		mix: func(rng *rand.Rand, i int) server.JobSpec {
			if i%2 == 0 {
				return fleetJob(server.FleetJobSpec{Scenario: "home", Sessions: 2, DurationMS: playMS(i, 500), Seed: rng.Int63()})
			}
			return fleetJob(server.FleetJobSpec{Scenario: "coex", Sessions: 2, HeadsetsPerRoom: 2,
				DurationMS: playMS(i, 500), Seed: rng.Int63()})
		},
		lo: 40, hi: 80, slo: 250 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
