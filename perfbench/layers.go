package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/control"
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/gainctl"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/linkmgr"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/server"
	"github.com/movr-sim/movr/internal/sim"
	"github.com/movr-sim/movr/internal/stream"
	"github.com/movr-sim/movr/internal/venue"
	"github.com/movr-sim/movr/internal/vr"
)

// geometrySpans rebuilds every distinct room snapshot of the spec sets
// through experiments.BuildCoexGeometry, from the rooms' own traces,
// one span per snapshot.
func geometrySpans(tr *tracer, groups [][]fleet.Spec) error {
	for _, g := range groups {
		seen := map[*coex.Geometry]bool{}
		for _, sp := range g {
			c := sp.Session.Coex
			if c == nil || c.Geometry == nil || seen[c.Geometry] {
				continue
			}
			seen[c.Geometry] = true
			rm := coex.Room{Players: c.Players, Period: c.Period, Policy: c.Policy, Weights: c.Weights, UplinkSlot: c.UplinkSlot}
			id := tr.begin("coex.geometry")
			_, err := experiments.BuildCoexGeometry(rm, sp.Session.Duration)
			tr.end(id, 1)
			if err != nil {
				return fmt.Errorf("geometry of %s: %w", sp.ID, err)
			}
		}
	}
	return nil
}

// interferenceSpans recomputes the per-bay interference tables of a
// venue of bays × perBay sessions on channels channels through
// venue.InterferenceTable, one span per interfered bay, and checks each
// equals the table the generator attached.
func interferenceSpans(tr *tracer, specs []fleet.Spec, bays, perBay, channels int) error {
	layout, err := venue.Grid(bays, 8, 8, room.Drywall)
	if err != nil {
		return err
	}
	chans, err := venue.AssignChannels(layout, channels, venue.AssignColoring)
	if err != nil {
		return err
	}
	geos := make([]*coex.Geometry, bays)
	for b := range geos {
		geos[b] = specs[b*perBay].Session.Coex.Geometry
	}
	params := venue.DefaultParams(experiments.APPos)
	for b := range geos {
		if layout.CoChannelNeighbors(chans, b) == 0 {
			continue
		}
		id := tr.begin("venue.interference")
		tab := venue.InterferenceTable(layout, chans, b, geos, params)
		tr.end(id, 1)
		if !slices.Equal(tab, specs[b*perBay].Session.Coex.ExtSINRPenaltyDB) {
			return fmt.Errorf("bay %d: recomputed interference table differs from the generated one", b)
		}
	}
	return nil
}

// layerPassResult is the fleet and experiments timing of the traced
// run's spec sets.
type layerPassResult struct {
	playerS        float64
	fleet1, fleetN time.Duration // untraced fleet.RunCollect, 1 and nproc workers
	expCPU         time.Duration // process CPU of the traced experiments pass
	runs, failed   int
}

// variantShort names a session variant as the job API does.
func variantShort(v experiments.SessionVariant) string {
	for name, sv := range sessionVariants {
		if sv == v {
			return name
		}
	}
	return "tracking"
}

// layerPass runs every spec set through fleet.RunCollect at 1 and at
// nproc workers, untraced, checking the two agree (and match pinned when
// set), then calls the experiments layer directly — RunBayLockstep per
// bay, RunSessionVariant per lone session — one span per call.
func layerPass(ctx context.Context, tr *tracer, groups [][]fleet.Spec, nproc int, stream bool, pinned string) (layerPassResult, error) {
	var lp layerPassResult
	for _, g := range groups {
		lp.playerS += playerSeconds(g)
		id := tr.begin("fleet.collect.1w")
		t0 := time.Now()
		d1, err := runFleet(ctx, g, 1, stream)
		lp.fleet1 += time.Since(t0)
		tr.end(id, 1)
		if err != nil {
			return lp, err
		}
		id = tr.begin("fleet.collect.nw")
		t0 = time.Now()
		dn, err := runFleet(ctx, g, nproc, stream)
		lp.fleetN += time.Since(t0)
		tr.end(id, 1)
		if err != nil {
			return lp, err
		}
		lp.runs += 2
		if dn != d1 {
			lp.failed++
			logf("fleet digest at %d workers %s differs from 1 worker %s", nproc, dn, d1)
		}
		if pinned != "" && d1 != pinned {
			lp.failed++
			logf("fleet digest %s, pinned %s", d1, pinned)
		}
	}

	c0 := processCPU()
	err := experimentsPass(tr, groups)
	lp.expCPU = processCPU() - c0
	return lp, err
}

// experimentsPass calls the experiments layer directly on every spec
// set — RunBayLockstep per bay, RunSessionVariant per lone session — one
// span per call, all under one experiments.pass span.
func experimentsPass(tr *tracer, groups [][]fleet.Spec) error {
	pass := tr.begin("experiments.pass")
	defer tr.end(pass, 1)
	for _, g := range groups {
		for i := 0; i < len(g); {
			k := fleet.BayLen(g[i:])
			if k > 1 {
				players := make([]experiments.BayPlayer, k)
				for j := range players {
					players[j] = experiments.BayPlayer{Cfg: g[i+j].Session, Variant: variantOf(g[i+j])}
				}
				id := tr.begin("experiments.bay")
				_, err := experiments.RunBayLockstep(players)
				tr.end(id, 1)
				if err != nil {
					return err
				}
			} else {
				v := variantOf(g[i])
				id := tr.begin("experiments.session." + variantShort(v))
				_, err := experiments.RunSessionVariant(g[i].Session, v)
				tr.end(id, 1)
				if err != nil {
					return err
				}
			}
			i += k
		}
	}
	return nil
}

// probePrefix names the spans of probeLayers.
const probePrefix = "probe."

// probeLayers drives every layer once on minimal jobs generated from
// the workload seed — a 2-bay, 1-channel venue of 2 players per bay
// (coex geometry, interference tables, bay lockstep, airtime shares)
// and one home under each variant (the per-session paths) — with span
// names prefixed probe. A per-layer metric whose layer the workload's
// own inputs never reach is read from these spans, so every layer is
// measured on every workload.
func probeLayers(tr *tracer, seed int64) error {
	expand := func(f server.FleetJobSpec) ([]fleet.Spec, error) {
		norm, err := fleetJob(f).Normalize()
		if err != nil {
			return nil, err
		}
		specs, _, err := expandFleetJob(*norm.Fleet)
		return specs, err
	}
	venueSpecs, err := expand(server.FleetJobSpec{Scenario: "venue", Bays: 2, HeadsetsPerRoom: 2, Channels: 1, DurationMS: 250, Seed: seed})
	if err != nil {
		return err
	}
	homeSpecs, err := expand(server.FleetJobSpec{Scenario: "home", Sessions: 1, Variants: variantNames, DurationMS: 500, Seed: seed})
	if err != nil {
		return err
	}
	tr.prefix = probePrefix
	defer func() { tr.prefix = "" }()
	groups := [][]fleet.Spec{venueSpecs, homeSpecs}
	if err := geometrySpans(tr, groups); err != nil {
		return err
	}
	if err := interferenceSpans(tr, venueSpecs, 2, 2, 1); err != nil {
		return err
	}
	if err := experimentsPass(tr, groups); err != nil {
		return err
	}
	var discard layerCounts
	return replaySession(tr, venueSpecs[0], &discard)
}

// variantOf resolves a spec's variant; empty means pose tracking.
func variantOf(sp fleet.Spec) experiments.SessionVariant {
	if sp.Variant == "" {
		return experiments.VariantMoVRTracking
	}
	return sp.Variant
}

// layerCounts are the replay's exact work counts: pure functions of the
// replayed specs, so they repeat identically run to run.
type layerCounts struct {
	steps, reassess, optimize, probes, traces, frames, shares int64
	pc                                                        channel.PathCacheStats
}

// replayPass drives the lower layers of specs twice: untraced, then
// with one span per call. The counts of the two passes must agree; the
// time ratio is the tracing overhead.
func replayPass(tr *tracer, specs []fleet.Spec) (layerCounts, float64, error) {
	var plain, traced layerCounts
	t0 := time.Now()
	for _, sp := range specs {
		if err := replaySession(nil, sp, &plain); err != nil {
			return plain, 0, err
		}
	}
	untracedT := time.Since(t0)

	id := tr.begin("replay")
	t0 = time.Now()
	for _, sp := range specs {
		s := tr.begin("replay.session")
		err := replaySession(tr, sp, &traced)
		tr.end(s, 1)
		if err != nil {
			return traced, 0, err
		}
	}
	tracedT := time.Since(t0)
	tr.end(id, int64(len(specs)))
	if plain != traced {
		return traced, 0, fmt.Errorf("replay counts differ between passes: %+v vs %+v", plain, traced)
	}
	return traced, tracedT.Seconds()/untracedT.Seconds() - 1, nil
}

// Repeats of the sub-microsecond calls per span, so the span's own cost
// stays small beside the calls it times.
const (
	snrReps  = 8
	gainReps = 4
)

// sink keeps the results of timed pure calls alive.
var sink float64

// gainRig mirrors one managed reflector for the gain-control layer: a
// device whose gain the benchmark's own optimizer programs, a second one
// for cold supply-current probes, and an AP radio holding the beam the
// manager aligned to the reflector.
type gainRig struct {
	dev, probe *reflector.Reflector
	ap         *radio.AP
	slot       int
	paths      []channel.Path
}

// replaySession drives one session's lower layers through their public
// constructors with the session's own inputs — room, mounts, blockers,
// peers and motion trace from the spec: the link manager's Step at the
// control cadence and Reassess every world tick, the benchmark's own
// path cache, link budget and antenna gains on the direct leg, gain
// control on each reflector's inbound leg, the coex scheduler over the
// frame grid, and the frame stream over the recorded link rate.
func replaySession(tr *tracer, sp fleet.Spec, c *layerCounts) error {
	cfg := sp.Session
	dur, period := cfg.Duration, cfg.ReEvalPeriod
	if dur <= 0 || period <= 0 || cfg.RoomW <= 0 || cfg.RoomD <= 0 {
		return fmt.Errorf("replay %s: needs explicit duration, cadence and room size", sp.ID)
	}
	w, err := experiments.NewSizedWorld(cfg.RoomW, cfg.RoomD, 1)
	if err != nil {
		return err
	}
	tc := vr.DefaultTraceConfig(cfg.RoomW, cfg.RoomD, cfg.Seed)
	tc.Duration = dur
	trace, err := vr.Generate(tc)
	if err != nil {
		return err
	}
	p0 := trace.At(0)
	hs := w.NewHeadsetAt(p0.Pos, p0.YawDeg)
	mgr := linkmgr.New(w.Tracer, w.AP, hs)
	variant := variantOf(sp)

	var rigs []*gainRig
	if variant != experiments.VariantDirectOnly {
		mounts := cfg.Mounts
		if mounts == nil {
			mounts = experiments.DefaultMounts(cfg.RoomW, cfg.RoomD)
		}
		for k, m := range mounts {
			dev := reflector.Default(m.Pos, m.FacingDeg)
			idx := mgr.AddReflector(dev, control.NewLink(reflector.NewController(dev), control.DefaultRTT, 0, cfg.Seed))
			if err := mgr.AlignFromGeometry(idx); err != nil {
				return err
			}
			mgr.PrimeReflector(idx)
			e := mgr.Reflectors()[idx]
			r := &gainRig{
				dev:   reflector.Default(m.Pos, m.FacingDeg),
				probe: reflector.Default(m.Pos, m.FacingDeg),
				ap:    radio.NewAP(w.AP.Pos, antenna.Default(45), w.Budget),
				slot:  1 + k,
			}
			r.ap.SteerTo(e.APBeamDeg)
			r.dev.SetRXBeam(e.IncidenceDeg)
			r.probe.SetRXBeam(e.IncidenceDeg)
			rigs = append(rigs, r)
		}
	}
	for _, b := range cfg.Blockers {
		w.Room.AddObstacle(b)
	}

	var sched *coex.Scheduler
	var players []vr.Trace
	var peers, peerObs []int
	if cfg.Coex != nil {
		rm := *cfg.Coex
		players = append([]vr.Trace(nil), rm.Players...)
		players[rm.Self] = trace
		rm.Players = players
		if rm.Period <= 0 {
			rm.Period = period
		}
		if sched, err = coex.NewScheduler(rm, w.AP.Pos); err != nil {
			return err
		}
		for i, pt := range players {
			if i != rm.Self {
				peers = append(peers, i)
				peerObs = append(peerObs, w.Room.AddObstacle(room.Body(pt.At(0).Pos)))
			}
		}
	}
	hand := w.Room.AddObstacle(room.Hand(geom.V(-10, -10)))

	pc := channel.NewPathCache(w.Tracer)
	var buf []channel.Path
	var opt gainctl.Optimizer
	gcfg := gainctl.DefaultConfig()
	rates := make([]float64, 0, int(dur/experiments.WorldTick)+1)
	for t := time.Duration(0); t <= dur; t += experiments.WorldTick {
		p := trace.At(t)
		for j, i := range peers {
			var pos geom.Vec
			ok := false
			if g := cfg.Coex.Geometry; g != nil {
				pos, ok = g.PoseAt(i, t)
			}
			if !ok {
				pos = players[i].At(t).Pos
			}
			w.Room.MoveObstacle(peerObs[j], pos)
		}
		if p.HandRaised {
			w.Room.MoveObstacle(hand, p.HandPos())
		} else {
			w.Room.MoveObstacle(hand, geom.V(-10, -10))
		}
		hs.MoveTo(p.Pos)
		hs.SetYaw(p.YawDeg)

		if t%period == 0 {
			if variant == experiments.VariantDirectOnly || variant == experiments.VariantMoVRTracking {
				id := tr.begin("linkmgr.step")
				mgr.Step(p.Pos, p.YawDeg)
				tr.end(id, 1)
				c.steps++
			} else {
				id := tr.begin("linkmgr.best_frozen")
				mgr.BestFrozen()
				tr.end(id, 1)
			}
			for _, r := range rigs {
				id := tr.begin("channel.trace")
				r.paths = pc.TraceHInto(r.slot, r.paths[:0], w.AP.Pos, r.dev.Pos(), w.AP.HeightM, r.dev.HeightM())
				tr.end(id, 1)
				c.traces++
				leg := r.paths[0]
				for _, q := range r.paths {
					if q.Kind == channel.Direct {
						leg = q
						break
					}
				}
				inbound := w.Budget.TXPowerDBm + r.ap.GainDBi(leg.AoDDeg) -
					leg.PropagationLossDB(w.Budget.FreqHz) + r.dev.RXGainDBi(leg.AoADeg)
				txDeg := geom.DirectionDeg(r.dev.Pos(), hs.Pos)
				r.dev.SetTXBeam(txDeg)
				id = tr.begin("gainctl.optimize")
				res := opt.Optimize(r.dev, inbound, gcfg)
				tr.end(id, 1)
				c.optimize++
				c.probes += int64(res.Steps)

				// One cold probe at the programmed word: a fresh
				// (input, leakage) key, so the feedback solve runs.
				r.probe.SetTXBeam(txDeg)
				r.probe.Amp().SetGainWord(res.Word)
				id = tr.begin("reflector.supply_current")
				sink += r.probe.SupplyCurrentA(inbound)
				tr.end(id, 1)
			}
		}

		id := tr.begin("linkmgr.reassess")
		st := mgr.Reassess()
		tr.end(id, 1)
		c.reassess++
		rates = append(rates, st.RateBps)

		id = tr.begin("channel.trace")
		buf = pc.TraceHInto(0, buf[:0], w.AP.Pos, hs.Pos, w.AP.HeightM, hs.HeightM)
		tr.end(id, 1)
		c.traces++

		id = tr.begin("channel.snr")
		for k := 0; k < snrReps; k++ {
			sink += w.Budget.CombinedSNRdB(buf, w.AP.Array, hs.Array)
		}
		tr.end(id, snrReps)

		id = tr.begin("antenna.gain")
		for k := 0; k < gainReps; k++ {
			for _, q := range buf {
				sink += w.AP.Array.GainDBi(q.AoDDeg) + hs.Array.GainDBi(q.AoADeg)
			}
		}
		tr.end(id, int64(2*gainReps*len(buf)))
	}
	st := pc.Stats()
	c.pc.Hits += st.Hits
	c.pc.Revalidations += st.Revalidations
	c.pc.Misses += st.Misses

	rate := func(now time.Duration) float64 {
		k := int(now / experiments.WorldTick)
		if k >= len(rates) {
			k = len(rates) - 1
		}
		return rates[k]
	}
	id := tr.begin("stream.run")
	rep := stream.Run(sim.New(), stream.Config{Display: vr.HTCVive(), Duration: dur}, rate)
	tr.end(id, int64(rep.Frames))
	c.frames += int64(rep.Frames)

	if sched != nil {
		// Ten share queries per frame interval, the stream's own rate
		// sampling grid.
		step := vr.HTCVive().FrameInterval() / 10
		n := int64(0)
		id := tr.begin("coex.share")
		for t := time.Duration(0); t < dur; t += step {
			sink += sched.Share(t)
			n++
		}
		tr.end(id, n)
		c.shares += n
	}
	return nil
}

// layerValues turns the span totals, the layer pass and the replay
// counts into the per-layer metrics.
func layerValues(spans map[string]layerTotals, lp layerPassResult, c layerCounts, nproc int, vals map[string]float64) {
	ms, us, ns := time.Millisecond, time.Microsecond, time.Nanosecond
	// A layer the workload's own inputs never reached is read from the
	// probe spans.
	tot := func(name string) layerTotals {
		if l := spans[name]; l.Calls > 0 {
			return l
		}
		return spans[probePrefix+name]
	}
	vals["fleet.specs_ms"] = tot("fleet.specs").perCall(ms)
	vals["coex.geometry_ms"] = tot("coex.geometry").perCall(ms)
	vals["venue.interference_ms"] = tot("venue.interference").perCall(ms)

	exp := spans["experiments.pass"].Total
	if lp.fleet1 > 0 {
		vals["fleet.overhead_frac"] = 1 - exp.Seconds()/lp.fleet1.Seconds()
	}
	if lp.fleetN > 0 {
		// e2e throughput over nproc × the traced 1-worker throughput.
		vals["fleet.parallel_eff"] = exp.Seconds() / (float64(nproc) * lp.fleetN.Seconds())
	}
	vals["experiments.bay_ms"] = tot("experiments.bay").perCall(ms)
	for _, v := range variantNames {
		vals["experiments.session_ms."+v] = tot("experiments.session." + v).perCall(ms)
	}
	if lp.playerS > 0 {
		vals["experiments.cpu_us_per_player_s"] = float64(lp.expCPU/us) / lp.playerS
	}

	vals["linkmgr.step_us"] = tot("linkmgr.step").perCall(us)
	vals["linkmgr.reassess_us"] = tot("linkmgr.reassess").perCall(us)
	vals["gainctl.optimize_us"] = tot("gainctl.optimize").perCall(us)
	if c.optimize > 0 {
		vals["gainctl.probes_per_opt"] = float64(c.probes) / float64(c.optimize)
	}
	vals["reflector.supply_current_ns"] = tot("reflector.supply_current").perCall(ns)
	vals["channel.trace_ns"] = tot("channel.trace").perCall(ns)
	if q := c.pc.Hits + c.pc.Revalidations + c.pc.Misses; q > 0 {
		vals["channel.hit_frac"] = float64(c.pc.Hits) / float64(q)
		vals["channel.reval_frac"] = float64(c.pc.Revalidations) / float64(q)
		vals["channel.miss_frac"] = float64(c.pc.Misses) / float64(q)
	}
	vals["channel.snr_ns"] = tot("channel.snr").perCall(ns)
	vals["antenna.gain_ns"] = tot("antenna.gain").perCall(ns)
	vals["coex.share_ns"] = tot("coex.share").perCall(ns)
	vals["stream.frame_ns"] = tot("stream.run").perCall(ns)

	vals["linkmgr.step_calls"] = float64(c.steps)
	vals["gainctl.optimize_calls"] = float64(c.optimize)
	vals["channel.trace_calls"] = float64(c.traces)
	vals["stream.frames"] = float64(c.frames)
}
