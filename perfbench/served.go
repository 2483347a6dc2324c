package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/server"
	"github.com/movr-sim/movr/internal/venue"
)

// daemon is an in-process movrd on a loopback listener: the job API a
// client of the service talks to, with the durable store off (fsync
// latency would measure the disk, not the program).
type daemon struct {
	srv    *server.Server
	http   *http.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon starts the daemon and waits for its first healthy
// response. conns bounds the client's connections.
func startDaemon(workers, conns int) (*daemon, error) {
	srv, err := server.New(server.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			DialContext:         dialNoLinger,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.http.Serve(ln) }()
	resp, err := d.client.Get(d.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// dialNoLinger dials with SO_LINGER 0, so closing the client's idle
// connections resets them instead of leaving TIME_WAIT sockets behind.
// Thousands of those, left by earlier runs within the last minute, slow
// the kernel's port handling and with it the daemon's start-up.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		if err := tc.SetLinger(0); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// stop closes the client's connections (first, so they reset rather
// than linger), shuts the listener and scheduler down, and waits for
// the serve goroutine to return.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // a timeout leaves Close to cut connections
	_ = d.http.Close()
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("daemon serve: %v", err)
	}
	d.srv.Close()
}

// submission is one scheduled request of the open loop.
type submission struct {
	Due  time.Duration
	Spec server.JobSpec
	// First is the index of the earlier submission with the same spec,
	// or -1 for a spec not submitted before.
	First int
}

// outcome is what one submission got back.
type outcome struct {
	Sent, Done time.Duration // relative to the phase start
	Status     int
	Cache      string // X-Movr-Cache: hit, miss or coalesced
	State      string
	SHA        string
	Intact     bool // the result bytes received hash to SHA
	Err        error
}

// jobMix generates the i-th fresh job spec of a served phase.
type jobMix func(rng *rand.Rand, i int) server.JobSpec

// repeatEvery makes every repeatEvery-th submission repeat an earlier
// spec, so cache-hit reads run beside executing misses.
const repeatEvery = 4

// repeatGap is how many submissions back a repeated spec is drawn from
// at the nearest, so it has almost always finished (a hit, not a
// coalesced follower).
const repeatGap = 8

// schedule draws n submissions at rate jobs/s: arrival i is due at
// (i + ½ + u)/rate with u uniform in [−0.4, 0.4), so arrivals stay in
// order and never bunch, and the same seed gives the same schedule.
func schedule(rng *rand.Rand, n int, rate float64, mix jobMix) []submission {
	subs := make([]submission, n)
	var fresh []int
	for i := range subs {
		u := rng.Float64()*0.8 - 0.4
		subs[i].Due = time.Duration((float64(i) + 0.5 + u) / rate * float64(time.Second))
		subs[i].First = -1
		if i%repeatEvery == repeatEvery-1 {
			var pool []int
			for _, f := range fresh {
				if f <= i-repeatGap {
					pool = append(pool, f)
				}
			}
			if len(pool) > 0 {
				f := pool[rng.Intn(len(pool))]
				subs[i].Spec, subs[i].First = subs[f].Spec, f
				continue
			}
		}
		subs[i].Spec = mix(rng, len(fresh))
		fresh = append(fresh, i)
	}
	return subs
}

// openLoop sends every submission at its due time over at most conns
// concurrent requests. A request waits for a free connection, so a
// stalled response delays the ones due behind it; each outcome's
// latency is counted from its due time, and Sent−Due is how late the
// generator was.
func openLoop(ctx context.Context, subs []submission, conns int, do func(ctx context.Context, i int) outcome) []outcome {
	outs := make([]outcome, len(subs))
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sent := time.Since(start)
				o := do(ctx, i)
				o.Sent, o.Done = sent, time.Since(start)
				outs[i] = o
			}
		}()
	}
	for i, s := range subs {
		if wait := s.Due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return outs
}

// submit posts one job and waits for it to finish.
func (d *daemon) submit(ctx context.Context, spec server.JobSpec) outcome {
	body, err := json.Marshal(spec)
	if err != nil {
		return outcome{Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return outcome{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return outcome{Err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	o := outcome{Status: resp.StatusCode, Cache: resp.Header.Get("X-Movr-Cache"), Err: err}
	if err != nil || resp.StatusCode != http.StatusOK {
		return o
	}
	var view struct {
		State     string          `json:"state"`
		ResultSHA string          `json:"result_sha256"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		o.Err = fmt.Errorf("decode job view: %w", err)
		return o
	}
	// The job view indents the embedded result; the digest is over the
	// compact bytes the executor produced.
	var compact bytes.Buffer
	if err := json.Compact(&compact, view.Result); err != nil {
		o.Err = fmt.Errorf("compact result: %w", err)
		return o
	}
	o.State, o.SHA = view.State, view.ResultSHA
	o.Intact = checkDigest(compact.Bytes(), o.SHA) == nil
	return o
}

// scrape reads the named unlabelled samples from /metrics.
func (d *daemon) scrape(names ...string) (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || !want[f[0]] {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", f[0], err)
		}
		out[f[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metric %s not exposed", n)
		}
	}
	return out, nil
}

// verifyServed checks every outcome: it must be a 200 with state done,
// its body must hash to the reported digest, a repeated spec must
// return its first submission's digest, and a first submission must
// match ref, the digest of an in-process run of the same spec. It
// reports per submission whether every check passed.
func verifyServed(subs []submission, outs []outcome, ref func(server.JobSpec) (string, error)) ([]bool, error) {
	oks := make([]bool, len(outs))
	for i, o := range outs {
		ok := o.Err == nil && o.Status == http.StatusOK && o.State == "done" && o.Intact
		if ok && subs[i].First >= 0 {
			ok = o.SHA == outs[subs[i].First].SHA
		}
		if ok && subs[i].First < 0 {
			want, err := ref(subs[i].Spec)
			if err != nil {
				return nil, fmt.Errorf("reference for submission %d: %w", i, err)
			}
			ok = o.SHA == want
		}
		if !ok {
			logf("submission %d failed: status %d state %q cache %q sha %.12s intact %v err %v",
				i, o.Status, o.State, o.Cache, o.SHA, o.Intact, o.Err)
		}
		oks[i] = ok
	}
	return oks, nil
}

// resultPayload mirrors the daemon's result document for a fleet job,
// so an in-process run of the same spec can be hashed the same way.
type resultPayload struct {
	Kind   string        `json:"kind"`
	Fleet  *fleet.Result `json:"fleet,omitempty"`
	Render string        `json:"render"`
}

// referenceDigest runs a fleet job spec in-process, outside the daemon,
// and returns the digest the daemon's result must have.
func referenceDigest(ctx context.Context, spec server.JobSpec, workers int) (string, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return "", err
	}
	if norm.Kind != "fleet" {
		return "", fmt.Errorf("reference: kind %q is not a fleet job", norm.Kind)
	}
	f := *norm.Fleet
	specs, title, err := expandFleetJob(f)
	if err != nil {
		return "", err
	}
	var col fleet.Collector
	if f.Agg == "stream" {
		col = fleet.StreamCollectorFor(specs)
	}
	res, err := fleet.RunCollect(ctx, specs, fleet.Config{Workers: workers}, col)
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(resultPayload{Kind: "fleet", Fleet: &res, Render: res.Render(title)})
	if err != nil {
		return "", err
	}
	return digest(raw), nil
}

// expandFleetJob turns a normalized fleet job into its session specs —
// the scenario set once per variant, IDs suffixed "@variant" — and the
// report title, as the daemon does for the knobs the benchmark uses.
func expandFleetJob(f server.FleetJobSpec) ([]fleet.Spec, string, error) {
	kind, err := fleet.ParseKind(f.Scenario)
	if err != nil {
		return nil, "", err
	}
	if f.Shard != nil || f.Trace || f.CoexPolicy != "" {
		return nil, "", fmt.Errorf("reference: shard, trace and coex_policy are not modelled")
	}
	scfg := fleet.ScenarioConfig{
		Seed:                 f.Seed,
		Duration:             time.Duration(f.DurationMS) * time.Millisecond,
		ReEvalPeriod:         time.Duration(f.ReEvalMS) * time.Millisecond,
		HeadsetsPerRoom:      f.HeadsetsPerRoom,
		VenueBays:            f.Bays,
		VenueChannels:        f.Channels,
		VenueAssign:          venue.AssignMode(f.Assign),
		VenueInterferenceOff: f.InterferenceOff,
		VenueAdmission:       f.Admission,
	}
	base, err := kind.Specs(f.Sessions, scfg)
	if err != nil {
		return nil, "", err
	}
	specs := make([]fleet.Spec, 0, len(base)*len(f.Variants))
	for _, name := range f.Variants {
		v, ok := sessionVariants[name]
		if !ok {
			return nil, "", fmt.Errorf("reference: unknown variant %q", name)
		}
		for _, sp := range base {
			sp.ID += "@" + name
			sp.Variant = v
			specs = append(specs, sp)
		}
	}
	title := kind.Title()
	if fleet.IsVenueKind(kind) {
		title += fmt.Sprintf(" [bays=%d channels=%d assign=%s]", f.Bays, f.Channels, f.Assign)
	}
	if len(f.Variants) > 1 {
		title += " [" + strings.Join(f.Variants, "+") + "]"
	}
	return specs, title, nil
}
