package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/service"
	"repro/slx"
)

const (
	// serviceClients is the closed loop's client count: each client
	// submits a job, polls it to a terminal state, then submits the next.
	serviceClients = 2
	// pollInterval is the clients' poll period: the loop of
	// `slx submit -wait -interval 1ms`, not of the client's 200 ms
	// default. The jobs run for about a millisecond, so at the default
	// a job's latency would be the poll sleep rather than the service.
	// NOTES.md gives the measurement behind the choice.
	pollInterval = time.Millisecond
)

// serviceJob is one entry of the job mix with its known answer.
type serviceJob struct {
	name     string
	part     int
	spec     service.JobSpec
	violates bool
}

// serviceMix is the job mix of pass k. Part 0 is the exhaustive jobs
// (a small exploration and a shared-cache job), part 1 the sampling job
// and the violating job. The sample seed is drawn from the run seed
// and k.
func serviceMix(seed int64, k int) []serviceJob {
	rng := passRand(seed, k)
	return []serviceJob{
		{name: "exhaustive-consensus-d10", spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 10}}},
		{name: "sample-i12-d20", part: 1, spec: service.JobSpec{Target: "i12", Spec: slx.Spec{
			Depth: 20, Sample: true, Schedules: 100, D: 3, Seed: rng.Int63n(1<<40) + 1}}},
		{name: "violating-lossyreg-d8", part: 1, violates: true, spec: service.JobSpec{Target: "lossyreg", Spec: slx.Spec{Depth: 8}}},
		{name: "shared-cache-consensus-d12", spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 12, Cache: true}, SharedCache: true}},
	}
}

// roundsPerDaemon bounds the rounds one slxd instance serves. The
// results store keeps every job, so a daemon that served a whole run
// would hold more jobs, and more memory, the faster it ran; a fresh
// daemon every roundsPerDaemon rounds keeps peak_rss_mb independent of
// throughput. The restart happens between rounds and is not timed.
const roundsPerDaemon = 100

// serviceInstance runs the closed loop against an in-process slxd.
type serviceInstance struct {
	seed   int64
	d      *daemon
	rounds int // rounds served by d
}

// daemon is an in-process slxd on a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

func setupService(seed int64) (instance, error) {
	d, err := startDaemon(seed)
	if err != nil {
		return nil, err
	}
	return &serviceInstance{seed: seed, d: d}, nil
}

// startDaemon starts slxd and warms it up with one job of the mix from
// a round that is never measured.
func startDaemon(seed int64) (*daemon, error) {
	srv, err := service.NewServer(service.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownServer(srv)
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	warm := serviceMix(seed, -1)[0]
	o, _, job := d.do(warm, nil, 0)
	if o.err == nil {
		o.err = verify(warm, job)
	}
	if o.err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", o.err)
	}
	return d, nil
}

func shutdownServer(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // the jobs are all terminal by now
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // idle connections only
	<-d.served
	d.client.CloseIdleConnections()
	shutdownServer(d.srv)
	// Collect the daemon's jobs now, untimed, so that the next daemon
	// starts on an empty heap: peak_rss_mb is then the peak of one
	// daemon's lifetime, not of whether a GC cycle happened to fall
	// between two daemons.
	runtime.GC()
}

func (s *serviceInstance) close() { s.d.close() }

// jobStats is what one job tells the service layer metrics.
type jobStats struct {
	queueWait, runTime, api time.Duration
	// http is the time spent in API requests, response decoding
	// included.
	http     time.Duration
	polls    int
	rejected int
}

// do submits one job and polls it to a terminal state. The latency
// runs from sending the POST to reading the terminal state. The answer
// is checked later, by verify, so that checking stays out of the loop.
func (d *daemon) do(j serviceJob, tr *tracer, pass int) (opResult, jobStats, service.Job) {
	var st jobStats
	res := opResult{name: j.name, part: j.part}
	body, err := json.Marshal(j.spec)
	if err != nil {
		res.err = err
		return res, st, service.Job{}
	}
	t0 := time.Now()
	var job service.Job
	code, err := d.call(http.MethodPost, "/v1/jobs", body, &job, &st)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d", code)
	}
	for err == nil && !terminal(job.State) {
		time.Sleep(pollInterval)
		st.polls++
		code, err = d.call(http.MethodGet, "/v1/jobs/"+job.ID, nil, &job, &st)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", code)
		}
	}
	res.dur = time.Since(t0)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		st.rejected++
	}
	if err != nil {
		res.err = err
		return res, st, job
	}
	st.queueWait = job.Started.Sub(job.Submitted)
	st.runTime = job.Finished.Sub(job.Started)
	st.api = res.dur - job.Finished.Sub(job.Submitted)
	if tr != nil {
		start := tr.at(t0)
		id := tr.record(span{Trace: pass, Name: "service.job." + j.name, StartNs: start, EndNs: start + int64(res.dur), ChildNs: int64(st.http)})
		tr.record(span{Trace: pass, Parent: id, Name: "service.queue_wait", StartNs: tr.at(job.Submitted), EndNs: tr.at(job.Started)})
		tr.record(span{Trace: pass, Parent: id, Name: "service.run", StartNs: tr.at(job.Started), EndNs: tr.at(job.Finished)})
	}
	return res, st, job
}

// call makes one API request and decodes a JSON response into out. Its
// time is added to st.http rather than recorded as a span of its own,
// so a traced run keeps a fixed number of spans per job.
func (d *daemon) call(method, path string, body []byte, out any, st *jobStats) (int, error) {
	t0 := time.Now()
	defer func() { st.http += time.Since(t0) }()
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, err
}

func terminal(state string) bool {
	return state == service.StateDone || state == service.StateFailed || state == service.StateCancelled
}

// verify checks a terminal job against its known answer. A violation's
// witness must replay in process, on the target's own checker, to the
// same property.
func verify(j serviceJob, job service.Job) error {
	if job.State != service.StateDone || job.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	r := job.Result
	if r.OK == j.violates {
		return fmt.Errorf("job %s: ok=%v, want %v", job.ID, r.OK, !j.violates)
	}
	if !j.violates {
		return nil
	}
	var failed *service.VerdictResult
	for i := range r.Verdicts {
		if !r.Verdicts[i].Holds {
			failed = &r.Verdicts[i]
		}
	}
	if failed == nil {
		return errors.New("violation without a failing verdict")
	}
	t, _ := service.LookupTarget(j.spec.Target)
	c := slx.New(append(t.Options(), j.spec.Options()...)...)
	return replaysTo(c, slx.Verdict{Property: failed.Property, Witness: r.Witness}, t.Property())
}

// pass runs one round of the closed loop: each client works through
// the job mix once, starting at its own offset.
func (s *serviceInstance) pass(k int, tr *tracer) passResult {
	if s.rounds == roundsPerDaemon {
		s.d.close()
		d, err := startDaemon(s.seed)
		if err != nil {
			return passResult{ops: []opResult{{name: "restart slxd", err: err}}}
		}
		s.d, s.rounds = d, 0
	}
	s.rounds++
	mix := serviceMix(s.seed, k)
	ops := make([][]opResult, serviceClients)
	stats := make([][]jobStats, serviceClients)
	jobs := make([][]service.Job, serviceClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range mix {
				o, st, job := s.d.do(mix[(i+2*c)%len(mix)], tr, k)
				ops[c] = append(ops[c], o)
				stats[c] = append(stats[c], st)
				jobs[c] = append(jobs[c], job)
			}
		}(c)
	}
	wg.Wait()
	p := passResult{dur: time.Since(start)}
	for c := range ops {
		for i, o := range ops[c] {
			if o.err == nil {
				o.err = verify(mix[(i+2*c)%len(mix)], jobs[c][i])
			}
			p.ops = append(p.ops, o)
		}
	}
	if tr != nil {
		var wait, runT, api, polls []float64
		rejected := 0
		for c := range stats {
			for _, st := range stats[c] {
				wait = append(wait, ms(st.queueWait))
				runT = append(runT, ms(st.runTime))
				api = append(api, ms(st.api))
				polls = append(polls, float64(st.polls))
				rejected += st.rejected
			}
		}
		p.layers = map[string]float64{
			"service.queue_wait_ms_p50": median(wait),
			"service.run_ms_p50":        median(runT),
			"service.api_ms_p50":        median(api),
			"service.polls_per_job":     mean(polls),
			"service.rejected":          float64(rejected),
		}
	}
	return p
}

func (s *serviceInstance) finalChecks() []opResult { return nil }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
