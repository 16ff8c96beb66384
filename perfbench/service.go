package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	securadio "securadio"
)

// The service workload first measures the server's capacity with a burst
// of jobs, then offers an open loop of jobs at svcLoad of that rate. The
// job count is fixed by the window, so a seed fixes the inputs; the
// capacity sets only how fast they arrive. README.md gives the numbers
// behind these values.
const (
	svcRuns       = 4   // simulation runs per job
	svcLoad       = 0.5 // the open loop's arrival rate over the measured capacity
	svcJobsPerSec = 64  // open-loop jobs per second of the window
	svcBurstShare = 4   // the burst has one job for every four of the open loop
	svcStallEvery = 20  // every 20th open-loop job gets a stalled event subscriber
)

// jobSpec is the POST /jobs body the service accepts for a campaign job.
type jobSpec struct {
	Tenant   string `json:"tenant"`
	Trace    bool   `json:"trace"`
	Campaign struct {
		Scenario string `json:"scenario"`
		Runs     int    `json:"runs"`
		Seed     int64  `json:"seed"`
	} `json:"campaign"`
}

func newJob(tenant string, runs int, seed int64) jobSpec {
	j := jobSpec{Tenant: tenant, Trace: true}
	j.Campaign.Scenario, j.Campaign.Runs, j.Campaign.Seed = fameScenario().Name, runs, seed
	return j
}

// serviceServer is the server half of the service workload: the campaign
// server on a loopback port, in a process of its own as a daemon runs, so
// the load generator never waits for the server's processor. Its report
// store is a temporary directory and its catalog holds the workload's
// scenario. It prints its base URL on stdout and serves until its stdin
// closes.
func serviceServer() int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveCampaigns(ctx, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench service-server:", err)
		return 1
	}
	return 0
}

func serveCampaigns(ctx context.Context, stdin io.Reader, stdout io.Writer) error {
	dir, err := os.MkdirTemp("", "perfbench-service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := securadio.NewCampaignServer(securadio.ServiceConfig{
		StoreDir: dir, QueueLimit: 1 << 16,
		Catalog: &securadio.ScenarioFile{Scenarios: []securadio.Scenario{fameScenario()}},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	if _, err := fmt.Fprintf(stdout, "http://%s\n", ln.Addr()); err != nil {
		return err
	}
	eof := make(chan struct{})
	go func() {
		io.Copy(io.Discard, stdin)
		close(eof)
	}()
	select {
	case <-eof:
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Drain(drainCtx)
}

// serviceInstance is a campaign server process with two client
// connections: one submits and polls, the other holds the stalled event
// subscriptions.
type serviceInstance struct {
	cfg    *config
	server *exec.Cmd
	stdin  io.Closer // closing it stops the server
	base   string
	client *http.Client
	stall  *http.Client
	held   io.Closer // the open stalled subscription
}

func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// setupService starts the server process at GOMAXPROCS=1, waits for the
// first /healthz 200 and runs a warm-up job.
func setupService(ctx context.Context, cfg *config) (inst instance, err error) {
	s := &serviceInstance{cfg: cfg, client: oneConn(), stall: oneConn()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cmd := exec.Command(cfg.exe, "service-server")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = cfg.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start service server: %w", err)
	}
	s.server, s.stdin = cmd, stdin
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("service server gave no address: %w", err)
	}
	s.base = strings.TrimSpace(line)

	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("service: no /healthz 200 within 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	st, err := s.submit(ctx, newJob("warmup", 1, seedFor(warmupSeed, warmupOp)))
	if err != nil {
		return nil, err
	}
	done, err := s.await(ctx, []string{st.ID})
	if err != nil {
		return nil, err
	}
	if done[st.ID].State != "done" {
		return nil, fmt.Errorf("service: warm-up job ended %s: %s", done[st.ID].State, done[st.ID].Error)
	}
	return s, nil
}

func (s *serviceInstance) close() {
	s.unstall()
	s.client.CloseIdleConnections()
	s.stall.CloseIdleConnections()
	if s.server != nil {
		s.stdin.Close()
		waitOrKill(s.server)
		s.server = nil
	}
}

func (s *serviceInstance) submit(ctx context.Context, j jobSpec) (securadio.ServiceJobStatus, error) {
	var st securadio.ServiceJobStatus
	body, err := json.Marshal(j)
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	blob, err := s.call(req, http.StatusAccepted)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(blob, &st)
}

// call sends req on the submitting connection and returns the body of an
// answer with the wanted status.
func (s *serviceInstance) call(req *http.Request, want int) ([]byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(blob))
	}
	return blob, nil
}

func (s *serviceInstance) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	return s.call(req, http.StatusOK)
}

// await polls GET /jobs until every listed job is terminal.
func (s *serviceInstance) await(ctx context.Context, ids []string) (map[string]securadio.ServiceJobStatus, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		blob, err := s.get(ctx, "/jobs")
		if err != nil {
			return nil, err
		}
		var list []securadio.ServiceJobStatus
		if err := json.Unmarshal(blob, &list); err != nil {
			return nil, err
		}
		byID := make(map[string]securadio.ServiceJobStatus, len(list))
		for _, st := range list {
			byID[st.ID] = st
		}
		pending := 0
		for _, id := range ids {
			if st, ok := byID[id]; !ok || !(st.State == "done" || st.State == "failed" || st.State == "cancelled") {
				pending++
			}
		}
		if pending == 0 {
			return byID, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("service: %d of %d jobs still unfinished after 60s", pending, len(ids))
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// stallOn opens an event subscription to job id on the second connection
// and never reads it, replacing the previous one.
func (s *serviceInstance) stallOn(ctx context.Context, id string) error {
	s.unstall()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.stall.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	s.held = resp.Body
	return nil
}

func (s *serviceInstance) unstall() {
	if s.held != nil {
		s.held.Close()
		s.held = nil
	}
}

// sentJob is one submitted job.
type sentJob struct {
	id        string
	seed      int64
	due       time.Time
	late, rtt time.Duration
	stalled   bool
	st        securadio.ServiceJobStatus
}

// send submits one job due at due, counting it in t; with stall set it
// also opens a stalled event subscription to it.
func (s *serviceInstance) send(ctx context.Context, tenant string, seed int64, due time.Time, stall bool, t *tally) (sentJob, bool) {
	j := sentJob{seed: seed, due: due, late: time.Since(due), stalled: stall}
	t0 := time.Now()
	st, err := s.submit(ctx, newJob(tenant, svcRuns, seed))
	j.rtt = time.Since(t0)
	t.ops++
	if err != nil {
		t.failed++
		t.problem("submit job of seed %d: %v", seed, err)
		return j, false
	}
	j.id = st.ID
	if stall {
		if err := s.stallOn(ctx, j.id); err != nil {
			t.problem("stall on %s: %v", j.id, err)
		}
	}
	return j, true
}

// collect waits until every job has finished and returns those that ran
// all their runs, counting the others in t.
func (s *serviceInstance) collect(ctx context.Context, jobs []sentJob, t *tally) ([]sentJob, error) {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	statuses, err := s.await(ctx, ids)
	if err != nil {
		return nil, err
	}
	done := jobs[:0]
	for _, j := range jobs {
		j.st = statuses[j.id]
		if j.st.State != "done" || j.st.Finished == nil || j.st.Started == nil || j.st.RunsDone != svcRuns {
			t.failed++
			t.problem("job %s ended %s after %d runs: %s", j.id, j.st.State, j.st.RunsDone, j.st.Error)
			continue
		}
		done = append(done, j)
	}
	return done, nil
}

// capacity is the server's throughput when it never waits for work: it
// submits a burst of jobs back to back, so the server's one lane runs them
// without a pause, and reads the throughput off their Finished stamps. It
// returns the jobs that finished after the first and the span they took.
func (s *serviceInstance) capacity(ctx context.Context, jobs int, seed int64, t *tally) (int, time.Duration, error) {
	var sent []sentJob
	for i := 0; i < jobs; i++ {
		// Indexes below warmupOp: seeds no open-loop job uses.
		if j, ok := s.send(ctx, []string{"a", "b"}[i%2], seedFor(seed, warmupOp-1-i), time.Now(), false, t); ok {
			sent = append(sent, j)
		}
	}
	done, err := s.collect(ctx, sent, t)
	if err != nil {
		return 0, 0, err
	}
	if len(done) < 2 {
		return 0, 0, fmt.Errorf("service: %d of %d burst jobs finished, want 2", len(done), jobs)
	}
	first, last := *done[0].st.Finished, *done[0].st.Finished
	for _, j := range done[1:] {
		if j.st.Finished.Before(first) {
			first = *j.st.Finished
		}
		if j.st.Finished.After(last) {
			last = *j.st.Finished
		}
	}
	if !last.After(first) {
		return 0, 0, fmt.Errorf("service: %d burst jobs all finished at %v", len(done), first)
	}
	return len(done) - 1, last.Sub(first), nil
}

// openLoop submits jobs at rate a second — on time whether or not earlier
// jobs are done — and waits until all have finished. Job i is due at an
// instant drawn uniformly from its own slot [i, i+1)/rate, so arrivals
// jitter but do not bunch: under Poisson arrivals each seed bunches its
// jobs differently, and in a queue model the p95 latency spreads by
// 11–21% between seeds at half load from that alone (19–41% at 70%
// load). Each job's latency runs from when it was
// due, so a stall in the generator or the server counts against every job
// it delays.
func (s *serviceInstance) openLoop(ctx context.Context, jobs int, rate float64, seed int64, t *tally) ([]sentJob, error) {
	rng := rand.New(rand.NewSource(seed))
	slot := time.Duration(float64(time.Second) / rate)
	var sent []sentJob
	start := time.Now()
	for i := 0; i < jobs; i++ {
		due := start.Add(time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot))))
		tenant := []string{"a", "b"}[rng.Intn(2)]
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(wait):
			}
		}
		if j, ok := s.send(ctx, tenant, seedFor(seed, i), due, i%svcStallEvery == 0, t); ok {
			sent = append(sent, j)
		}
	}
	s.unstall()
	return s.collect(ctx, sent, t)
}

// latency is a job's time from due to its Finished stamp.
func (j sentJob) latency() time.Duration { return j.st.Finished.Sub(j.due) }

// loadJobs is the open loop's job count for a window.
func loadJobs(window time.Duration) int { return max(1, int(svcJobsPerSec*window.Seconds())) }

// loaded is a capacity burst followed by an open loop at svcLoad of the
// capacity.
type loaded struct {
	burstJobs int // jobs the burst finished after its first
	burstSpan time.Duration
	rate      float64   // the open loop's arrivals a second
	jobs      []sentJob // the open loop's finished jobs
}

// load measures the capacity with a burst of one job for every
// svcBurstShare of the open loop's, then offers the open loop.
func (s *serviceInstance) load(ctx context.Context, jobs int, t *tally) (*loaded, error) {
	var (
		l   loaded
		err error
	)
	l.burstJobs, l.burstSpan, err = s.capacity(ctx, max(3, jobs/svcBurstShare), s.cfg.seed, t)
	if err != nil {
		return nil, err
	}
	l.rate = svcLoad * float64(l.burstJobs) / l.burstSpan.Seconds()
	l.jobs, err = s.openLoop(ctx, jobs, l.rate, s.cfg.seed, t)
	return &l, err
}

func (s *serviceInstance) measure(ctx context.Context) (*measurement, error) {
	m := &measurement{}
	l, err := s.load(ctx, loadJobs(s.cfg.window), &m.tally)
	if err != nil {
		return nil, err
	}
	jobs := l.jobs
	for _, j := range jobs {
		m.latencies = append(m.latencies, ms(j.latency()))
	}
	// runs_per_s is the capacity: the runs the service completes a
	// second when it never waits for work.
	m.runs, m.wall = l.burstJobs*svcRuns, l.burstSpan

	// Every stored report must be the bytes a one-shot campaign of the
	// same definition writes: check the first, middle and last jobs, and
	// digest the first report.
	if len(jobs) > 0 {
		for k, j := range []sentJob{jobs[0], jobs[len(jobs)/2], jobs[len(jobs)-1]} {
			report, err := s.checkReport(ctx, j)
			if err != nil {
				m.failed++
				m.problem("%v", err)
			} else if k == 0 {
				sum := sha256.Sum256(report)
				m.digest = hex.EncodeToString(sum[:])[:16]
			}
		}
	}
	return m, nil
}

// checkReport fetches a job's stored report and compares it with what a
// one-shot campaign of the same definition writes, held to
// checkAggregate.
func (s *serviceInstance) checkReport(ctx context.Context, j sentJob) ([]byte, error) {
	got, err := s.get(ctx, "/jobs/"+j.id+"/report")
	if err != nil {
		return nil, err
	}
	camp := securadio.Campaign{Scenario: fameScenario(), Runs: svcRuns, Seed: j.seed}
	agg, err := securadio.RunCampaign(ctx, camp)
	if err != nil {
		return nil, err
	}
	if err := checkAggregate(agg, camp); err != nil {
		return nil, err
	}
	var want bytes.Buffer
	if err := agg.WriteJSON(&want); err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want.Bytes()) {
		return nil, fmt.Errorf("job %s: stored report differs from the one-shot campaign", j.id)
	}
	return got, nil
}

func (s *serviceInstance) layers(ctx context.Context, m metricSet) (*tally, error) {
	start := time.Now()
	sc := fameScenario()
	t := &tally{}
	l, err := s.load(ctx, loadJobs(s.cfg.window/2), t)
	if err != nil {
		return nil, err
	}
	var lat, wait, exec, rtt, stalledExec, otherExec []float64
	var late time.Duration
	for _, j := range l.jobs {
		e := ms(j.st.Finished.Sub(*j.st.Started))
		lat = append(lat, ms(j.latency()))
		// The wait runs from the due time, not from Submitted: the server
		// has one processor, so a job that arrives while another executes
		// is stamped Submitted only when the handler gets to run, and its
		// wait shows in the POST round trip instead.
		wait = append(wait, ms(j.st.Started.Sub(j.due)))
		exec = append(exec, e)
		rtt = append(rtt, ms(j.rtt))
		if j.stalled {
			stalledExec = append(stalledExec, e)
		} else {
			otherExec = append(otherExec, e)
		}
		late = max(late, j.late)
	}
	// A one-shot campaign of a job's size, without the service around it.
	var oneShot []float64
	for i := 0; i < 20; i++ {
		camp := securadio.Campaign{Scenario: sc, Runs: svcRuns, Seed: seedFor(s.cfg.seed, i), Workers: 1}
		t0 := time.Now()
		if _, err := securadio.RunCampaign(ctx, camp); err != nil {
			return nil, err
		}
		oneShot = append(oneShot, ms(time.Since(t0)))
	}
	p50 := func(xs []float64) (float64, error) {
		sort.Float64s(xs)
		return percentile(xs, 50)
	}
	latP50, err1 := p50(lat)
	execP50, err2 := p50(exec)
	rttP50, err3 := p50(rtt)
	oneP50, err4 := p50(oneShot)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return nil, err
	}
	// At half load most jobs find the lane free, so the mean, not the
	// median, shows the jobs that queued.
	m.set("service.queue_wait_frac", mean(wait)/mean(lat))
	m.set("service.exec_overhead_frac", (execP50-oneP50)/execP50)
	m.set("service.submit_rtt_frac", rttP50/latP50)
	m.set("service.stalled_exec_ratio", ratio(mean(stalledExec), mean(otherExec)))
	m.set("service.gen_late_frac", late.Seconds()*l.rate)
	zero(m, fabricMetrics...)

	over, err := fleetOverhead(ctx, sc, seedFor(s.cfg.seed, 0), s.cfg.window/20)
	if err != nil {
		return nil, err
	}
	m.set("fleet.overhead_frac", over)
	lg, err := runLedger(ctx, func(i int) simCase {
		seed := seedFor(s.cfg.seed, i/svcRuns)
		run := i % svcRuns
		return scenarioCase(sc, run, securadio.Campaign{Seed: seed}.SeedFor(run))
	}, start.Add(s.cfg.window), minLedgerRuns)
	if err != nil {
		return nil, err
	}
	lg.metrics(m)
	t.ops += lg.runs
	return t, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
