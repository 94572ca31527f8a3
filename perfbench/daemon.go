package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flow"
	"repro/internal/sat"
	"repro/internal/server"
)

const (
	daemonRunners = 2 // splitlockd's default -jobs
	daemonClients = 2 // closed-loop clients, one per runner
	// daemonSlots gives every job its full solver grant (2 runners × at
	// most 2 members), so each payload is a function of its spec alone.
	daemonSlots = daemonRunners * 2
	// jobsPerSecond sizes the batch to fill about --seconds on a 2-CPU
	// host; 64 jobs at the 40 s run length give a p84 tail.
	jobsPerSecond = 1.6
	repeatShare   = 4 // about one job in repeatShare repeats an earlier spec
)

// jobMix generates n job specs from seed. The n-n/repeatShare fresh jobs
// are the same for every seed: fresh job j takes the next (kind, design)
// pair in turn, with key size, solver width and split layer alternating
// and design seed j+1. The seed picks which jobs repeat and shuffles the
// order within blocks, so every seed runs nearly the same work at the
// same pace and runs with different seeds stay comparable.
//
// The batch opens with one lock job twice: both clients submit at once,
// so the second coalesces onto the first's in-flight run. The other
// repeats follow their original by at least two blocks, when it has long
// settled, so they are cache hits; tailHits of them close the batch, so
// it ends on short jobs and neither client idles long at the end.
func jobMix(seed uint64, n int) []flow.JobSpec {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	type design struct {
		bench string
		scale float64
	}
	designs := []design{{"c880", 1}, {"c1355", 1}, {"c1908", 1}, {"c3540", 1}, {"b14", 0.1}}
	kinds := []flow.JobKind{flow.JobVerify, flow.JobAttack, flow.JobLock}
	fresh := max(1, n-n/repeatShare)
	specs := make([]flow.JobSpec, 0, fresh)
	var locks []int
	for j := 0; j < fresh; j++ {
		pair := j % (len(kinds) * len(designs))
		d := designs[pair/len(kinds)]
		spec := flow.JobSpec{
			Kind:          kinds[pair%len(kinds)],
			Bench:         d.bench,
			Scale:         d.scale,
			KeyBits:       64 << (j % 2),
			Seed:          uint64(j + 1),
			SolverWorkers: 1 + (j/2)%2,
		}
		if spec.Kind == flow.JobLock {
			spec.SplitLayer = 4 + 2*((j/4)%2)
			locks = append(locks, j)
		}
		specs = append(specs, spec)
	}
	a := 0
	if len(locks) > 0 {
		a = locks[rng.IntN(len(locks))]
	}
	mix := []flow.JobSpec{specs[a], specs[a]}
	others := append(append([]flow.JobSpec(nil), specs[:a]...), specs[a+1:]...)
	const size, tailHits = repeatShare - 1, 2
	var blocks [][]flow.JobSpec
	for lo := 0; lo < len(others); lo += size {
		blocks = append(blocks, others[lo:min(lo+size, len(others))])
	}
	pick := func(blk []flow.JobSpec) flow.JobSpec { return blk[rng.IntN(len(blk))] }
	inter := n - fresh - 1 - tailHits // hits between blocks
	for b, blk := range blocks {
		blk = append([]flow.JobSpec(nil), blk...)
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		mix = append(mix, blk...)
		if b >= 2 && inter > 0 {
			mix = append(mix, pick(blocks[b-2]))
			inter--
		}
	}
	for len(mix) < n {
		mix = append(mix, pick(blocks[rng.IntN(max(1, len(blocks)-2))]))
	}
	return mix[:n]
}

// batchSize is the number of jobs in a run of the given length.
func batchSize(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*jobsPerSecond)))
}

// jobKey names job i of the mix in outputs and expected files.
func jobKey(i int, s flow.JobSpec) string {
	return fmt.Sprintf("%03d %s %s k%d sw%d s%d", i, s.Kind, s.Bench, s.KeyBits, s.SolverWorkers, s.Seed)
}

type daemonState struct {
	mix   []flow.JobSpec
	dir   string
	mgr   *server.Manager
	hsrv  *http.Server
	base  string
	wg    sync.WaitGroup
	cl    *http.Client
	stats serverStats
}

// serverStats are the daemon-side counters of one plain pass.
type serverStats struct {
	submitS   float64 // summed POST /v1/jobs latency
	refused   int     // 503 answers
	cacheable int     // jobs with a cache outcome
	cacheHits int     // of those, served by a hit or coalesced
}

// setupDaemonMix generates the job mix, starts splitlockd in process on
// a loopback port with a fresh state directory, and runs one small job
// of each kind through it.
func setupDaemonMix(ctx context.Context, seed uint64, dir string, seconds int) (runState, error) {
	s := &daemonState{mix: jobMix(seed, batchSize(seconds)), dir: dir, cl: &http.Client{}}
	mgr, err := server.NewManager(server.ManagerOptions{
		StateDir: filepath.Join(dir, "state"), MaxJobs: daemonRunners, SolverSlots: daemonSlots,
	})
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hsrv = &http.Server{Handler: server.NewServer(mgr)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.hsrv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for _, kind := range []flow.JobKind{flow.JobVerify, flow.JobAttack, flow.JobLock} {
		warm := flow.JobSpec{Kind: kind, Bench: "c432", Scale: 1, KeyBits: 16, Seed: warmUpSeed}
		if _, rec, _, err := s.submit(ctx, warm); err != nil || rec.Status != server.StatusDone {
			s.close()
			return nil, fmt.Errorf("warm-up %s job: %v %s", kind, err, rec.Error)
		}
	}
	return s, nil
}

func (s *daemonState) close() {
	if s.hsrv != nil {
		_ = s.hsrv.Close()
		s.wg.Wait()
	}
	if s.mgr != nil {
		_ = s.mgr.Drain(30 * time.Second)
	}
	_ = os.RemoveAll(filepath.Join(s.dir, "state"))
}

// check validates a job's payload against the spec it was submitted with.
func (s *daemonState) check(key string, b []byte) error {
	for i, spec := range s.mix {
		if jobKey(i, spec) == key {
			return checkJob(spec, b)
		}
	}
	return fmt.Errorf("no job %q in the mix", key)
}

var errRefused = errors.New("refused (503)")

// submit posts one job and waits for it to settle by reading its event
// stream to the end, which the daemon closes once the record is
// terminal. It returns the POST latency and the terminal record.
func (s *daemonState) submit(ctx context.Context, spec flow.JobSpec) (post time.Duration, rec server.JobRecord, cache string, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, rec, "", err
	}
	t0 := time.Now()
	var acc server.JobRecord
	code, err := s.call(ctx, http.MethodPost, "/v1/jobs", body, &acc)
	post = time.Since(t0)
	if err != nil {
		return post, rec, "", err
	}
	switch code {
	case http.StatusAccepted:
	case http.StatusServiceUnavailable:
		return post, rec, "", errRefused
	default:
		return post, rec, "", fmt.Errorf("POST /v1/jobs: status %d", code)
	}
	if _, err := s.call(ctx, http.MethodGet, "/v1/jobs/"+acc.ID+"/events", nil, nil); err != nil {
		return post, rec, "", err
	}
	if _, err := s.call(ctx, http.MethodGet, "/v1/jobs/"+acc.ID, nil, &rec); err != nil {
		return post, rec, "", err
	}
	return post, rec, rec.Cache, nil
}

// call performs one request; with v nil the body is read and discarded.
func (s *daemonState) call(ctx context.Context, method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil || resp.StatusCode >= 300 {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// plain runs the batch through the daemon's HTTP API from a closed loop
// of daemonClients clients: each submits its next job only once its
// previous job has settled.
func (s *daemonState) plain(ctx context.Context) (*runOut, error) {
	out := newRunOut()
	s.stats = serverStats{}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.mix) || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				post, rec, cache, err := s.submit(ctx, s.mix[i])
				lat := time.Since(t0).Seconds()
				key := jobKey(i, s.mix[i])
				mu.Lock()
				s.stats.submitS += post.Seconds()
				if errors.Is(err, errRefused) {
					s.stats.refused++
				}
				switch {
				case err != nil:
					out.failed[key] = err.Error()
				case rec.Status != server.StatusDone:
					out.failed[key] = fmt.Sprintf("job %s %s: %s", rec.ID, rec.Status, rec.Error)
				default:
					out.outputs[key] = compact(rec.Result)
					out.latency[key] = lat
					if cache != "" {
						s.stats.cacheable++
						if cache != string(server.CacheMiss) {
							s.stats.cacheHits++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.checkRepeats(out)
	return out, nil
}

// checkRepeats fails every repeated job whose payload differs from the
// first job with the same spec: a cache hit must be byte-identical.
func (s *daemonState) checkRepeats(out *runOut) {
	first := make(map[string]string)
	for i, spec := range s.mix {
		key := jobKey(i, spec)
		got, ok := out.outputs[key]
		if !ok {
			continue
		}
		sk, _ := json.Marshal(spec)
		if k, seen := first[string(sk)]; !seen {
			first[string(sk)] = key
		} else if string(got) != string(out.outputs[k]) {
			out.failed[key] = "payload differs from the identical job " + k
		}
	}
}

// traced replays the batch at the daemon's concurrency through the
// layers the daemon's runner calls — flow.NewJob, Job.Prepare, then
// server.Cache.Do around Job.Run — on a solver pool of the daemon's
// size. Stage spans inside Job.Run come from the job's progress events.
func (s *daemonState) traced(ctx context.Context, rec *recorder) (*runOut, error) {
	out := newRunOut()
	pool := sat.NewPool(daemonSlots)
	cache := server.NewCache(0)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < daemonRunners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.mix) || ctx.Err() != nil {
					return
				}
				key := jobKey(i, s.mix[i])
				data, err := tracedJob(ctx, rec, key, s.mix[i], pool, cache)
				mu.Lock()
				if err != nil {
					out.failed[key] = err.Error()
				} else {
					out.outputs[key] = compact(data)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// jobStageSpans maps a job's progress-event stages to layer span names.
// An event opens its stage's span and closes the one before; the
// attack job's second "attack" event starts the recovered-key check.
var jobStageSpans = map[string]string{
	"lock":   "locking.atpg_lock",
	"lec":    "lec.check",
	"place":  "place.place",
	"route":  "route.route",
	"split":  "split.split",
	"attack": "attack.satattack",
}

func tracedJob(ctx context.Context, rec *recorder, key string, spec flow.JobSpec, pool *sat.Pool, cache *server.Cache) (json.RawMessage, error) {
	root := rec.begin(key, "flow.job", -1)
	defer rec.end(root)
	job, err := flow.NewJob(spec)
	if err != nil {
		return nil, err
	}
	id := rec.begin(key, "flow.job_prepare", root)
	err = job.Prepare(ctx)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	data, _, err := cache.Do(ctx, job.CacheKey(), func() (json.RawMessage, error) {
		run := rec.begin(key, "flow.job_run", root)
		defer rec.end(run)
		cur := -1
		rt := flow.JobRuntime{Pool: pool, Emit: func(ev flow.JobEvent) {
			name, ok := jobStageSpans[ev.Stage]
			if !ok {
				return
			}
			if cur >= 0 {
				rec.end(cur)
				if name == "attack.satattack" {
					name = "sim.equiv" // "attack finished": the key check follows
				}
			}
			cur = rec.begin(key, name, run)
		}}
		res, err := job.Run(ctx, rt)
		if cur >= 0 {
			rec.end(cur)
		}
		if err != nil {
			return nil, err
		}
		countJob(rec, res)
		return json.Marshal(res)
	})
	return data, err
}

// countJob records the work counters a computed job's payload reports.
func countJob(rec *recorder, res any) {
	switch r := res.(type) {
	case *flow.VerifyJobResult:
		addLECStats(rec, &r.Stats)
	case *flow.LockJobResult:
		if r.LECStats != nil {
			addLECStats(rec, r.LECStats)
		}
	case *flow.AttackJobResult:
		rec.add("attack.sat_queries", float64(r.Iterations))
		rec.add("attack.sat_solve_calls", float64(r.SolveCalls))
		rec.add("attack.oracle_evals", float64(r.OracleEvals))
	}
}

// compact canonicalizes a JSON payload: the daemon serves results
// indented, the flow marshals them compact.
func compact(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}
