package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"decor/internal/service"
)

// The plan workload: a closed loop of paper-scale /v1/plan and
// /v1/repair requests from one client per CPU over keep-alive HTTP/1.1,
// each with one request in flight. Keys follow a seeded Zipf law, so
// most requests repeat a key the plan cache already holds and the rest
// plan from scratch behind the admission queue.
//
// It is closed rather than open loop on purpose. On a shared 2-vCPU VM
// the hypervisor withheld 0–20% of CPU time from run to run; with at
// most two requests in flight, a fixed arrival schedule turned every
// such stall into a backlog, and p50/p90 timed from due times moved by
// 40% between runs of identical code. A closed loop bills a stall only
// to the requests it hits.

const (
	// planOpsPerSecond is the nominal closed-loop throughput on a 2-CPU
	// Xeon host; it only sizes the schedule.
	planOpsPerSecond = 1000
	// planNewEvery: every this-many-th request carries a key not seen
	// before in the run (a planned miss); the rest repeat earlier keys.
	planNewEvery = 4
	// planZipfS is the Zipf exponent over earlier keys ranked by
	// recency: the newest key is the hottest.
	planZipfS = 1.2
	// planSettled: repeats skip the newest keys, whose first request may
	// still be planning (a repeat would coalesce onto it and wait).
	planSettled = 8
	// planRecent bounds how far back a repeat reaches, in keys. Every key
	// used since a repeated key's last use is then among the last
	// 2×(planRecent+planSettled) keys, fewer than the service's default
	// 512-entry cache holds, so no repeat misses: misses are exactly the
	// new keys.
	planRecent = 200
)

var planMethods = []string{"grid-small", "grid-big", "voronoi-small", "voronoi-big", "centralized", "random"}

// planBody renders key j's request body for run seed seed: a
// paper-scale field (100×100, 2000 Halton points, k = 3) with its 200
// pre-deployed sensors listed explicitly, one of the six methods, and
// every fourth key a /v1/repair that also names ten failed sensors.
func planBody(seed uint64, j int) (path string, body []byte) {
	s := seed<<20 | uint64(j)
	r := rand.New(rand.NewPCG(s, 0xfa11))
	b := fmt.Appendf(nil, `{"field_side":100,"k":3,"rs":4,"seed":%d,"method":%q,"sensors":[`, s, planMethods[j%len(planMethods)])
	for id := 0; id < 200; id++ {
		if id > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"id":`...), int64(id), 10)
		b = strconv.AppendFloat(append(b, `,"x":`...), 100*r.Float64(), 'f', 3, 64)
		b = strconv.AppendFloat(append(b, `,"y":`...), 100*r.Float64(), 'f', 3, 64)
		b = append(b, '}')
	}
	b = append(b, ']')
	if j%4 != 3 {
		return "/v1/plan", append(b, '}')
	}
	b = append(b, `,"failed":[`...)
	for i, id := range r.Perm(200)[:10] {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return "/v1/repair", append(b, "]}"...)
}

type planReq struct {
	key  int
	path string
	body []byte
}

type planWorkload struct{}

type planState struct {
	lb    *loopback
	sched []planReq
	keys  *keyBodies
}

func (*planWorkload) setUp(cfg runConfig, tr *traceRecorder) (state, error) {
	sched := planSchedule(cfg.seed, planOpsPerSecond*cfg.seconds)
	lb, err := startLoopback(service.Config{Tracer: tr.tracer()}, workers())
	if err != nil {
		return nil, err
	}
	st := &planState{lb: lb, sched: sched, keys: newKeyBodies()}

	// Warm-up, on keys outside the schedule's seed space: a miss and a
	// hit for every method on both endpoints, each checked.
	var buf []byte
	warm := newKeyBodies()
	for j := 0; j < 4*len(planMethods); j++ {
		path, body := planBody(^cfg.seed, j)
		for rep := 0; rep < 2; rep++ {
			resp, err := lb.post(path, "application/json", "", body, &buf)
			if err != nil {
				lb.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if why := warm.check(j, resp.StatusCode, resp.Header.Get("X-Decor-Cache"), buf); why != "" {
				lb.close()
				return nil, fmt.Errorf("warm-up: %s", why)
			}
		}
	}
	return st, nil
}

// planSchedule draws n requests. Every planNewEvery-th request
// introduces the next key; the others repeat a recent, settled key drawn
// by a Zipf law over recency. The number of distinct keys, and so of
// plans computed, is therefore fixed by n, and their methods and
// endpoints cycle evenly (see planBody).
func planSchedule(seed uint64, n int) []planReq {
	r := rand.New(rand.NewPCG(seed, 0x9a11))
	out := make([]planReq, n)
	var paths []string
	var bodies [][]byte
	for i := range out {
		k := len(bodies)
		if i%planNewEvery == 0 {
			path, body := planBody(seed, k)
			paths, bodies = append(paths, path), append(bodies, body)
		} else {
			settled := max(1, len(bodies)-planSettled)
			rank := rand.NewZipf(r, planZipfS, 1, uint64(min(settled, planRecent)-1)).Uint64()
			k = settled - 1 - int(rank)
		}
		out[i] = planReq{key: k, path: paths[k], body: bodies[k]}
	}
	return out
}

func (s *planState) measure(p *pass) error {
	var m0 float64
	if p.trace != nil {
		v, err := s.lb.scrapeMetric("decor_serve_go_mallocs_total")
		if err != nil {
			return err
		}
		m0 = v
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.sched) {
					return
				}
				t0 := time.Now()
				ok, why := s.send(p, s.sched[i], &buf)
				p.op(time.Since(t0), ok, why)
			}
		}()
	}
	wg.Wait()
	if p.trace != nil {
		m1, err := s.lb.scrapeMetric("decor_serve_go_mallocs_total")
		if err != nil {
			return err
		}
		p.trace.observe("service.allocs_per_req", (m1-m0)/float64(len(s.sched)))
	}
	return nil
}

// send issues one request and checks its response.
func (s *planState) send(p *pass, rq planReq, buf *[]byte) (bool, string) {
	_, sp := p.trace.span(context.Background(), "bench.plan")
	sent := time.Now()
	resp, err := s.lb.post(rq.path, "application/json", "", rq.body, buf)
	rtt := ms(time.Since(sent))
	if err != nil {
		sp.End()
		return false, fmt.Sprintf("key %d: %v", rq.key, err)
	}
	cache := resp.Header.Get("X-Decor-Cache")
	why := s.keys.check(rq.key, resp.StatusCode, cache, *buf)
	if sp != nil {
		sp.SetAttr("cache=" + cache + " server_trace=" + resp.Header.Get("X-Decor-Trace"))
	}
	sp.End()
	p.trace.observe("plan.rtt_ms", rtt)
	switch cache {
	case "hit":
		p.trace.observe("service.hit_rtt_ms", rtt)
	case "miss":
		p.trace.observe("service.miss_rtt_ms", rtt)
	}
	return why == "", why
}

func (s *planState) verify(p *pass) error {
	s.keys.mu.Lock()
	defer s.keys.mu.Unlock()
	p.set("x_decor_cache", s.keys.status)
	p.set("distinct_keys", len(s.keys.sum))
	return nil
}
func (s *planState) close() { s.lb.close() }

// keyBodies checks that every response for a key carries the same
// bytes, whether the service answered it as a cache miss, a hit or a
// coalesced follower.
type keyBodies struct {
	seed   maphash.Seed
	mu     sync.Mutex
	sum    map[int]bodySum
	status map[string]int // responses per X-Decor-Cache value
}

type bodySum struct {
	n    int
	hash uint64
	from string // X-Decor-Cache of the response that set the reference
}

func newKeyBodies() *keyBodies {
	return &keyBodies{seed: maphash.MakeSeed(), sum: map[int]bodySum{}, status: map[string]int{}}
}

// check returns "" when the response is a 200 with a known cache status
// whose body equals every earlier 200 body for the key.
func (k *keyBodies) check(key, status int, cache string, body []byte) string {
	if status != http.StatusOK {
		return fmt.Sprintf("key %d: status %d: %s", key, status, bytes.TrimSpace(body))
	}
	switch cache {
	case "miss", "hit", "coalesced":
	default:
		return fmt.Sprintf("key %d: X-Decor-Cache %q", key, cache)
	}
	got := bodySum{n: len(body), hash: maphash.Bytes(k.seed, body), from: cache}
	k.mu.Lock()
	k.status[cache]++
	ref, ok := k.sum[key]
	if !ok {
		k.sum[key] = got
	}
	k.mu.Unlock()
	if ok && (ref.n != got.n || ref.hash != got.hash) {
		return fmt.Sprintf("key %d: %s body (%d bytes) differs from %s body (%d bytes)", key, cache, got.n, ref.from, ref.n)
	}
	return ""
}
