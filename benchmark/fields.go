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
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"decor/internal/chaos"
	"decor/internal/obs"
	"decor/internal/service"
	"decor/internal/session"
	"decor/internal/sim"
)

// The fields workload: a closed loop that runs one seeded failure
// schedule to completion against stateful field sessions. One client
// sends every event, one in flight at a time, alternating between two
// tenants. Each tenant owns five ~5e4-point fields: two that repair
// with the centralized planner (incremental, sub-ms deltas) and three
// with grid-small (a replan per delta, ~10 ms). Three in four
// events go to the centralized fields, so p50 falls inside the fast mode
// and p90 inside the slow one. Every field has one SSE subscriber. One
// event in 32 is preceded by an eviction (the subscriber disconnects,
// Manager.Evict snapshots the session), so that event pays for the fast
// restore. Each field's delta stream must hash equal to an in-order
// replay on a reference manager.

const (
	fieldPoints  = 50_000
	fieldDensity = 0.2
	// fieldEventRate is the nominal events per second on a 2-CPU Xeon
	// host; it only sizes the schedule.
	fieldEventRate = 120
	// fieldTenants is how many tenants the fields are spread over.
	fieldTenants = 2
	// fieldEvictEvery: one event in this many, per tenant, is preceded
	// by an eviction of its field.
	fieldEvictEvery = 32
)

// fieldEvictAt are the positions (mod 2×fieldEvictEvery) in a tenant's
// event sequence whose event follows an eviction: one centralized, one
// grid-small.
var fieldEvictAt = map[int]bool{13: true, 59: true}

// fieldMethods are one tenant's fields: two centralized ones, which
// take the cheap incremental deltas, and three grid-small ones, which
// share the expensive replans so no single field's geometry dominates.
var fieldMethods = []string{"centralized", "centralized", "grid-small", "grid-small", "grid-small"}

// fieldOrder assigns a tenant's n events to its fields: every fourth
// event goes to the grid-small fields in turn, the others alternate
// between the two centralized fields.
func fieldOrder(n int) []int {
	order := make([]int, n)
	var c, g int
	for i := range order {
		if i%4 == 3 {
			order[i] = 2 + g%3
			g++
		} else {
			order[i] = c % 2
			c++
		}
	}
	return order
}

type fieldsWorkload struct{}

// field is one session under load and its observed streams.
type field struct {
	tenant, id string
	events     [][]int // failed sensor IDs per event, in order

	// Per-seq SHA-256 of each delta line: as answered to the event
	// POSTs (seq 0 is the create response) and as received over SSE.
	resp [][32]byte
	sent []time.Time // per seq: when its event was sent

	sse *sseSub
}

type fieldTenant struct {
	tenant string
	fields []*field
	order  []int // field index per event
}

type fieldsState struct {
	lb      *loopback
	sseHTTP *http.Client
	ref     *session.Manager // in-order reference, fed the same snapshots
	tenants []*fieldTenant
}

func (*fieldsWorkload) setUp(cfg runConfig, tr *traceRecorder) (state, error) {
	lb, err := startLoopback(service.Config{
		Tracer: tr.tracer(),
		// A centralized field's create carries ~15k explicit sensors.
		Limits: service.Limits{MaxPoints: fieldPoints, MaxSensors: 1 << 15, MaxBodyBytes: 4 << 20},
	}, workers())
	if err != nil {
		return nil, err
	}
	st := &fieldsState{
		lb:      lb,
		sseHTTP: &http.Client{Transport: &http.Transport{DisableCompression: true}},
		ref:     session.New(session.Config{Registry: obs.NewRegistry()}),
	}
	perTenant := fieldEventRate * cfg.seconds / fieldTenants
	for t := 0; t < fieldTenants; t++ {
		ft := &fieldTenant{tenant: fmt.Sprintf("tenant-%d", t), order: fieldOrder(perTenant)}
		for f := range fieldMethods {
			ft.fields = append(ft.fields, &field{tenant: ft.tenant, id: fmt.Sprintf("f%d", f)})
		}
		st.tenants = append(st.tenants, ft)
	}

	// Tenants set up concurrently (fieldTenants <= nproc goroutines).
	errs := make([]error, len(st.tenants))
	var wg sync.WaitGroup
	for t, ft := range st.tenants {
		wg.Add(1)
		go func(t int, ft *fieldTenant) {
			defer wg.Done()
			errs[t] = st.createFields(cfg.seed, t, ft, tr)
		}(t, ft)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// createFields creates the tenant's fields over HTTP, hands a copy of
// each initial snapshot to the reference manager, draws each field's
// failure schedule and attaches its SSE subscriber. The grid-small
// fields start from a seeded scatter of n/40 sensors and deploy to full
// coverage at creation; each centralized field starts from one of those
// finished deployments (sent as explicit sensors), so its repairs run
// on a realistic, fully deployed network.
func (st *fieldsState) createFields(seed uint64, t int, ft *fieldTenant, tr *traceRecorder) error {
	counts := make([]int, len(ft.fields))
	for _, f := range ft.order {
		counts[f]++
	}
	side := math.Sqrt(fieldPoints / fieldDensity)
	networks := make([][]session.Sensor, len(ft.fields))
	for _, i := range fieldCreateOrder {
		f := ft.fields[i]
		fseed := seed*1000 + uint64(t*len(ft.fields)+i)
		var sensors []session.Sensor
		if fieldMethods[i] == "centralized" {
			sensors = networks[i+2]
		} else {
			r := rand.New(rand.NewPCG(fseed, 0x5ca7))
			for id := 0; id < fieldPoints/40; id++ {
				sensors = append(sensors, session.Sensor{ID: id, X: r.Float64() * side, Y: r.Float64() * side})
			}
		}
		d0, err := st.create(ft.tenant, f, fieldMethods[i], side, fseed, sensors, tr)
		if err != nil {
			return err
		}
		if !d0.Covered || d0.TotalSensors != len(sensors)+d0.Placed {
			return fmt.Errorf("create %s/%s: covered=%v with %d sensors from %d sent + %d placed",
				ft.tenant, f.id, d0.Covered, d0.TotalSensors, len(sensors), d0.Placed)
		}
		// Placements take sequential IDs after the largest existing one.
		for _, pt := range d0.Placements {
			sensors = append(sensors, session.Sensor{ID: len(sensors), X: pt.X, Y: pt.Y})
		}
		networks[i] = sensors

		ids := make([]int, d0.TotalSensors)
		for j := range ids {
			ids[j] = j
		}
		for _, ev := range chaos.TrafficFromPlan(sim.FaultPlan{Seed: fseed}, ids, counts[i]) {
			f.events = append(f.events, ev.IDs)
		}
		if len(f.events) != counts[i] {
			return fmt.Errorf("%s/%s: schedule has %d events, want %d", ft.tenant, f.id, len(f.events), counts[i])
		}
	}
	return nil
}

// fieldCreateOrder creates the grid-small fields first: the centralized
// fields 0 and 1 start from the deployments of fields 2 and 3.
var fieldCreateOrder = []int{2, 3, 4, 0, 1}

// create makes one field, copies its initial snapshot to the reference
// manager and subscribes to its stream.
func (st *fieldsState) create(tenant string, f *field, method string, side float64, seed uint64, sensors []session.Sensor, tr *traceRecorder) (session.Delta, error) {
	var d0 session.Delta
	body := fmt.Appendf(nil, `{"field_id":%q,"field_side":%v,"k":1,"rs":4,"num_points":%d,"method":%q,"seed":%d,"sensors":[`,
		f.id, side, fieldPoints, method, seed)
	for i, s := range sensors {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"id":%d,"x":%s,"y":%s}`, s.ID,
			strconv.FormatFloat(s.X, 'g', -1, 64), strconv.FormatFloat(s.Y, 'g', -1, 64))
	}
	body = append(body, "]}"...)

	var buf []byte
	t0 := time.Now()
	resp, err := st.lb.post("/v1/fields", "application/json", tenant, body, &buf)
	if err != nil {
		return d0, fmt.Errorf("create %s/%s: %w", tenant, f.id, err)
	}
	tr.observe("session.create_ms", ms(time.Since(t0)))
	if resp.StatusCode != http.StatusCreated {
		return d0, fmt.Errorf("create %s/%s: status %d: %s", tenant, f.id, resp.StatusCode, bytes.TrimSpace(buf))
	}
	if err := json.Unmarshal(buf, &d0); err != nil {
		return d0, fmt.Errorf("create %s/%s: %w", tenant, f.id, err)
	}
	f.resp = append(f.resp, sha256.Sum256(buf))
	f.sent = append(f.sent, t0)

	mgr := st.lb.srv.Sessions()
	raw, err := mgr.Export(tenant, f.id)
	if err == nil {
		err = mgr.Import(tenant, raw)
	}
	if err == nil {
		err = st.ref.Import(tenant, raw)
	}
	if err != nil {
		return d0, fmt.Errorf("snapshot %s/%s: %w", tenant, f.id, err)
	}
	// Subscribing restores the imported session; wait for the replayed
	// seq-0 frame so set-up ends with every field live.
	f.sse = st.subscribe(f, 0)
	return d0, f.sse.waitFor(0, 30*time.Second)
}

func (st *fieldsState) measure(p *pass) error {
	var buf, body []byte
	next := make([][]int, len(st.tenants)) // per tenant, per field: events sent
	for t, ft := range st.tenants {
		next[t] = make([]int, len(ft.fields))
	}
	n := len(st.tenants[0].order)
	for j := 0; j < n; j++ {
		for t, ft := range st.tenants {
			if err := st.event(p, ft, j, next[t], &buf, &body); err != nil {
				return err
			}
		}
	}
	// Every delta must reach its subscriber.
	for _, ft := range st.tenants {
		for _, f := range ft.fields {
			if err := f.sse.waitFor(uint64(len(f.resp)-1), 30*time.Second); err != nil {
				p.fail(err.Error())
			}
		}
	}
	return nil
}

// event sends the tenant's j-th event and records it as an op.
func (st *fieldsState) event(p *pass, ft *fieldTenant, j int, next []int, buf, body *[]byte) error {
	fi := ft.order[j]
	f := ft.fields[fi]
	ev := f.events[next[fi]]
	next[fi]++
	seq := len(f.resp)

	evicted := fieldEvictAt[j%(2*fieldEvictEvery)]
	var from uint64
	if evicted {
		from = f.sse.stop()
		took, err := evict(st.lb.srv.Sessions(), f.tenant, f.id)
		if err != nil {
			return err
		}
		p.trace.observe("session.evict_ms", ms(took))
	}

	b := append((*body)[:0], `{"failed":[`...)
	for k, id := range ev {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, "]}\n"...)
	*body = b

	_, sp := p.trace.span(context.Background(), "bench.field_event")
	t0 := time.Now()
	resp, err := st.lb.post("/v1/fields/"+f.id+"/events", "application/x-ndjson", f.tenant, b, buf)
	el := time.Since(t0)
	sp.End()
	f.sent = append(f.sent, t0)
	var why string
	switch {
	case err != nil:
		why = fmt.Sprintf("%s/%s seq %d: %v", f.tenant, f.id, seq, err)
	case resp.StatusCode != http.StatusOK:
		why = fmt.Sprintf("%s/%s seq %d: status %d: %s", f.tenant, f.id, seq, resp.StatusCode, bytes.TrimSpace(*buf))
	case bytes.Count(*buf, []byte{'\n'}) != 1:
		why = fmt.Sprintf("%s/%s seq %d: want one delta line, got %q", f.tenant, f.id, seq, *buf)
	}
	f.resp = append(f.resp, sha256.Sum256(*buf))
	p.op(el, why == "", why)
	p.trace.observe("session.event_rtt_ms", ms(el))
	if evicted {
		// Resubscribe before the next event; the ring replays what the
		// subscriber missed, this event's delta included.
		f.sse = st.subscribe(f, from)
	}
	return nil
}

// evict snapshots the field once its (just cancelled) subscriber has
// detached; the service unsubscribes asynchronously when the stream's
// connection closes. It returns how long the successful Evict took.
func evict(mgr *session.Manager, tenant, id string) (time.Duration, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		t0 := time.Now()
		err := mgr.Evict(tenant, id)
		took := time.Since(t0)
		if !errors.Is(err, session.ErrSubscribed) {
			if err != nil {
				return 0, fmt.Errorf("evict %s/%s: %w", tenant, id, err)
			}
			return took, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("evict %s/%s: subscriber never detached", tenant, id)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// verify replays every field's events in order on the reference manager
// and compares each delta with what the event POST answered and what
// the SSE subscriber received.
func (st *fieldsState) verify(p *pass) error {
	hashes := map[string]string{}
	var mu sync.Mutex
	errs := make([]error, len(st.tenants))
	var wg sync.WaitGroup
	for t, ft := range st.tenants {
		wg.Add(1)
		go func(t int, ft *fieldTenant) {
			defer wg.Done()
			for _, f := range ft.fields {
				got, err := st.checkField(p, f)
				if err != nil {
					errs[t] = err
					return
				}
				mu.Lock()
				hashes[f.tenant+"/"+f.id] = got
				mu.Unlock()
			}
		}(t, ft)
	}
	wg.Wait()
	p.set("stream_sha256", hashes)
	return errors.Join(errs...)
}

// checkField returns the field's delta-stream SHA-256 and fails every
// event whose delta differs from the reference replay.
func (st *fieldsState) checkField(p *pass, f *field) (string, error) {
	ref := make([][32]byte, 1, len(f.resp))
	ref[0] = f.resp[0] // the reference was imported from this create
	var line []byte
	for _, ev := range f.events {
		d, err := st.ref.Apply(f.tenant, f.id, ev)
		if err != nil {
			return "", fmt.Errorf("reference %s/%s: %w", f.tenant, f.id, err)
		}
		line, err = d.AppendJSON(line[:0])
		if err != nil {
			return "", fmt.Errorf("reference %s/%s: %w", f.tenant, f.id, err)
		}
		ref = append(ref, sha256.Sum256(append(line, '\n')))
		p.trace.observe("session.placed_per_delta", float64(d.Placed))
	}
	for _, why := range compareStreams(f.tenant+"/"+f.id, ref, f.resp, f.sse.sums()) {
		p.fail(why)
	}
	if p.trace != nil {
		arrived := f.sse.arrivals()
		for seq := 1; seq < len(f.sent) && seq < len(arrived); seq++ {
			if !arrived[seq].IsZero() {
				p.trace.observe("session.sse_lag_ms", ms(arrived[seq].Sub(f.sent[seq])))
			}
		}
	}
	return streamHash(f.resp), nil
}

// compareStreams checks a field's per-seq delta hashes as answered and
// as received over SSE against the reference, returning one failure
// per mismatching seq.
func compareStreams(name string, ref, resp, sse [][32]byte) []string {
	var out []string
	if len(resp) != len(ref) || len(sse) != len(ref) {
		out = append(out, fmt.Sprintf("%s: %d reference deltas, %d answered, %d over SSE", name, len(ref), len(resp), len(sse)))
	}
	for seq := range ref {
		switch {
		case seq >= len(resp) || resp[seq] != ref[seq]:
			out = append(out, fmt.Sprintf("%s seq %d: answered delta differs from the in-order reference", name, seq))
		case seq >= len(sse) || sse[seq] != ref[seq]:
			out = append(out, fmt.Sprintf("%s seq %d: SSE delta differs from the in-order reference", name, seq))
		}
	}
	if streamHash(resp) != streamHash(ref) && len(out) == 0 {
		out = append(out, fmt.Sprintf("%s: delta-stream SHA-256 differs from the reference", name))
	}
	return out
}

// streamHash is the SHA-256 of a delta stream, chained over its
// per-delta hashes in seq order.
func streamHash(sums [][32]byte) string {
	h := sha256.New()
	for _, s := range sums {
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (st *fieldsState) close() {
	for _, ft := range st.tenants {
		for _, f := range ft.fields {
			if f.sse != nil {
				f.sse.stop()
			}
		}
	}
	st.lb.close()
	st.sseHTTP.CloseIdleConnections()
	st.ref.Close()
}

// sseSub is one SSE subscription to a field's delta stream. Frames are
// hashed as "data\n", the exact bytes of the matching NDJSON delta
// line, and stored by seq, so a resubscription's replayed frames
// overwrite identical entries.
type sseSub struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	sum     [][32]byte
	arrived []time.Time
	last    int64 // highest seq received, -1 before the first
	err     error
	notify  chan struct{} // closed and replaced on every frame
}

// subscribe opens f's SSE stream from seq from, carrying over what
// earlier subscriptions received.
func (st *fieldsState) subscribe(f *field, from uint64) *sseSub {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sseSub{cancel: cancel, done: make(chan struct{}), last: -1, notify: make(chan struct{})}
	if f.sse != nil {
		s.sum, s.arrived, s.last = f.sse.sum, f.sse.arrived, f.sse.last
	}
	go s.read(ctx, st.sseHTTP, st.lb.url+"/v1/fields/"+f.id+"/stream?from_seq="+strconv.FormatUint(from, 10), f.tenant)
	return s
}

func (s *sseSub) read(ctx context.Context, client *http.Client, url, tenant string) {
	defer close(s.done)
	fail := func(err error) {
		s.mu.Lock()
		if s.err == nil && ctx.Err() == nil {
			s.err = err
		}
		close(s.notify)
		s.notify = make(chan struct{})
		s.mu.Unlock()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		fail(err)
		return
	}
	req.Header.Set("X-Decor-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("SSE %s: status %d", url, resp.StatusCode))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	seq := int64(-1)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("id: ")):
			v, err := strconv.ParseInt(string(line[4:]), 10, 64)
			if err != nil {
				fail(fmt.Errorf("SSE %s: bad id line %q", url, line))
				return
			}
			seq = v
		case bytes.HasPrefix(line, []byte("data: ")):
			if seq < 0 {
				fail(fmt.Errorf("SSE %s: data before id", url))
				return
			}
			sum := sha256.Sum256(append(line[6:], '\n'))
			at := time.Now()
			s.mu.Lock()
			for int64(len(s.sum)) <= seq {
				s.sum = append(s.sum, [32]byte{})
				s.arrived = append(s.arrived, time.Time{})
			}
			s.sum[seq], s.arrived[seq] = sum, at
			if seq > s.last {
				s.last = seq
			}
			close(s.notify)
			s.notify = make(chan struct{})
			s.mu.Unlock()
			seq = -1
		}
	}
	if err := sc.Err(); err != nil {
		fail(fmt.Errorf("SSE %s: %w", url, err))
		return
	}
	fail(fmt.Errorf("SSE %s: stream ended", url))
}

// waitFor blocks until the subscriber has received seq or failed.
func (s *sseSub) waitFor(seq uint64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		last, err, ch := s.last, s.err, s.notify
		s.mu.Unlock()
		if last >= int64(seq) {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("SSE: seq %d not received within %s (last %d)", seq, timeout, last)
		}
	}
}

// stop disconnects the subscriber, waits for its reader to exit and
// returns the next seq it has not yet received.
func (s *sseSub) stop() uint64 {
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.last + 1)
}

func (s *sseSub) sums() [][32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][32]byte(nil), s.sum...)
}

func (s *sseSub) arrivals() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.arrived...)
}
