package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"attache/client"
	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/tier"
	"attache/internal/wire"
)

// The stacks a run can target.
const (
	targetEngine    = iota // shard.Engine, Do and DoCtx mixed
	targetEngineCtx        // shard.Engine, DoCtx only
	targetCluster          // cluster.Cluster
	targetHTTP             // Server.Handler() behind httptest, driven by client.Client (frames) and raw JSON
	numTargets
)

var modelTiers = [...]*tier.Config{nil, {NearLines: 0}, {NearLines: -1},
	{NearLines: 8, Policy: tier.PolicyLRU},
	{NearLines: 8, Policy: tier.PolicyFreq, FreqThreshold: 2, FreqDecayEvery: 64},
	{NearLines: 8, Policy: tier.PolicyStatic, PinShift: 7}} // static pins pages 0 and 1

// "tight" runs dry on a frozen admission clock, "free" is unlimited and
// gold, "" is untenanted traffic.
var modelTenants = [...]string{"free", "tight", ""}

// modelRun is one fuzz input decoded: 1-3 shards, times 1-3 on the
// cluster and HTTP targets (the input's instances, from when a cluster
// held several engines: an N×M cluster is now an N·M-shard engine), a
// tier, a seeded fault plan or else a mid-run WriteSnapshot→RestoreFrom
// lockstep, and an optional concurrent phase.
type modelRun struct {
	seed                int64
	shards              int
	tier                *tier.Config
	target              int
	restore, concurrent bool
}

func newModelRun(seed int64, shards, instances, tierSel, target int, restore, concurrent bool) modelRun {
	pick := func(x, n int) int { return (x%n + n) % n }
	r := modelRun{seed, 1 + pick(shards, 3), modelTiers[pick(tierSel, len(modelTiers))],
		pick(target, numTargets), restore, concurrent}
	if r.target >= targetCluster {
		r.shards *= 1 + pick(instances, 3)
	}
	return r
}

// modelBatch draws a batch over pages [page0, page0+pages) of 16 lines:
// mostly one op, a third 2-8 mixed ops. Three payloads in four are random
// (one in sixteen of those collides with the 4-bit CID), the rest one
// random word and zeros, which compress.
func modelBatch(rng *rand.Rand, page0, pages int) []shard.Op {
	ops := make([]shard.Op, 1)
	if rng.Intn(3) == 0 {
		ops = make([]shard.Op, 2+rng.Intn(7))
	}
	for i := range ops {
		ops[i].Addr = uint64(page0+rng.Intn(pages))<<6 | uint64(rng.Intn(16))
		if ops[i].Write = rng.Intn(2) == 0; !ops[i].Write {
			continue
		}
		if ops[i].Data = make([]byte, core.LineSize); rng.Intn(4) != 0 {
			rng.Read(ops[i].Data)
		} else {
			binary.LittleEndian.PutUint64(ops[i].Data, rng.Uint64())
		}
	}
	return ops
}

// stack is one system under test: cl keeps the books and takes cluster
// batches, eng (wrapped by cl) engine batches, cli HTTP batches — as
// frames, or as the line calls and raw-JSON batches httpForm picks, the
// latter posted by hc. An HTTP request's
// ID is the tick it was sent at; sent maps it to its batch's first
// address, done to the tick its handler returned at.
type stack struct {
	cl         *cluster.Cluster
	eng        *shard.Engine
	ts         *httptest.Server
	cli        *client.Client
	hc         *http.Client
	tick       atomic.Uint64
	sent, done sync.Map
	failed     atomic.Value
}

// stack builds the run's stack: fresh, or restored from image.
func (r modelRun) stack(t *testing.T, ccfg cluster.Config, image []byte) *stack {
	s, cfg, opts := &stack{}, shard.Config{QueueDepth: 2}, core.DefaultOptions()
	opts.CIDBits, opts.Seed = 4, r.seed
	opts.Predictor.PaPRBytes, opts.Predictor.LiPRBytes = 1<<10, 1<<10
	if image == nil {
		cfg.Shards, cfg.Tier = r.shards, r.tier
	}
	if image == nil && !r.restore {
		cfg.Faults = shard.FaultPlan{Seed: r.seed, ErrP: 0.05, PartialP: 0.05, DelayP: 0.05, Delay: 100 * time.Microsecond}
	}
	var err error
	switch {
	case r.target < targetCluster && image != nil:
		s.eng, err = shard.RestoreEngineFrom(bytes.NewReader(image), cfg)
	case r.target < targetCluster:
		s.eng, err = shard.New(opts, cfg)
	case image != nil:
		s.cl, err = cluster.RestoreFrom(bytes.NewReader(image), cfg, ccfg)
	default:
		s.cl, err = cluster.New(opts, cfg, ccfg)
	}
	if err == nil && s.eng != nil {
		s.cl, err = cluster.Wrap([]*shard.Engine{s.eng}, cluster.Config{}) // the engine's own books
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.target == targetHTTP {
		h := NewCluster(s.cl, Config{}).Handler()
		s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			id := req.Header.Get(obs.TraceHeader)
			defer func() {
				if p := recover(); p != nil { // it may hold a shard lock for good: say where, and panic on
					at, _ := s.sent.Load(id)
					s.failed.CompareAndSwap(nil, fmt.Sprintf("the handler of a batch at %#x panicked: %v", at, p))
					panic(p)
				}
				s.done.Store(id, s.tick.Add(1))
			}()
			h.ServeHTTP(w, req)
		}))
		s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
		s.cli = client.New(s.ts.URL, client.WithRetry(0), client.WithHTTPClient(s.hc))
	}
	t.Cleanup(func() { // a failed run may have wedged a shard: leave it
		if !t.Failed() {
			s.shutdown()
		}
	})
	return s
}

// do submits ops; a nil ctx selects an engine's Do. id is the HTTP
// request's, "" in-process.
func (s *stack) do(ctx context.Context, ops []shard.Op) (res []shard.Result, id string, err error) {
	switch {
	case s.cli != nil:
		id = strconv.FormatUint(s.tick.Add(1), 16)
		s.sent.Store(id, ops[0].Addr)
		switch ctx := client.ContextWithTraceID(ctx, id); httpForm(ops) {
		case "line call":
			res, err = s.line(ctx, ops[0])
		case "raw-JSON batch":
			res, err = s.postJSON(ctx, id, ops)
		default:
			res, err = s.cli.DoCtx(ctx, ops)
		}
	case s.eng == nil:
		res, err = s.cl.DoCtx(ctx, ops)
	case ctx == nil:
		res, err = s.eng.Do(ops)
	default:
		res, err = s.eng.DoCtx(ctx, ops)
	}
	return res, id, err
}

// httpForm picks how an HTTP batch is sent, by bits of its first address,
// so a restored twin sends each batch the way the original did: a one-op
// batch through client.Read or client.Write, a batch as JSON, or else as
// client.Do's frame.
func httpForm(ops []shard.Op) string {
	switch {
	case len(ops) == 1 && ops[0].Addr&2 != 0:
		return "line call"
	case ops[0].Addr&1 == 1:
		return "raw-JSON batch"
	}
	return "frame batch"
}

// line is the HTTP target's line arm: op through client.Read or
// client.Write. A StatusError, the call's whole answer, becomes the op's
// result, mapped to its sentinel by message as postJSON maps a per-op
// error: a 400 or 500 does not unwrap to one by status.
func (s *stack) line(ctx context.Context, op shard.Op) ([]shard.Result, error) {
	var (
		res = make([]shard.Result, 1)
		err error
		se  *client.StatusError
	)
	if op.Write {
		err = s.cli.Write(ctx, op.Addr, op.Data)
	} else {
		res[0].Data, err = s.cli.Read(ctx, op.Addr)
	}
	if errors.As(err, &se) {
		res[0].Err, err = opErr(se.Message), nil
	}
	return res, err
}

// opErr is the error client.Client returns for an op that failed with
// msg: wrapping the sentinel msg names, if it names one.
func opErr(msg string) error {
	for _, row := range shard.OpErrors {
		if strings.Contains(msg, row.Sentinel.Error()) {
			return fmt.Errorf("%s: %w", msg, row.Sentinel)
		}
	}
	return errors.New(msg)
}

// postJSON is the HTTP target's raw-JSON arm: ops as a JSON array,
// posted with the headers client.Client sends, and the answer read by
// encoding/json into what client.Client would return for it.
func (s *stack) postJSON(ctx context.Context, id string, ops []shard.Op) ([]shard.Result, error) {
	body := make([]wire.Op, len(ops))
	for i := range ops {
		body[i] = wire.Op{Op: "read", Addr: &ops[i].Addr}
		if ops[i].Write {
			body[i].Op, body[i].Data = "write", ops[i].Data
		}
	}
	raw, _ := json.Marshal(body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/batch", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set(obs.TraceHeader, id)
	if t := obs.TenantFromContext(ctx); t != "" {
		req.Header.Set(obs.TenantHeader, t)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if raw, err = io.ReadAll(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var e wire.Error
		json.Unmarshal(raw, &e)
		return nil, &client.StatusError{Code: resp.StatusCode, Message: e.Error}
	}
	var b wire.Batch
	if err := json.Unmarshal(raw, &b); err != nil || len(b.Results) != len(ops) {
		return nil, fmt.Errorf("JSON batch of %d ops answered %q: %v", len(ops), raw, err)
	}
	res := make([]shard.Result, len(ops))
	for i, r := range b.Results {
		if res[i].Data = r.Data; r.Error != "" {
			res[i].Err = opErr(r.Error)
		}
	}
	return res, nil
}

// shutdown closes the server, which waits for every handler, then the
// engines.
func (s *stack) shutdown() {
	if s.ts != nil {
		s.ts.Close()
	}
	s.cl.Close()
}

// model is the reference: the last acknowledged write of every address,
// the unanswered writes (HTTP only) that may still land, how many ops
// callers were told each outcome (and how often each rare path was
// taken), and tenant books, give or take slack ops of unknown booking.
type model struct {
	mu       sync.Mutex
	lines    map[uint64][core.LineSize]byte
	pending  map[uint64][]pend
	told     map[string]uint64
	books    map[string]*cluster.TenantSnapshot
	slack    map[string]int64
	counters map[string]uint64
}

type pend struct {
	line [core.LineSize]byte
	id   string
}

// read holds an ok read, or (data nil) a never-written answer, to the
// model.
func (m *model) read(addr uint64, data []byte) error {
	want, held := m.lines[addr]
	if data == nil && !held || data != nil && held && bytes.Equal(want[:], data) {
		return nil
	}
	for _, p := range m.pending[addr] {
		if bytes.Equal(p.line[:], data) {
			return nil
		}
	}
	return fmt.Errorf("read %#x answered %x, the model holds %x (held: %v, %d unanswered writes)", addr, data, want, held, len(m.pending[addr]))
}

// drop forgets the pending writes at addr for which gone holds.
func (m *model) drop(addr uint64, gone func(pend) bool) {
	live := m.pending[addr][:0]
	for _, p := range m.pending[addr] {
		if !gone(p) {
			live = append(live, p)
		}
	}
	if m.pending[addr] = live; len(live) == 0 {
		delete(m.pending, addr)
	}
}

// outcome names what an answer told its caller: one of the rows of
// shard.OpErrors this run can give, or "" for any other.
func outcome(e error) string {
	switch {
	case e == nil:
		return "executed"
	case errors.Is(e, core.ErrNeverWritten):
		return "never written"
	case errors.Is(e, core.ErrOverloaded) && strings.Contains(e.Error(), "over quota"):
		return "quota shed"
	case errors.Is(e, core.ErrOverloaded):
		return "backend shed"
	case errors.Is(e, context.DeadlineExceeded), errors.Is(e, context.Canceled):
		return "cancellation"
	case errors.Is(e, shard.ErrFaultInjected):
		return "injected error"
	case errors.Is(e, shard.ErrClosed):
		return "closed"
	}
	return ""
}

// settle holds one submission's answers to the model and books them.
func (m *model) settle(r modelRun, tenant, id string, ops []shard.Op, res []shard.Result, err error, s *stack) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, book := uint64(len(ops)), m.books[tenant]
	m.told["offered"] += n
	if r.target == targetHTTP {
		m.told[httpForm(ops)]++
	}
	switch kind := outcome(err); {
	case err == nil:
	case kind == "" || kind == "never written":
		return fmt.Errorf("batch at %#x: whole-call error %v is no row of OpErrors this run can give", ops[0].Addr, err)
	case r.target == targetHTTP && kind != "closed": // no answer: the server may run it yet
		m.told["unknown"] += n
		m.slack[tenant] += int64(n)
		for _, op := range ops {
			if op.Write {
				m.pending[op.Addr] = append(m.pending[op.Addr], pend{[core.LineSize]byte(op.Data), id})
			}
		}
		return nil
	default: // refused whole: a cluster books it as errors once closed, or may on a context error
		if m.told["refused"] += n; kind == "closed" {
			book.Ops, book.Errors = book.Ops+int64(n), book.Errors+int64(n)
		} else {
			m.slack[tenant] += int64(n)
		}
		return nil
	}
	book.Ops += int64(n)
	for i, op := range ops {
		e, data := res[i].Err, res[i].Data
		kind := outcome(e)
		m.told[kind]++
		if f := map[string]*int64{"executed": &book.OK, "quota shed": &book.ShedQuota, "backend shed": &book.ShedBackend}[kind]; f != nil {
			*f++
		} else {
			book.Errors++
		}
		switch {
		case kind == "":
			return fmt.Errorf("op at %#x: error %v is no row of OpErrors this run can give", op.Addr, e)
		case kind == "executed" && op.Write:
			m.lines[op.Addr] = [core.LineSize]byte(op.Data)
			m.drop(op.Addr, func(p pend) bool { // its handler returned before this write was sent
				t, ok := s.done.Load(p.id)
				sent, _ := strconv.ParseUint(id, 16, 64)
				return ok && t.(uint64) < sent
			})
		case kind == "executed" && len(data) != core.LineSize:
			return fmt.Errorf("read %#x answered %d bytes", op.Addr, len(data))
		case kind == "executed":
			m.told["ok read"]++
			if err := m.read(op.Addr, data); err != nil {
				return err
			}
		case kind == "never written":
			if err := m.read(op.Addr, nil); err != nil || op.Write {
				return fmt.Errorf("op at %#x (write: %v) answered never-written: %v", op.Addr, op.Write, err)
			}
		case kind == "injected error" && strings.Contains(e.Error(), "batch died"):
			m.told["partial batch"]++
		}
	}
	return nil
}

// sweep is a batch that reads every line the model holds, in order.
func (m *model) sweep() []shard.Op {
	ops := make([]shard.Op, 0, len(m.lines))
	for addr := range m.lines {
		ops = append(ops, shard.Op{Addr: addr})
	}
	slices.SortFunc(ops, func(a, b shard.Op) int { return cmp.Compare(a.Addr, b.Addr) })
	return ops
}

// locate fails the test, naming the first address the model holds that a
// restore of cl's image reads otherwise, if there is one: the lines a
// sweep's own promotions lost show in the books first.
func (m *model) locate(t *testing.T, cl *cluster.Cluster) {
	ops := m.sweep()
	re, err := cluster.RestoreFrom(bytes.NewReader(cl.Snapshot()), shard.Config{}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := re.DoCtx(context.Background(), ops)
	for i := 0; err == nil && i < len(ops); i++ {
		if e := res[i].Err; e == nil || errors.Is(e, core.ErrNeverWritten) {
			err = m.read(ops[i].Addr, res[i].Data)
		}
	}
	if err != nil {
		t.Fatalf("first divergent address: %v", err)
	}
	t.FailNow()
}

// monotone reads every counter of a snapshot off its metric table (the
// fields tagged prom:",counter") and fails on any that went down since
// the last read.
func (m *model) monotone(s shard.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := map[string]uint64{}
	for _, v := range []any{s.Total, s.Robust, s.Tiers} {
		rv := reflect.Indirect(reflect.ValueOf(v))
		for i := 0; rv.IsValid() && i < rv.NumField(); i++ {
			if name, kind, _ := strings.Cut(rv.Type().Field(i).Tag.Get("prom"), ","); kind == "counter" {
				if cur[name] = rv.Field(i).Uint(); cur[name] < m.counters[name] {
					return fmt.Errorf("counter %s went from %d down to %d", name, m.counters[name], cur[name])
				}
			}
		}
	}
	m.counters = cur
	return nil
}

// check holds the stack's books, read while no op runs, to the model:
// resident lines against the lines it holds, each outcome counter against
// what callers were told, and on cluster runs each tenant's books against
// the ledger — give or take the ops that got no answer — and the tier's
// conservation laws, and no op in flight.
func (m *model) check(t *testing.T, r modelRun, cl *cluster.Cluster, where string) {
	t.Helper()
	s := cl.EngineSnapshot()
	if err := m.monotone(s); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.told
	within := func(name string, got, want, slack uint64) {
		if got < want || got > want+slack {
			t.Errorf("%s: %s is %d, want %d (give or take %d)", where, name, got, want, slack)
			m.locate(t, cl)
		}
	}
	executed, lines := s.Total.Reads+s.Total.Writes, s.Total.Lines
	if tr := s.Tiers; tr != nil {
		executed, lines = tr.NearReads+tr.FarReads+tr.NearWrites+tr.FarWrites, tr.NearResident+tr.FarResident
		within("promotions = demotions + near_resident", tr.Promotions, tr.Demotions+tr.NearResident, 0)
		within("Total.Reads = far_reads", s.Total.Reads, tr.FarReads, 0)
		within("Total.Writes = far_writes + demotions", s.Total.Writes, tr.FarWrites+tr.Demotions, 0)
		within("near_reads + far_reads", tr.NearReads+tr.FarReads, n["ok read"], n["unknown"])
		n["ok near read"], n["ok far read"], n["promotion"], n["demotion"] = tr.NearReads, tr.FarReads, tr.Promotions, tr.Demotions
	}
	within("mispredictions, at most the reads", s.Total.Mispredictions, 0, s.Total.Reads)
	n["Replacement-Area park"] = max(n["Replacement-Area park"], s.Total.RAOccupancy)
	within("resident lines", lines, uint64(len(m.lines)), uint64(len(m.pending)))
	within("executed", executed, n["executed"], n["unknown"])
	within("shed", s.Robust.Sheds, n["backend shed"], n["unknown"])
	within("injected", s.Robust.InjectedErrors, n["injected error"], n["unknown"])
	within("canceled", s.Robust.Canceled, n["cancellation"], n["unknown"])
	sum := executed + s.Robust.Sheds + s.Robust.Canceled + s.Robust.InjectedErrors +
		n["never written"] + n["quota shed"] + n["closed"] + n["refused"]
	within("executed + never-written + shed + canceled + injected + refused", sum,
		n["offered"]-n["unknown"], n["unknown"])
	for _, g := range cl.Gauges() {
		within(fmt.Sprintf("shard %d's InFlight gauge", g.Shard), uint64(g.InFlight), 0, 0)
	}
	if got := cl.TenantSnapshots(); r.target >= targetCluster && len(got) != len(m.books) {
		t.Fatalf("books hold %d tenants, the ledger %d: %+v", len(got), len(m.books), got)
	}
	for _, g := range cl.TenantSnapshots() {
		w, sl := m.books[g.Tenant], m.slack[g.Tenant]
		if w == nil || sl == 0 && g != *w {
			t.Fatalf("tenant %q: books %+v, ledger %+v", g.Tenant, g, w)
		}
		for _, f := range [][2]int64{{g.Ops, w.Ops}, {g.OK, w.OK}, {g.ShedQuota, w.ShedQuota}, {g.ShedBackend, w.ShedBackend}, {g.Errors, w.Errors}} {
			if f[0] < f[1] || f[0] > f[1]+sl || g.Ops != g.OK+g.ShedQuota+g.ShedBackend+g.Errors {
				t.Fatalf("tenant %q: books %+v, ledger %+v give or take %d ops", g.Tenant, g, *w, sl)
			}
		}
	}
}

// runServingModel drives one run and returns its tally of outcomes and
// rare paths.
func runServingModel(t *testing.T, r modelRun) map[string]uint64 {
	var clock atomic.Int64
	ccfg := cluster.Config{
		Quotas:  map[string]cluster.Quota{"tight": {Rate: 32, Burst: 32}},
		Classes: map[string]cluster.Class{"free": cluster.ClassGold},
		Now:     func() time.Time { return time.Unix(1_700_000_000, clock.Load()) },
	}
	m := &model{lines: map[uint64][core.LineSize]byte{}, pending: map[uint64][]pend{}, told: map[string]uint64{}, slack: map[string]int64{},
		books: map[string]*cluster.TenantSnapshot{"free": {Tenant: "free", Class: cluster.ClassGold},
			"tight": {Tenant: "tight", Class: cluster.ClassBestEffort}, "": {Class: cluster.ClassBestEffort}}}
	s := r.stack(t, ccfg, nil)
	var twin *stack // a restore run's second side, from the midpoint on
	step := func(what, tenant string, ctx context.Context, ops []shard.Op) {
		res, id, err := s.do(ctx, ops)
		if twin != nil {
			again, _, aerr := twin.do(ctx, ops)
			if fmt.Sprint(err) != fmt.Sprint(aerr) {
				t.Fatalf("%s at %#x: original answered %v, restored %v", what, ops[0].Addr, err, aerr)
			}
			for k := range res {
				if fmt.Sprint(res[k]) != fmt.Sprint(again[k]) {
					t.Fatalf("%s op %d at %#x: original answered %v, restored %v", what, k, ops[k].Addr, res[k], again[k])
				}
			}
		}
		if err := m.settle(r, tenant, id, ops, res, err, s); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	same := func(where string) {
		if twin != nil && !reflect.DeepEqual(s.cl.EngineSnapshot(), twin.cl.EngineSnapshot()) {
			t.Fatalf("%s: books diverged:\noriginal %+v\nrestored %+v", where, s.cl.EngineSnapshot(), twin.cl.EngineSnapshot())
		}
	}

	const batches = 240
	rng := rand.New(rand.NewSource(r.seed))
	for b := 0; b < batches; b++ {
		if b == batches/2 {
			step("midpoint sweep", "", context.Background(), m.sweep())
			m.check(t, r, s.cl, "midpoint")
			clock.Add(int64(time.Hour)) // refill quota: a restored cluster starts with full buckets
			if r.restore {
				twin = r.stack(t, ccfg, s.cl.Snapshot())
				m.told["restore lockstep"]++
				same("midpoint")
			}
		}
		tenant := modelTenants[rng.Intn(len(modelTenants))]
		ctx := obs.ContextWithTenant(context.Background(), tenant)
		if r.target == targetEngine && rng.Intn(2) == 0 {
			ctx = nil
		}
		step(fmt.Sprintf("batch %d", b), tenant, ctx, modelBatch(rng, 0, 32))
	}
	step("final sweep", "", context.Background(), m.sweep())
	same("end")
	if r.concurrent {
		r.contend(t, s, m)
	}

	s.shutdown()
	for addr := range m.pending { // the server is closed: a handler that never ran never will
		m.drop(addr, func(p pend) bool { _, ran := s.done.Load(p.id); return !ran })
	}
	m.check(t, r, s.cl, "after Close")
	s, twin = r.stack(t, ccfg, s.cl.Snapshot()), nil
	step("sweep of the post-Close snapshot, restored", "", context.Background(), m.sweep())
	return m.told
}

// contend is the concurrent phase: 8 submitters, each over its own four
// pages at QueueDepth 2, with 10-150 µs deadlines on half their calls
// (every call on a DoCtx-only engine), while this goroutine loops stats
// and snapshot cuts until 800 more ops have run, then closes the stack.
func (r modelRun) contend(t *testing.T, s *stack, m *model) {
	var closed atomic.Bool
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rng := rand.New(rand.NewSource(r.seed*977 + int64(g))); !closed.Load(); {
				tenant := modelTenants[rng.Intn(len(modelTenants))]
				ctx, cancel := obs.ContextWithTenant(context.Background(), tenant), context.CancelFunc(func() {})
				if r.target == targetEngineCtx || rng.Intn(2) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(10+rng.Intn(141))*time.Microsecond)
				} else if r.target == targetEngine {
					ctx = nil
				}
				ops := modelBatch(rng, 4*g, 4)
				res, id, err := s.do(ctx, ops)
				cancel()
				for _, sg := range s.cl.Gauges() {
					if r.target != targetEngine && sg.QueueDepth > 2 {
						err = fmt.Errorf("shard %d: QueueDepth gauge %d passed the bound 2 on a DoCtx-only run", sg.Shard, sg.QueueDepth)
					}
				}
				if err := m.settle(r, tenant, id, ops, res, err, s); err != nil {
					s.failed.CompareAndSwap(nil, fmt.Sprintf("submitter %d: %v", g, err))
					return
				}
				if err != nil || res[0].Err != nil {
					time.Sleep(50 * time.Microsecond) // refused: back off as a client would
				}
			}
		}()
	}
	executed := func() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.told["executed"] }
	for start, deadline := executed(), time.Now().Add(2*time.Second); executed() < start+800 && time.Now().Before(deadline) && s.failed.Load() == nil; {
		if err := m.monotone(s.cl.EngineSnapshot()); err != nil {
			t.Fatal(err)
		}
		if err := s.cl.WriteSnapshot(io.Discard); err != nil {
			t.Fatalf("WriteSnapshot under load: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if failed := s.failed.Load(); failed != nil {
		t.Fatal(failed) // before Close: the failure may have wedged a shard that Close would wait for
	}
	s.cl.Close()
	closed.Store(true)
	if wg.Wait(); s.failed.Load() != nil {
		t.Fatal(s.failed.Load())
	}
	m.told["mid-run Close"]++
}

// FuzzServingModel holds the stack an input picks — engine, cluster or
// HTTP handler, tiered or not, with faults or a restore lockstep, with
// or without a concurrent phase — to one model of acknowledged writes,
// what callers were told, and tenant books. DESIGN.md §10 lists what it
// asserts.
func FuzzServingModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shards, instances, tierSel, target int, restore, concurrent bool) {
		runServingModel(t, newModelRun(seed, shards, instances, tierSel, target, restore, concurrent))
	})
}

// TestServingModelCorpus runs FuzzServingModel's committed corpus and
// fails unless, over it, every rare path the model exists for was taken.
func TestServingModelCorpus(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzServingModel", "*"))
	took := map[string]uint64{}
	for _, file := range files {
		data, err := os.ReadFile(file)
		var seed int64
		var shards, instances, tierSel, target int
		var restore, concurrent bool
		if err == nil {
			_, err = fmt.Sscanf(string(data), "go test fuzz v1\nint64(%d)\nint(%d)\nint(%d)\nint(%d)\nint(%d)\nbool(%t)\nbool(%t)\n",
				&seed, &shards, &instances, &tierSel, &target, &restore, &concurrent)
		}
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		t.Run(filepath.Base(file), func(t *testing.T) {
			for path, n := range runServingModel(t, newModelRun(seed, shards, instances, tierSel, target, restore, concurrent)) {
				took[path] += n
			}
		})
	}
	for _, path := range []string{"ok near read", "ok far read", "promotion", "demotion", "Replacement-Area park",
		"quota shed", "backend shed", "cancellation", "injected error", "partial batch",
		"restore lockstep", "mid-run Close", "frame batch", "raw-JSON batch", "line call"} {
		if took[path] == 0 {
			t.Errorf("no corpus input took the %s path", path)
		}
	}
}
