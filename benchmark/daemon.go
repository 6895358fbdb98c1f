package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"metainsight"
	"metainsight/internal/dataset"
	"metainsight/internal/serve"
	"metainsight/internal/workload"
)

// The daemon's request mix. Every block of blockSize requests a client sends
// holds exactly this composition, in an order the seed draws, and a window
// is a whole number of blocks: windows then do identical work, so their
// times compare and the per-op counts repeat.
const (
	blockSize       = 20
	blockLight      = 14 // 70 %: budget_cost 40, ≈0.7 ms of mining
	blockFull       = 5  // 25 %: unbudgeted, ≈25–30 ms
	blockMeta       = 1  // 5 %: GET /v1/datasets and /healthz alternating
	blocksPerWindow = 2
	daemonClients   = 2 // = nproc of the box the load is sized for
)

type reqKind uint8

const (
	reqLight reqKind = iota
	reqFull
	reqDatasets
	reqHealthz
)

var reqNames = [...]string{"light", "full", "datasets", "healthz"}

var (
	lightBody = mustJSON(serve.AnalyzeParams{Dataset: "credit_card", BudgetCost: lightBudget})
	fullBody  = mustJSON(serve.AnalyzeParams{Dataset: "credit_card"})
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only static request bodies pass through here
	}
	return b
}

// daemon is serve.New behind an http.Server on a loopback port, with the
// daemon's flag defaults.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	done chan error
	base string
}

func startDaemon(specs []serve.DatasetSpec, stateDir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{
		Datasets:  specs,
		StateDir:  stateDir,
		Admission: serve.AdmissionConfig{MaxConcurrent: 8, MaxQueue: 64},
		Jobs:      serve.JobsConfig{Workers: 2, CheckpointEvery: 64},
		Observer:  metainsight.NewObserver(metainsight.ObserverOptions{}),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // on timeout Close below still ends Serve
	d.http.Close()
	<-d.done
	d.srv.Close()
}

// client is one keep-alive caller with its own connection and tenant.
type client struct {
	hc     *http.Client
	tenant string
	rng    *rand.Rand
	meta   int
}

func newClient(tenant string, seed int64) *client {
	return &client{
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		tenant: tenant,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// block draws the next blockSize request kinds.
func (c *client) block() []reqKind {
	b := make([]reqKind, 0, blockSize)
	for i := 0; i < blockLight; i++ {
		b = append(b, reqLight)
	}
	for i := 0; i < blockFull; i++ {
		b = append(b, reqFull)
	}
	for i := 0; i < blockMeta; i++ {
		b = append(b, reqDatasets+reqKind(c.meta%2))
		c.meta++
	}
	c.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	kind   reqKind
	status int
	body   []byte
	err    error
	latMS  float64
}

func (c *client) do(base string, k reqKind) reply {
	var (
		req *http.Request
		err error
	)
	switch k {
	case reqLight:
		req, err = http.NewRequest(http.MethodPost, base+"/v1/analyze", bytes.NewReader(lightBody))
	case reqFull:
		req, err = http.NewRequest(http.MethodPost, base+"/v1/analyze", bytes.NewReader(fullBody))
	case reqDatasets:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/datasets", nil)
	default:
		req, err = http.NewRequest(http.MethodGet, base+"/healthz", nil)
	}
	if err != nil {
		return reply{kind: k, err: err}
	}
	req.Header.Set("X-Tenant", c.tenant)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{kind: k, err: err, latMS: ms(time.Since(t0))}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{kind: k, status: resp.StatusCode, body: body, err: err, latMS: ms(time.Since(t0))}
}

// toResult turns a reply into a checkable result: any status other than 200
// is a failed op; analyze bodies must decode and carry ranked insights.
func (r reply) toResult() opResult {
	name := reqNames[r.kind]
	op := opResult{latMS: r.latMS, err: r.err, tag: name}
	if op.err != nil {
		return op
	}
	if r.status != http.StatusOK {
		op.err = fmt.Errorf("%s: status %d: %.120s", name, r.status, r.body)
		return op
	}
	switch r.kind {
	case reqLight, reqFull:
		var ar struct {
			Insights []struct {
				Score float64 `json:"score"`
			} `json:"insights"`
			Stats json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(r.body, &ar); err != nil {
			op.err = fmt.Errorf("%s: decoding body: %w", name, err)
			return op
		}
		rk := ranked{key: name, payload: r.body}
		for _, in := range ar.Insights {
			rk.scores = append(rk.scores, in.Score)
		}
		op.out = []ranked{rk}
	default:
		if !json.Valid(r.body) {
			op.err = fmt.Errorf("%s: body is not JSON", name)
			return op
		}
		rk := ranked{key: name, plain: true}
		if r.kind == reqDatasets {
			// The listing must repeat byte for byte; the health reply carries
			// the admission snapshot, which moves.
			rk.payload = r.body
		}
		op.out = []ranked{rk}
	}
	return op
}

type daemonInst struct {
	e       *env
	d       *daemon
	clients []*client
	paths   []string
	cc      *table // credit_card again, in-library, for score_at_budget and the traced pass
}

func daemonTables() []namedTable {
	return []namedTable{
		{key: "credit_card", build: workload.CreditCard},
		{key: "sales_forecast", build: workload.SalesForecast},
		{key: "tablet_sales", build: workload.TabletSales},
	}
}

func setupDaemon(e *env) (instance, error) {
	di := &daemonInst{e: e}
	var specs []serve.DatasetSpec
	for _, in := range daemonTables() {
		tab := e.generate(func() *dataset.Table { return in.build() })
		path, err := e.writeCSV(in.key, tab)
		if err != nil {
			return nil, err
		}
		di.paths = append(di.paths, path)
		specs = append(specs, serve.DatasetSpec{Name: in.key, Path: path, MaxCardinality: 100})
	}
	var err error
	e.rec.in("serve.start", func() { di.d, err = startDaemon(specs, "") })
	if err != nil {
		return nil, err
	}
	for i := 0; i < daemonClients; i++ {
		di.clients = append(di.clients, newClient(fmt.Sprintf("tenant-%d", i), e.seed*31+int64(i)))
	}
	if di.cc, err = e.open("credit_card", di.paths[0]); err != nil {
		di.close()
		return nil, err
	}
	for _, r := range di.window(-1)() {
		if r.err != nil {
			di.close()
			return nil, r.err
		}
	}
	return di, nil
}

// window has every client send blocksPerWindow blocks, closed loop: a
// client issues its next request when the previous reply has been read.
func (di *daemonInst) window(int) func() []opResult {
	replies := make([][]reply, len(di.clients))
	var wg sync.WaitGroup
	for ci, c := range di.clients {
		var plan []reqKind
		for b := 0; b < blocksPerWindow; b++ {
			plan = append(plan, c.block()...)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]reply, len(plan))
			for i, k := range plan {
				out[i] = c.do(di.d.base, k)
			}
			replies[ci] = out
		}()
	}
	wg.Wait()
	return func() []opResult {
		var ops []opResult
		for _, rs := range replies {
			for _, r := range rs {
				ops = append(ops, r.toResult())
			}
		}
		return ops
	}
}

// traced is one light and one full request, each over HTTP and then the same
// Request through the library layer by layer.
func (di *daemonInst) traced(int) []opResult {
	var ops []opResult
	c := di.clients[0]
	for _, k := range []reqKind{reqLight, reqFull} {
		var r reply
		di.e.rec.in("serve.roundtrip_"+reqNames[k], func() { r = c.do(di.d.base, k) })
		ops = append(ops, r.toResult())
		budget := 0.0
		if k == reqLight {
			budget = lightBudget
		}
		rk, err := di.e.analyzeSteps("lib_"+reqNames[k], di.cc.ds, budget)
		ops = append(ops, opResult{out: []ranked{rk}, err: err})
	}
	return ops
}

// score is the light request shape's own quantity: the top-10 score sum the
// budget_cost 40 request returns.
func (di *daemonInst) score() (float64, error) { return scoreAt(di.cc.sess, lightBudget) }

func (di *daemonInst) primary() *metainsight.Dataset { return di.cc.ds }

func (di *daemonInst) close() {
	for _, c := range di.clients {
		c.hc.CloseIdleConnections()
	}
	if di.d != nil {
		di.d.stop()
	}
	if di.cc != nil {
		di.cc.sess.Close()
	}
	for _, p := range di.paths {
		os.RemoveAll(filepath.Dir(p))
	}
}
