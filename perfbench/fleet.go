package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"diffra"
	"diffra/internal/cluster"
	"diffra/internal/difftest"
	"diffra/internal/encode"
	"diffra/internal/pipeline"
	"diffra/internal/service"
	"diffra/internal/telemetry"
)

// fleetRepeat is the share of the stream that repeats an earlier
// request. Hits and the misses of the two schemes with no remapping
// search (baseline, ospill) take well under a millisecond and
// interleave in latency; the misses of the three differential schemes
// mostly take milliseconds. With six repeats in ten and the schemes
// uniform, the stream is 60% hits, 16% fast and 24% slow misses: the
// median lies 10 points below the end of the hits and 26 below the
// step to slow misses at 76%, and the p90 lies 14 points above that
// step. The run report's latency classes show where each class falls.
const fleetRepeat = 0.6

// httpServer is one loopback HTTP listener and the goroutine serving
// it.
type httpServer struct {
	url   string
	hs    *http.Server
	serve chan error
}

func listen(h http.Handler) (*httpServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + l.Addr().String(), hs: &http.Server{Handler: h}, serve: make(chan error, 1)}
	go func() { s.serve <- s.hs.Serve(l) }()
	return s, nil
}

// close stops the server and waits for its goroutine. It is called
// once every request has been answered, so it closes connections
// without draining them.
func (s *httpServer) close() {
	s.hs.Close() // the only error is the listener's close error, and the server is done
	<-s.serve
}

type fleetEnv struct {
	pool []fleetReq
	ops  []fleetOp
	*fleetCluster
}

// fleetCluster is two service nodes and a router on loopback, and the
// client that sends to them.
type fleetCluster struct {
	nodes   map[string]*service.Server // by URL
	servers []*httpServer              // nodes, then the router
	router  *cluster.Router
	rreg    *telemetry.Registry
	url     string // the router's
	client  *http.Client
}

// setupFleet builds the pool and stream of about n requests and starts
// a cluster.
func setupFleet(seed int64, n int) (*fleetEnv, error) {
	p := int(float64(n)*(1-fleetRepeat) + 0.5)
	env := &fleetEnv{pool: fleetPool(p)}
	env.ops = fleetOps(seed, p, fleetRepeat)
	c, err := startCluster()
	if err != nil {
		return nil, err
	}
	env.fleetCluster = c
	return env, nil
}

// startCluster starts two service nodes and a router with default
// configurations on loopback, warmed by two requests outside the pool.
func startCluster() (*fleetCluster, error) {
	c := &fleetCluster{nodes: map[string]*service.Server{}}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := service.New(service.Config{Registry: telemetry.NewRegistry()})
		if err != nil {
			c.close()
			return nil, err
		}
		hs, err := listen(srv.Handler())
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, hs)
		c.nodes[hs.url] = srv
		urls = append(urls, hs.url)
	}
	c.rreg = telemetry.NewRegistry()
	rt, err := cluster.New(cluster.Config{Nodes: urls, Registry: c.rreg})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	hs, err := listen(rt.Handler())
	if err != nil {
		c.close()
		return nil, err
	}
	c.servers = append(c.servers, hs)
	c.url = hs.url
	c.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	for _, g := range []int64{-1, -2} {
		f, _, _ := difftest.Generate(g)
		body, err := json.Marshal(service.Request{IR: f.String()})
		if err != nil {
			c.close()
			return nil, err
		}
		if _, _, err := c.post(c.url, body); err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return c, nil
}

func (c *fleetCluster) close() {
	if c.router != nil {
		c.router.Close()
	}
	for _, s := range c.servers {
		s.close()
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

// post sends one /compile request and decodes the reply; any status
// but 200 (a 429 shed included) is an error.
func (c *fleetCluster) post(base string, body []byte) (service.Response, http.Header, error) {
	var resp service.Response
	hr, err := c.client.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, nil, err
	}
	defer hr.Body.Close()
	payload, err := io.ReadAll(hr.Body)
	if err != nil {
		return resp, nil, err
	}
	if hr.StatusCode != http.StatusOK {
		return resp, nil, fmt.Errorf("status %d: %s", hr.StatusCode, bytes.TrimSpace(payload))
	}
	if err := json.Unmarshal(payload, &resp); err != nil {
		return resp, nil, err
	}
	return resp, hr.Header, nil
}

func runFleet(cfg config, n int, r *report) error {
	env, setups, err := setUp(func() (*fleetEnv, error) { return setupFleet(cfg.seed, n) }, (*fleetEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	results, q, err := checkPool(env.pool)
	if err != nil {
		return err
	}
	// Every round starts on a new cluster, so each replay of the stream
	// meets empty caches and misses and hits at the same places.
	ph, err := timed(len(env.ops), func() (func(int) error, func(), error) {
		c, err := startCluster()
		if err != nil {
			return nil, nil, err
		}
		return func(i int) error {
			op := env.ops[i]
			resp, _, err := c.post(c.url, env.pool[op.req].body)
			if err != nil {
				return err
			}
			return checkReply(op, results[op.req], resp)
		}, c.close, nil
	})
	if err != nil {
		return err
	}
	// A request poses the same problem wherever it misses, and again
	// wherever it hits.
	class := func(i int) int {
		if env.ops[i].repeatOf >= 0 {
			return 2*env.ops[i].req + 1
		}
		return 2 * env.ops[i].req
	}
	lat, _ := ph.best(class)
	r.classes = fleetClasses(env, lat)
	return endToEnd(r, setups, ph, class, q)
}

// fleetClasses splits the timed latencies into hits and the misses of
// each scheme, which shows where p50 and p90 fall among them.
func fleetClasses(env *fleetEnv, lat []float64) map[string]latencyClass {
	by := map[string][]float64{}
	for i, op := range env.ops {
		class := "hit"
		if op.repeatOf < 0 {
			class = "miss." + env.pool[op.req].req.Scheme
		}
		by[class] = append(by[class], lat[i])
	}
	out := make(map[string]latencyClass, len(by))
	for class, l := range by {
		sort.Float64s(l)
		at := func(q float64) float64 { return l[int(q*float64(len(l)-1))] }
		out[class] = latencyClass{Ops: len(l), Share: float64(len(l)) / float64(len(lat)), P05MS: at(0.05), P50MS: at(0.5), P95MS: at(0.95)}
	}
	return out
}

// poolResult is the facade's checked compile of one pool request.
type poolResult struct {
	resp      service.Response
	codeBytes int
	cycles    uint64
	err       error
}

// compilePool compiles every pool request through the facade on two
// goroutines, and simulates each on the low-end pipeline with the
// generated program's own input, requiring the simulated return value
// to equal the source's.
func compilePool(pool []fleetReq) ([]poolResult, error) {
	var machs [2]*pipeline.Machine
	for w := range machs {
		m, err := pipeline.New(pipeline.LowEnd())
		if err != nil {
			return nil, err
		}
		machs[w] = m
	}
	out := make([]poolResult, len(pool))
	var wg sync.WaitGroup
	for w, mach := range machs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < len(pool); j += len(machs) {
				out[j] = compileOne(mach, pool[j])
			}
		}()
	}
	wg.Wait()
	return out, nil
}

func compileOne(mach *pipeline.Machine, pr fleetReq) poolResult {
	f, args, mem := difftest.Generate(pr.gen)
	opts := diffra.Options{Scheme: diffra.Scheme(pr.req.Scheme), RegN: pr.req.RegN, DiffN: pr.req.DiffN, RemapWorkers: 1}
	res, err := diffra.Compile(pr.req.IR, opts)
	if err != nil {
		return poolResult{err: fmt.Errorf("%s %s: facade: %w", f.Name, pr.req.Scheme, err)}
	}
	cycles, err := simulate(mach, f, res, difftest.RunSpec{Args: args, Mem: mem})
	if err != nil {
		return poolResult{err: fmt.Errorf("%s %s: %w", f.Name, pr.req.Scheme, err)}
	}
	resp := expectedResponse(res, opts)
	resp.Func = res.F.Name
	return poolResult{resp: resp, codeBytes: encode.CodeBytes(res.F, encode.Thumb16()), cycles: cycles}
}

// checkPool compiles and checks every pool request through the facade
// and returns the results and the quality of the pool's compiles.
func checkPool(pool []fleetReq) ([]poolResult, quality, error) {
	results, err := compilePool(pool)
	if err != nil {
		return nil, quality{}, err
	}
	var q quality
	for _, pr := range results {
		if pr.err == nil {
			q.spillInstrs += float64(pr.resp.SpillInstrs)
			q.codeBytes += float64(pr.codeBytes)
			q.simCycles += float64(pr.cycles)
		}
	}
	np := float64(len(pool))
	q.spillInstrs /= np
	q.codeBytes /= np
	q.simCycles /= np
	return results, q, nil
}

// checkReply requires a reply to carry the cached flag its position in
// the stream implies and to equal the facade's checked compile of the
// same request; a failed pool check fails every operation that sends
// the request.
func checkReply(op fleetOp, pr poolResult, resp service.Response) error {
	if want := op.repeatOf >= 0; resp.Cached != want {
		return fmt.Errorf("%s: cached=%v, stream position says %v", resp.Func, resp.Cached, want)
	}
	if pr.err != nil {
		return pr.err
	}
	if err := sameResponse(resp, pr.resp); err != nil {
		return err
	}
	if resp.Func != pr.resp.Func {
		return fmt.Errorf("reply for %s, request was %s", resp.Func, pr.resp.Func)
	}
	return nil
}

// traceFleet replays the stream on one caller. Every operation goes
// through the router as in the timed run. A hit is probed on the same
// cached request directly at its node over HTTP and in process, which
// splits its time into router hop, HTTP/JSON and service hit. A miss
// is compiled again through the untraced facade and the traced staged
// replay; its node's TraceRecord gives the service's own duration and
// queue wait.
func traceFleet(cfg config, n int, r *report) error {
	env, err := setupFleet(cfg.seed, n)
	if err != nil {
		return err
	}
	defer env.close()
	results, _, err := checkPool(env.pool)
	if err != nil {
		return err
	}
	t := newTraced()
	errs := make([]error, len(env.ops))
	ctx := context.Background()
	hits := 0
	for i, op := range env.ops {
		t.rec.op = i
		pr := env.pool[op.req]
		id := t.rec.begin("router.compile")
		resp, hdr, err := env.post(env.url, pr.body)
		routed := t.rec.end(id)
		if err == nil {
			err = checkReply(op, results[op.req], resp)
		}
		if err != nil {
			errs[i] = err
			continue
		}
		node := env.nodes[hdr.Get("X-Diffra-Backend")]
		if node == nil {
			errs[i] = fmt.Errorf("%s: reply names no known backend", resp.Func)
			continue
		}
		if resp.Cached {
			hits++
			id := t.rec.begin("node.http")
			direct, _, err := env.post(hdr.Get("X-Diffra-Backend"), pr.body)
			httpDur := t.rec.end(id)
			id = t.rec.begin("service.hit")
			inproc := node.Compile(ctx, pr.req)
			hitDur := t.rec.end(id)
			if err == nil && (!direct.Cached || !inproc.Cached) {
				err = fmt.Errorf("%s: probe of a cached request missed", resp.Func)
			}
			if err != nil {
				errs[i] = err
				continue
			}
			t.probe("service.hit_ms").add(ms(hitDur))
			t.probe("service.http_ms").add(ms(httpDur - hitDur))
			t.probe("cluster.hop_ms").add(ms(routed - httpDur))
			continue
		}
		rec := findTrace(node, resp.Func, false)
		opts, err := diffra.Options{Scheme: diffra.Scheme(pr.req.Scheme), RegN: pr.req.RegN, DiffN: pr.req.DiffN, RemapWorkers: 1, SpillWorkers: 1}.Resolved()
		if err != nil {
			return err
		}
		start := time.Now()
		fres, ferr := diffra.Compile(pr.req.IR, opts)
		fdur := time.Since(start)
		start = time.Now()
		sres, serr := staged(pr.req.IR, nil, opts, t.rec, &t.lc)
		sdur := time.Since(start)
		switch {
		case ferr != nil:
			errs[i] = ferr
		case serr != nil:
			errs[i] = serr
		case rec == nil:
			errs[i] = fmt.Errorf("%s: no trace record for the miss", resp.Func)
		default:
			errs[i] = sameResult(fres, sres)
		}
		if errs[i] != nil {
			continue
		}
		t.compiled(fdur, sdur)
		t.probe("service.miss_overhead_ms").add(float64(rec.DurUS)/1000 - ms(fdur))
		t.probe("service.queue_wait_ms").add(float64(rec.QueueUS) / 1000)
	}
	t.ops = len(env.ops)
	t.counts["service.hit_frac"] = float64(hits) / float64(len(env.ops))
	t.counts["cluster.singleflight_shared"] = float64(env.rreg.Counter("router_singleflight_shared_total").Value())
	t.counts["cluster.failovers"] = float64(env.rreg.Counter("router_failovers_total").Value())
	r.countErrs(errs)
	t.layers(r)
	return writeSpans(cfg, t.rec)
}
