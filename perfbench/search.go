package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sdtw"
	"sdtw/internal/serve"
)

// Headers carrying the client span to the server-side span, so both land
// in one request's trace.
const (
	hdrReq    = "Perfbench-Req"
	hdrParent = "Perfbench-Parent"
)

// server is the program's HTTP layer running in-process on loopback.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

// startServer serves ix over loopback. wrap, when non-nil, wraps the
// serving handler (tests plant faults through it).
func startServer(ix *sdtw.ShardedIndex, rec *Recorder, wrap func(http.Handler) http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{srv: serve.New(ix, serve.Config{}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	h := traceHandler(s.srv.Handler(), rec)
	if wrap != nil {
		h = wrap(h)
	}
	s.http = &http.Server{Handler: h}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	return err
}

// traceHandler records a serve.handler span, parented to the client's
// span, around every request a traced client sends.
func traceHandler(h http.Handler, rec *Recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r) // warm-up and /v1/stats: not part of the trace
			return
		}
		sp := rec.Start("serve.handler", parent, req)
		h.ServeHTTP(w, r)
		sp.End()
	})
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

// post sends one JSON request under a client span and decodes a 200
// reply into out; it returns the round-trip time and the request id.
func post(client *http.Client, rec *Recorder, url, name string, body []byte, out any) (time.Duration, int64, error) {
	req := rec.NewReq()
	sp := rec.Start(name, 0, req)
	defer sp.End()
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, req, fmt.Errorf("%s: %w", name, err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if rec != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrParent, strconv.FormatInt(sp.ID(), 10))
	}
	start := time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		return 0, req, fmt.Errorf("%s: %w", name, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, out)
	}
	lat := time.Since(start)
	if err != nil {
		return lat, req, fmt.Errorf("%s: %w", name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return lat, req, fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(data))
	}
	return lat, req, nil
}

// searchTraffic describes one closed-loop HTTP load: two clients, each
// sending its next request when the previous reply arrives.
type searchTraffic struct {
	url     string
	queries []sdtw.Series
	k       int
	// ref answers queries[:len(ref.answers)]; every reply to one of them
	// is checked, and each is sent once more after the timed window.
	ref    *reference
	dur    time.Duration
	minOps int
	rec    *Recorder
	start  time.Time
}

// trafficOut is what the clients observed.
type trafficOut struct {
	tally
	latMS       []float64       // every completed operation
	doneAt      []time.Duration // each one's completion, from the start
	elapsed     time.Duration
	anon, named int // searches sent without / with an ID
	wallMS      map[int64]float64
}

// opsPerS is the median throughput over slices of the run, which
// discounts a slice disturbed by something outside the program.
func (o *trafficOut) opsPerS() float64 {
	counts := make([]float64, rateSlices)
	width := o.elapsed / rateSlices
	for _, at := range o.doneAt {
		counts[min(int(at/width), rateSlices-1)]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

func (o *trafficOut) merge(p *trafficOut) {
	o.tally.add(p.tally)
	o.latMS = append(o.latMS, p.latMS...)
	o.doneAt = append(o.doneAt, p.doneAt...)
	o.anon += p.anon
	o.named += p.named
	for k, v := range p.wallMS {
		o.wallMS[k] = v
	}
}

func searchBody(q sdtw.Series, k int) []byte {
	b, _ := json.Marshal(serve.SearchRequest{ID: q.ID, Values: q.Values, K: k}) // plain data: cannot fail
	return b
}

// search sends query i and checks its reply when it is a checked query.
func (t *searchTraffic) search(client *http.Client, body []byte, i int, o *trafficOut) {
	var resp serve.SearchResponse
	o.attempted++
	if t.queries[i].ID == "" {
		o.anon++
	} else {
		o.named++
	}
	lat, req, err := post(client, t.rec, t.url+"/v1/search", "client.search", body, &resp)
	if err != nil {
		o.fail(err)
		return
	}
	o.latMS = append(o.latMS, ms(lat))
	o.doneAt = append(o.doneAt, time.Since(t.start))
	if t.rec != nil {
		o.wallMS[req] = resp.Stats.WallMS
	}
	if t.ref != nil && i < len(t.ref.answers) {
		ids := make([]string, len(resp.Hits))
		dists := make([]float64, len(resp.Hits))
		for j, h := range resp.Hits {
			ids[j], dists[j] = h.ID, h.Distance
		}
		if err := t.ref.checkHits(i, ids, dists); err != nil {
			o.wrong++
			o.fail(err)
		}
	}
}

// run drives the load for t.dur, and on until t.minOps operations
// completed (for at most 4×t.dur or a minute), then re-sends every
// checked query once.
func (t *searchTraffic) run() *trafficOut {
	client := newClient()
	defer client.CloseIdleConnections()
	bodies := make([][]byte, len(t.queries))
	for i, q := range t.queries {
		bodies[i] = searchBody(q, t.k)
	}
	parts := [2]*trafficOut{}
	var done sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	t.start = time.Now()
	start := t.start
	more := func(n int) bool {
		mu.Lock()
		completed += n
		c := completed
		mu.Unlock()
		el := time.Since(start)
		return el < t.dur || (c < t.minOps && el < max(4*t.dur, time.Minute))
	}
	for c := range parts {
		parts[c] = &trafficOut{wallMS: map[int64]float64{}}
		done.Add(1)
		go func(c int, o *trafficOut) {
			defer done.Done()
			// Client 2 starts half-way through the list, so each client
			// sees the list's mix of query kinds.
			for j := c * len(t.queries) / 2; ; j++ {
				q := j % len(t.queries)
				t.search(client, bodies[q], q, o)
				if !more(1) {
					return
				}
			}
		}(c, parts[c])
	}
	done.Wait()
	out := &trafficOut{wallMS: map[int64]float64{}, elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	if t.ref != nil {
		again := &trafficOut{wallMS: map[int64]float64{}}
		for i := range t.ref.answers {
			t.search(client, bodies[i], i, again)
		}
		out.tally.add(again.tally)
	}
	return out
}
