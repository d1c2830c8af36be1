package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one lazyetld process serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

var (
	daemonsMu sync.Mutex
	daemons   []*daemon
)

// startDaemon starts lazyetld with its shipped defaults over repo and
// returns once /readyz answers 200, with the time that took.
func startDaemon(bin, repo, logPath string) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{cmd: exec.Command(bin, "-repo", repo, "-addr", addr), base: "http://" + addr, done: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the kernel does.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	daemonsMu.Lock()
	daemons = append(daemons, d)
	daemonsMu.Unlock()
	go func() { d.cmd.Wait(); close(d.done) }()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("lazyetld exited before it was ready (log in %s)", logPath)
		default:
		}
		if resp, err := probe.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, time.Since(t), nil
			}
		}
		if time.Since(t) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("lazyetld not ready after 60 s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop ends the daemon (SIGTERM, then SIGKILL) and waits for it to exit.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

func stopDaemons() {
	daemonsMu.Lock()
	defer daemonsMu.Unlock()
	for _, d := range daemons {
		d.stop()
	}
	daemons = nil
}

// httpClient is one keep-alive connection to the daemon.
type httpClient struct {
	base string
	c    *http.Client
	ids  []string // prepared-statement ids, by template index
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{base: base, c: &http.Client{Transport: tr, Timeout: 20 * time.Second}}
}

type httpReply struct {
	Rows      [][]any `json:"rows"`
	RowCount  int     `json:"row_count"`
	ElapsedNS int64   `json:"elapsed_ns"`
	ID        string  `json:"id"`
	Error     string  `json:"error"`
	bytes     int
	recv      time.Time // when the whole response had arrived
}

func (h *httpClient) post(path string, body any) (*httpReply, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	recv := time.Now()
	var rep httpReply
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("HTTP %d: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, rep.Error)
	}
	rep.bytes, rep.recv = len(data), recv
	return &rep, nil
}

func (h *httpClient) prepare(templates []string) error {
	h.ids = h.ids[:0]
	for _, t := range templates {
		rep, err := h.post("/prepare", map[string]string{"sql": t})
		if err != nil {
			return err
		}
		h.ids = append(h.ids, rep.ID)
	}
	return nil
}

func (h *httpClient) exec(r *request) (*httpReply, error) {
	if r.prep >= 0 {
		return h.post("/execute", map[string]any{"id": h.ids[r.prep], "params": r.params})
	}
	return h.post("/query", map[string]string{"sql": r.sql})
}

// do runs and checks one request; it returns the reply (nil on failure).
func (h *httpClient) do(r *request, o *outcome, mu *sync.Mutex) *httpReply {
	rep, err := h.exec(r)
	var got *answer
	if err == nil {
		got, err = observeJSON(rep.Rows, &r.want)
	}
	mu.Lock()
	ok := o.count(r, got, err)
	mu.Unlock()
	if !ok {
		return nil
	}
	return rep
}

var evictionsRE = regexp.MustCompile(`evictions=(\d+)`)

// serverStats reads the recycler's eviction count and the per-client
// rejections from GET /stats.
func (h *httpClient) serverStats() (evictions, rejected int64, err error) {
	resp, err := h.c.Get(h.base + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Server    struct{ Rejected int64 }
		Warehouse struct{ CacheStats string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, err
	}
	m := evictionsRE.FindStringSubmatch(st.Warehouse.CacheStats)
	if m == nil {
		return 0, 0, fmt.Errorf("no eviction count in %q", st.Warehouse.CacheStats)
	}
	evictions, err = strconv.ParseInt(m[1], 10, 64)
	return evictions, st.Server.Rejected, err
}

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	lat      []float64 // ms, from each request's scheduled send time
	byClass  map[string][]float64
	lag      []float64 // ms the generator dispatched each request late
	overhead []float64 // ms of client latency beyond the server's elapsed_ns
	backlog  int64     // requests due but not completed when the phase ended
	rows     int64
	bytes    int64
}

// merge folds another slice of the same rate into p.
func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
	p.overhead = append(p.overhead, q.overhead...)
	for k, v := range q.byClass {
		p.byClass[k] = append(p.byClass[k], v...)
	}
	p.backlog = max(p.backlog, q.backlog)
	p.rows += q.rows
	p.bytes += q.bytes
}

// valid reports whether the generator kept its schedule and the backlog
// stayed bounded, the conditions under which a rate's latency counts.
func (p *phase) valid(conns int) bool {
	return quantile(p.lag, 0.99) <= maxGenLagMs && p.backlog <= int64(2*conns)
}

// openLoop offers reqs at a fixed rate over the clients' connections for d.
// Latency runs from each request's scheduled send time, so a stall counts
// against every request queued behind it.
func openLoop(clients []*httpClient, reqs []*request, rate float64, d time.Duration, o *outcome) *phase {
	n := min(int(rate*d.Seconds()), len(reqs))
	p := &phase{byClass: map[string][]float64{}}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n)
	var mu sync.Mutex
	var completed atomic.Int64
	var wg sync.WaitGroup
	for _, h := range clients {
		wg.Add(1)
		go func(h *httpClient) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				rep := h.do(reqs[j.i], o, &mu)
				end := time.Now()
				if rep != nil {
					end = rep.recv
				}
				completed.Add(1)
				mu.Lock()
				p.lat = append(p.lat, ms(end.Sub(j.due)))
				p.byClass[reqs[j.i].class] = append(p.byClass[reqs[j.i].class], ms(end.Sub(j.due)))
				if rep != nil {
					p.overhead = append(p.overhead, ms(end.Sub(sent))-float64(rep.ElapsedNS)/1e6)
					p.rows += int64(rep.RowCount)
					p.bytes += int64(rep.bytes)
				}
				mu.Unlock()
			}
		}(h)
	}
	t0 := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / rate
	for k := 0; k < n; k++ {
		due := t0.Add(time.Duration(float64(k) * interval))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		p.lag = append(p.lag, ms(time.Since(due)))
		jobs <- job{k, due}
	}
	if w := time.Until(t0.Add(d)); w > 0 {
		time.Sleep(w)
	}
	p.backlog = int64(n) - completed.Load()
	close(jobs)
	wg.Wait()
	return p
}

// closedHTTP sends the stream's next n requests from start, a pattern
// boundary, one after another over one connection. It returns the index
// after the last request sent.
func closedHTTP(h *httpClient, reqs []*request, start, n int, o *outcome, lp *loop) int {
	var mu sync.Mutex
	end := min(start+n, len(reqs))
	for _, r := range reqs[start:end] {
		sent := time.Now()
		recv := time.Now()
		if rep := h.do(r, o, &mu); rep != nil {
			recv = rep.recv
		}
		lp.add(r.class, recv.Sub(sent))
	}
	return end
}
