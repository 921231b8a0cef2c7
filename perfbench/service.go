package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"dise/internal/service"
)

// The service layer is measured by sending the artifact chains, closed loop,
// to service.New(...).Handler() on a loopback listener in this process.
const (
	// senders is the number of goroutines issuing requests, each holding at
	// most one connection: one per CPU of the reference host.
	senders = 2
	// warmReqBase numbers the untimed warm-up requests, clear of the
	// measured ones.
	warmReqBase = 1 << 30
)

// svcJob is one chain as a client's unit of work: create a session, advance
// it through the remaining versions, delete it.
type svcJob struct {
	id       int
	proc     string
	versions []string
}

func (j svcJob) requests() int { return len(j.versions) + 1 } // create, advances, delete

// sample is one request as the client saw it.
type sample struct {
	job, step int // step 0 = create, 1..k = advances, k+1 = delete
	reqID     int
	status    int
	skipped   bool     // never sent: the chain's session was lost
	out       *outcome // advance results
	err       string
}

// server is one service instance on a loopback listener.
type server struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServer(tr *tracer) (*server, error) {
	svc := service.New(service.Config{})
	h := svc.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		srv:  &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders,
		}},
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	_ = s.srv.Close() // the listener is gone either way
	<-s.done
	s.svc.Close()
}

// tracedHandler is the benchmark's middleware: a span around the service's
// handler, linked to the client's span by the X-Request-ID header.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		req, _ := strconv.Atoi(r.Header.Get("X-Request-ID")) // absent: 0, not an op
		tr.add(spanHandler, -1, req, start, time.Now())
	})
}

// drive sends the jobs closed loop from senders goroutines, each running
// one job at a time with its requests back to back. reqBase numbers the
// requests. Samples come back in job order.
func (s *server) drive(jobs []svcJob, tr *tracer, reqBase int) []sample {
	type task struct {
		job  svcJob
		slot int
		out  []sample
	}
	tasks := make([]task, len(jobs))
	slot := 0
	for i, j := range jobs {
		tasks[i] = task{job: j, slot: slot}
		slot += j.requests()
	}
	next := make(chan *task)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				t.out = s.runJob(t.job, reqBase+t.slot, tr)
			}
		}()
	}
	for i := range tasks {
		next <- &tasks[i]
	}
	close(next)
	wg.Wait()
	var out []sample
	for _, t := range tasks {
		out = append(out, t.out...)
	}
	return out
}

func (s *server) runJob(j svcJob, reqBase int, tr *tracer) []sample {
	var out []sample
	sessionID := ""
	tenant := "t" + strconv.Itoa(j.id)
	for step := 0; step < j.requests(); step++ {
		smp := sample{job: j.id, step: step, reqID: reqBase + step + 1}
		var method, path string
		var body any
		switch {
		case step == 0:
			method, path = "POST", "/v1/sessions"
			body = service.CreateSessionRequest{Tenant: tenant, InitialSrc: j.versions[0], Proc: j.proc}
		case step < len(j.versions):
			method, path = "POST", "/v1/sessions/"+sessionID+"/advance"
			body = service.AdvanceRequest{Tenant: tenant, NextSrc: j.versions[step]}
		default:
			method, path = "DELETE", "/v1/sessions/"+sessionID+"?tenant="+tenant
		}
		sentAt := time.Now()
		status, data, err := s.do(method, path, body, smp.reqID)
		tr.add(spanClient, -1, smp.reqID, sentAt, time.Now())
		smp.status = status
		switch {
		case err != nil:
			smp.err = err.Error()
		case status >= 300:
			smp.err = fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(data))
		case step == 0:
			var cr service.CreateSessionResponse
			if err := json.Unmarshal(data, &cr); err != nil || cr.SessionID == "" {
				smp.err = fmt.Sprintf("create response %q", data)
			}
			sessionID = cr.SessionID
		case step < len(j.versions):
			var rp service.ResultPayload
			if err := json.Unmarshal(data, &rp); err != nil {
				smp.err = fmt.Sprintf("result response: %v", err)
				break
			}
			o := payloadOutcome(rp)
			smp.out = &o
		}
		out = append(out, smp)
		if smp.err != "" {
			// The chain cannot continue without its session.
			for step++; step < j.requests(); step++ {
				out = append(out, sample{job: j.id, step: step, skipped: true})
			}
			break
		}
	}
	return out
}

func (s *server) do(method, path string, body any, reqID int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-ID", strconv.Itoa(reqID))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func payloadOutcome(rp service.ResultPayload) outcome {
	pcs := make([]string, len(rp.Paths))
	for i, p := range rp.Paths {
		pcs[i] = p.PathCondition
	}
	return outcome{
		Paths:        len(rp.Paths),
		PCDigest:     pcDigest(pcs),
		ACNLines:     nonNil(rp.AffectedConditionalLines),
		AWNLines:     nonNil(rp.AffectedWriteLines),
		ChangedNodes: rp.ChangedNodes,
	}
}

// pollQueueDepth samples the admission queue depth from /metrics, served in
// process, every 10ms until the returned function is called; that returns
// the maximum seen.
func pollQueueDepth(svc *service.Service) func() int64 {
	stop := make(chan struct{})
	result := make(chan int64, 1)
	go func() {
		var maxDepth int64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				result <- maxDepth
				return
			case <-tick.C:
				w := httptest.NewRecorder()
				svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
				var m service.Metrics
				if json.Unmarshal(w.Body.Bytes(), &m) == nil {
					maxDepth = max(maxDepth, m.Admission.QueueDepth)
				}
			}
		}
	}()
	return func() int64 {
		close(stop)
		return <-result
	}
}

// serviceLayer reports the service layer's metrics from the client and
// handler spans of the traced HTTP phase, per request sent.
func serviceLayer(rep *report, tr *tracer, samples []sample, maxDepth int64) {
	handler := map[int]int64{}
	client := map[int]int64{}
	for _, s := range tr.snapshot() {
		switch s.Name {
		case spanHandler:
			handler[s.Req] += s.End - s.Start
		case spanClient:
			client[s.Req] += s.End - s.Start
		}
	}
	var hSum, overSum int64
	n, rejected := 0, 0
	for _, s := range samples {
		if s.skipped {
			continue
		}
		n++
		hSum += handler[s.reqID]
		overSum += client[s.reqID] - handler[s.reqID]
		if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
			rejected++
		}
	}
	d := float64(max(n, 1)) * 1e6
	rep.Layers["service.handler_ms"] = metric{float64(hSum) / d, "ms"}
	rep.Layers["service.client_overhead_ms"] = metric{float64(overSum) / d, "ms"}
	rep.Layers["service.queue_depth_max"] = metric{float64(maxDepth), "count"}
	rep.Layers["service.rejected"] = metric{float64(rejected), "count"}
}
