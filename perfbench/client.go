package main

// client.go — the closed-loop HTTP client: one connection, and the next job
// is submitted only after the previous job's results are read. Status is
// polled at a fixed interval, which therefore bounds the resolution of
// every job latency.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"bicoop"
	"bicoop/internal/service"
)

// pollInterval is part of every workload's definition.
const pollInterval = 5 * time.Millisecond

// span is one timed interval of a traced run. Spans of one job share Job;
// "job" spans are the parents of the "http.*" spans with the same Job.
type span struct {
	Name    string `json:"name"`
	Job     int    `json:"job"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(name string, job int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name, job, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
}

type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		Proxy:               nil, // loopback only, whatever the environment says
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one job as the client saw it.
type outcome struct {
	latency time.Duration // POST sent until the results body is read
	submit  time.Duration // the POST
	results time.Duration // the results GET
	polls   int
	body    []byte
	err     error
}

// run submits spec, polls until the job is terminal and reads its results.
func (c *client) run(ctx context.Context, idx int, spec []byte) outcome {
	var o outcome
	t0 := time.Now()
	var created service.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, http.StatusCreated, &created)
	t1 := time.Now()
	o.submit = t1.Sub(t0)
	c.tr.record("http.submit", idx, t0, t1)
	if err != nil {
		o.err = err
		return o
	}
	timer := time.NewTimer(pollInterval)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			o.err = ctx.Err()
			return o
		case <-timer.C:
		}
		ps := time.Now()
		var st service.JobStatus
		err := c.do(ctx, http.MethodGet, "/v1/jobs/"+created.ID, nil, http.StatusOK, &st)
		c.tr.record("http.poll", idx, ps, time.Now())
		o.polls++
		if err != nil {
			o.err = err
			return o
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				o.err = fmt.Errorf("job %s ended %s: %s", created.ID, st.State, st.Error)
				return o
			}
			break
		}
		timer.Reset(pollInterval)
	}
	rs := time.Now()
	o.body, o.err = c.get(ctx, "/v1/jobs/"+created.ID+"/results")
	re := time.Now()
	o.results = re.Sub(rs)
	o.latency = re.Sub(t0)
	c.tr.record("http.results", idx, rs, re)
	c.tr.record("job", idx, t0, re)
	return o
}

// cacheStats reads GET /stats.
func (c *client) cacheStats(ctx context.Context) (bicoop.CacheStats, error) {
	var out struct {
		Cache bicoop.CacheStats `json:"cache"`
	}
	err := c.do(ctx, http.MethodGet, "/stats", nil, http.StatusOK, &out)
	return out.Cache, err
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// do sends one request and decodes the JSON answer into out; any status
// but want is an error (a 429 shed included).
func (c *client) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding: %w", method, path, err)
	}
	return nil
}
