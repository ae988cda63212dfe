package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/pkg/api"
)

// opFunc runs op n; tr is the trace log in a traced phase and nil
// otherwise. An error marks the op failed.
type opFunc func(n int64, tr *clientTrace) error

// loadStats is what one phase of load observed.
type loadStats struct {
	latMs     []float64 // per op, from send to completion
	attempted int64
	failed    int64
	busy      time.Duration // the ops' own time: the phase less its gauge samples
	trace     *clientTrace  // traced phases only
	firstErr  error
}

// closedLoop runs ops back to back from one client, each sent as soon as
// the previous one completes, until the window closes (or, when maxOps >
// 0, until maxOps ops have run). One client on a host of two or so shared
// cores measures the program rather than the scheduler; the server still
// spreads a sweep's runs over its own workers. The host gauge ticks
// between ops, and an op that makes several requests ticks it between
// them; an op's time leaves those samples out.
func closedLoop(window time.Duration, maxOps int64, traced bool, g *gauge, op opFunc) loadStats {
	var st loadStats
	if traced {
		st.trace = &clientTrace{}
	}
	start := time.Now()
	for n := int64(0); ; n++ {
		if (maxOps > 0 && n >= maxOps) || (maxOps <= 0 && time.Since(start) >= window) {
			return st
		}
		g.tick()
		sent, sampled := time.Now(), g.total
		err := op(n, st.trace)
		d := time.Since(sent) - (g.total - sampled)
		st.busy += d
		st.latMs = append(st.latMs, float64(d)/1e6)
		st.attempted++
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
	}
}

// newLoadClient returns the load's HTTP client: one keep-alive
// connection.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout: 5 * time.Minute,
		Transport: requestIDTransport{&http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

// requestIDTransport stamps the context's request ID on requests that
// carry none: pkg/client forwards it on unary calls but not when opening
// a job stream, and the server span must join the op's trace either way.
type requestIDTransport struct{ base http.RoundTripper }

func (t requestIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := api.RequestID(r.Context()); id != "" && r.Header.Get(api.HeaderRequestID) == "" {
		r = r.Clone(r.Context())
		r.Header.Set(api.HeaderRequestID, id)
	}
	return t.base.RoundTrip(r)
}

// post sends a JSON body and returns the status, headers and whole body.
func post(hc *http.Client, url string, body []byte, requestID string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", api.ContentTypeJSON)
	}
	req.Header.Set(api.HeaderRequestID, requestID)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, blob, nil
}

// span is one timed interval of a traced op or of the layer replay.
// Spans of one op share Trace, the X-Request-ID the load generator set;
// Parent names the span that caused this one.
type span struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// clientTrace is the client's spans and the ops it kept for the layer
// replay.
type clientTrace struct {
	spans []span
	kept  []keptOp
}

func (t *clientTrace) add(trace, id, parent, name string, start, end time.Time) {
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
}

// keptOp is what a traced op leaves for the replay: its number and spec,
// the runs the server answered with, and which of them it simulated.
type keptOp struct {
	n         int64
	spec      []byte
	runs      []api.RunResult
	simulated []int
}

// withSelfTimes sets each span's self time: its duration minus the part
// of it that its children cover.
func withSelfTimes(spans []span) []span {
	children := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Trace+"\x00"+s.Parent] = append(children[s.Trace+"\x00"+s.Parent], s)
		}
	}
	out := make([]span, len(spans))
	for i, s := range spans {
		s.Self = s.dur() - covered(s, children[s.Trace+"\x00"+s.ID])
		out[i] = s
	}
	return out
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		start, end := max(k.Start, reach), min(k.End, parent.End)
		if end > start {
			total += end - start
			reach = end
		}
	}
	return total
}

// writeSpans writes a run's spans, with self times, as one JSON document.
func writeSpans(path, workload string, spans []span) error {
	blob, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, withSelfTimes(spans)}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
