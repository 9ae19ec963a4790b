package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func postRun(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// TestHTTPSingleRun drives one run through the real HTTP surface.
func TestHTTPSingleRun(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postRun(t, ts.URL, `{"tenant":"demo","workload":"heat","scale":5,"policy":"tahoe","machine":{"nvm":"bw:0.5","dram_mb":128},"trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rr.ID == 0 || rr.Tenant != "demo" || rr.Workload != "heat" || rr.TimeSec <= 0 || rr.Tasks == 0 {
		t.Fatalf("response: %+v", rr)
	}
	if rr.Machine != "nvm=bw:0.5,dram=128" {
		t.Fatalf("machine echo %q", rr.Machine)
	}
	if rr.TraceSHA256 == "" || rr.TraceEvents == 0 {
		t.Fatal("trace requested but not returned")
	}
}

// TestHTTPErrors pins the status codes of the failure surface.
func TestHTTPErrors(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{``, http.StatusBadRequest},
		{`{not json`, http.StatusBadRequest},
		{`{"workload":"no-such-workload"}`, http.StatusBadRequest},
		{`{"workload":"heat","policy":"bogus"}`, http.StatusBadRequest},
		{`{"workload":"heat","machine":{"nvm":"bogus"}}`, http.StatusBadRequest},
		// A NaN spec used to pass admission and panic a worker, taking
		// the whole daemon down; the requests below prove it still serves.
		{`{"workload":"heat","machine":{"nvm":"bw:NaN"}}`, http.StatusBadRequest},
		{`{"workload":"heat","machine":{"nvm":"lat:Inf"}}`, http.StatusBadRequest},
		// A DRAM size that wraps when scaled to bytes used to run on a
		// 1 MB machine and echo the size it was asked for.
		{`{"workload":"heat","scale":5,"machine":{"dram_mb":17592186044417}}`, http.StatusBadRequest},
		// An mlp between 0 and 1 is refused at admission, not run to a failure.
		{`{"graph":{"objects":[{"size":64}],"tasks":[{"kind":"k","accesses":[{"obj":0,"mode":"in","loads":1,"mlp":0.5}]}]}}`, http.StatusBadRequest},
		{`{"workload":"heat","scale":4}`, http.StatusOK},
		// An fft scale whose sizes overflow used to panic a worker with
		// a divide by zero (64) or build negative sizes (59).
		{`{"workload":"fft","scale":64}`, http.StatusBadRequest},
		{`{"workload":"fft","scale":59}`, http.StatusBadRequest},
		// Kinds x objects is capped at MaxInlinePairs: a graph one kind
		// past the cap is refused, a graph at the cap runs.
		{pairGraphBody(t, 1025, 1024), http.StatusBadRequest},
		{pairGraphBody(t, 1024, 1024), http.StatusOK},
	} {
		resp, body := postRun(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d want %d (%s)", tc.body, resp.StatusCode, tc.want, body)
		}
		if tc.want != http.StatusOK {
			var ae apiError
			if err := json.Unmarshal(body, &ae); err != nil || ae.Error == "" {
				t.Errorf("body %q: error response not JSON: %s", tc.body, body)
			}
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/run"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/run: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /v1/nope: %d", resp.StatusCode)
		}
	}
}

// pairGraphBody is a /v1/run body running pairGraph(nk, nobj).
func pairGraphBody(t *testing.T, nk, nobj int) string {
	t.Helper()
	b, err := json.Marshal(pairGraph(nk, nobj))
	if err != nil {
		t.Fatal(err)
	}
	return `{"graph":` + string(b) + `}`
}

// TestHTTPRejectsHugeFaultSpec: a request's fault spec asking for 1e9
// events is a 400 at admission, not a billion-event allocation.
func TestHTTPRejectsHugeFaultSpec(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{
		`{"workload":"heat","faults":"rate=1e9,horizon=1"}`,
		`{"workload":"heat","workers":1099511627776}`,
	} {
		resp, b := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d want 400 (%s)", body, resp.StatusCode, b)
		}
	}
}

// TestHTTPBodyLimit: bodies past MaxRequestBytes, single or batch, are
// refused with 413 and the usual JSON error, and the daemon keeps
// serving.
func TestHTTPBodyLimit(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	pad := strings.Repeat(" ", MaxRequestBytes)
	for _, body := range []string{
		`{"workload":"heat","tenant":"` + strings.Repeat("x", MaxRequestBytes) + `"}`,
		pad + `{"workload":"heat"}`,
		`[{"workload":"heat","tenant":"` + strings.Repeat("x", MaxRequestBytes) + `"}]`,
	} {
		resp, b := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%d-byte body: status %d want 413", len(body), resp.StatusCode)
		}
		var ae apiError
		if err := json.Unmarshal(b, &ae); err != nil || ae.Error == "" {
			t.Errorf("%d-byte body: error response not JSON: %.200s", len(body), b)
		}
	}
	resp, b := postRun(t, ts.URL, `{"workload":"heat","scale":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the refusals: status %d (%s)", resp.StatusCode, b)
	}
}

// TestHTTPIntrospection covers /v1/workloads, /v1/stats and /healthz.
func TestHTTPIntrospection(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var wls []workloadInfo
	if err := json.NewDecoder(resp.Body).Decode(&wls); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, wl := range wls {
		if wl.Name == "heat" {
			found = true
		}
	}
	if !found {
		t.Fatal("/v1/workloads does not list heat")
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Workers != 1 || st.QueueCap != 2 {
		t.Fatalf("stats: %+v", st)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestHTTPBatchStreaming posts a JSON array and checks the NDJSON reply
// preserves request order, interleaves per-request errors inline, and
// keeps streaming after them.
func TestHTTPBatchStreaming(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	batch := `[
		{"tenant":"a","workload":"heat","scale":5},
		{"tenant":"a","workload":"heat","policy":"bogus"},
		{"tenant":"b","workload":"nqueens","scale":5}
	]`
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	var lines []RunResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rr RunResponse
		if err := json.Unmarshal(sc.Bytes(), &rr); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rr)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d NDJSON lines, want 3", len(lines))
	}
	if lines[0].Workload != "heat" || lines[0].Error != "" || lines[0].TimeSec <= 0 {
		t.Fatalf("line 0: %+v", lines[0])
	}
	if lines[1].Error == "" {
		t.Fatalf("line 1 should carry the bad-policy error: %+v", lines[1])
	}
	if lines[2].Workload != "nqueens" || lines[2].Error != "" || lines[2].TimeSec <= 0 {
		t.Fatalf("line 2: %+v", lines[2])
	}
}

// TestOverload saturates a tiny admission queue and asserts the full
// overload contract: shed requests answer 429 with a Retry-After hint,
// the queue's high-water mark stays bounded, every accepted run is
// delivered (zero drops), and the server then drains cleanly.
func TestOverload(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 32
	var ok, shed, other atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// cholesky scale 16 runs ~10ms: long enough that 32 near-
			// simultaneous posts against one worker must overflow depth 2.
			body := fmt.Sprintf(`{"tenant":"t%d","workload":"cholesky","scale":16}`, i%4)
			resp, b := postRun(t, ts.URL, body)
			switch resp.StatusCode {
			case http.StatusOK:
				var rr RunResponse
				if err := json.Unmarshal(b, &rr); err != nil || rr.Error != "" || rr.TimeSec <= 0 {
					t.Errorf("accepted run came back broken: %s", b)
				}
				ok.Add(1)
			case http.StatusTooManyRequests:
				ra := resp.Header.Get("Retry-After")
				if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
					t.Errorf("429 Retry-After %q, want integer >= 1", ra)
				}
				shed.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 429", other.Load())
	}
	if shed.Load() == 0 {
		t.Fatalf("no 429s from %d concurrent posts against a depth-2 queue", n)
	}
	if ok.Load() == 0 {
		t.Fatal("every request was shed; admission never succeeded")
	}

	st := s.Snapshot()
	// Bounded memory: the queue never grew past its configured depth,
	// and accounting balances — accepted == completed (zero drops).
	if st.MaxQueue > st.QueueCap {
		t.Fatalf("queue high-water %d exceeds cap %d", st.MaxQueue, st.QueueCap)
	}
	if st.Shed != shed.Load() {
		t.Fatalf("stats count %d shed, clients saw %d", st.Shed, shed.Load())
	}
	if st.Accepted != ok.Load() || st.Completed != st.Accepted || st.Failed != 0 {
		t.Fatalf("accounting: accepted=%d completed=%d failed=%d, clients got %d OKs",
			st.Accepted, st.Completed, st.Failed, ok.Load())
	}
	// The burst saturated a depth-2 queue, so the overload controller
	// must have engaged degraded mode at least once, and every degraded
	// run maps back to an engagement.
	if st.Degraded > 0 && st.DegradedEngaged == 0 {
		t.Fatalf("%d degraded runs but no recorded engagement", st.Degraded)
	}

	// Fault-injection accounting flows through to the service counters:
	// the overloaded runs were fault-free, so after one faulty run the
	// aggregates equal exactly that run's events, quarantine episodes and
	// readmissions.
	fr, err := s.Do(&RunRequest{Workload: "heat", Faults: "rate=120,seed=9,horizon=1"})
	if err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	if fr.Error != "" || fr.FaultEvents == 0 || fr.Quarantines == 0 {
		t.Fatalf("faulty run injected nothing: %+v", fr)
	}
	if fr.Readmits > fr.Quarantines {
		t.Fatalf("readmits %d exceed quarantines %d", fr.Readmits, fr.Quarantines)
	}
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st2 Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if st2.FaultEvents != uint64(fr.FaultEvents) ||
		st2.Quarantines != uint64(fr.Quarantines) ||
		st2.Readmits != uint64(fr.Readmits) {
		t.Fatalf("stats fault aggregates (%d events, %d quarantines, %d readmits) don't match the run (%d, %d, %d)",
			st2.FaultEvents, st2.Quarantines, st2.Readmits,
			fr.FaultEvents, fr.Quarantines, fr.Readmits)
	}

	// Clean shutdown: drain completes and subsequent admissions get 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after overload: %v", err)
	}
	resp, _ := postRun(t, ts.URL, `{"workload":"heat"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "draining" {
		t.Fatalf("healthz after drain: %+v", h)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
