package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/workloads"
)

// ServeHTTP routes the service's endpoints:
//
//	POST /v1/run        one run (JSON object) or a batch (JSON array,
//	                    results streamed back as NDJSON in request order)
//	GET  /v1/workloads  registered workloads
//	GET  /v1/stats      server counters
//	GET  /healthz       liveness + drain/degraded state
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/run" && r.Method == http.MethodPost:
		s.handleRun(w, r)
	case r.URL.Path == "/v1/workloads" && r.Method == http.MethodGet:
		s.handleWorkloads(w)
	case r.URL.Path == "/v1/stats" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.Snapshot())
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		s.handleHealth(w)
	case r.URL.Path == "/v1/run" || r.URL.Path == "/v1/workloads" || r.URL.Path == "/v1/stats" || r.URL.Path == "/healthz":
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	default:
		http.NotFound(w, r)
	}
}

// MaxRequestBytes bounds a /v1/run body, single or batch (413; an inline
// error once a batch has read a run). Benchmark bodies are a few kB.
const MaxRequestBytes = 1 << 20

// bodyStatus maps a body read error to 413 (past MaxRequestBytes) or 400.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeJSON encodes one JSON value with its status: the introspection
// endpoints' answers. /v1/run answers through its codec (codec.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleRun admits and answers POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	c := getCodec(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	defer putCodec(c)
	first, err := c.peek()
	if err == io.EOF {
		c.writeError(w, http.StatusBadRequest, "empty request body")
		return
	}
	if err != nil {
		c.writeError(w, bodyStatus(err), "bad request: "+err.Error())
		return
	}
	if first == '[' {
		c.off++
		s.handleBatch(w, c)
		return
	}

	body, err := c.rest()
	var req RunRequest
	if err == nil {
		err = c.dec.request(body, &req)
	}
	if err != nil {
		c.writeError(w, bodyStatus(err), "bad request: "+err.Error())
		return
	}
	j, err := s.prepare(&req)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Single runs shed on overflow: 429 + Retry-After beats an
	// unbounded queue.
	switch err := s.admit(j, false); err {
	case nil:
	case ErrOverloaded:
		s.putJob(j)
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSec()))
		c.writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case ErrDraining:
		s.putJob(j)
		c.writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		s.putJob(j)
		c.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	<-j.done
	c.writeResp(w, http.StatusOK, &j.resp)
	s.putJob(j)
}

// handleBatch streams a JSON array of requests through the pool,
// answering NDJSON in request order. Admission blocks (connection-level
// backpressure) and in-flight memory is bounded by the queue depth: at
// most QueueDepth runs of one batch are outstanding before the oldest
// must complete and its response is flushed. The codec has consumed the
// array's '['.
func (s *Server) handleBatch(w http.ResponseWriter, c *codec) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)

	window := make([]*job, 0, s.cfg.QueueDepth)
	emit := func(j *job) {
		<-j.done
		c.writeLine(w, &j.resp)
		if flusher != nil {
			flusher.Flush()
		}
		s.putJob(j)
	}
	// A rejection is answered inline, so the pending window must flush
	// first to keep responses in request order.
	reject := func(msg string) {
		for _, j := range window {
			emit(j)
		}
		window = window[:0]
		c.writeLine(w, &RunResponse{Error: msg})
		if flusher != nil {
			flusher.Flush()
		}
	}
	for n := 0; ; n++ {
		more, err := c.element(n)
		if err == nil && !more {
			break
		}
		var req RunRequest
		if err == nil {
			var body []byte
			if body, err = c.frame(); err == nil {
				err = c.dec.request(body, &req)
			}
		}
		if err != nil {
			// Nothing answered yet: refuse the batch whole, like one run.
			if status := bodyStatus(err); n == 0 && status != http.StatusBadRequest {
				c.writeError(w, status, "bad request: "+err.Error())
				return
			}
			reject("bad request: " + err.Error())
			break
		}
		j, err := s.prepare(&req)
		if err != nil {
			reject(err.Error())
			continue
		}
		if len(window) == cap(window) {
			emit(window[0])
			copy(window, window[1:])
			window = window[:len(window)-1]
		}
		if err := s.admit(j, true); err != nil {
			s.putJob(j)
			reject(err.Error())
			continue
		}
		window = append(window, j)
	}
	for _, j := range window {
		emit(j)
	}
}

// workloadInfo is one /v1/workloads entry.
type workloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	App         bool   `json:"app"`
}

// handleWorkloads lists the registered workloads.
func (s *Server) handleWorkloads(w http.ResponseWriter) {
	all := workloads.All()
	out := make([]workloadInfo, len(all))
	for i, wl := range all {
		out[i] = workloadInfo{Name: wl.Name, Description: wl.Description, App: wl.App}
	}
	writeJSON(w, http.StatusOK, out)
}

// health is the /healthz body.
type health struct {
	Status   string `json:"status"`
	Degraded bool   `json:"degraded"`
}

// handleHealth reports liveness, drain and degraded state.
func (s *Server) handleHealth(w http.ResponseWriter) {
	st := s.Snapshot()
	h := health{Status: "ok", Degraded: st.InDegraded}
	if st.Draining {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}
