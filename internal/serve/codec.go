package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"

	"repro/internal/cliutil"
	"repro/internal/freelist"
	"repro/internal/wire"
)

// The /v1/run codec. A codec frames the request body into a pooled
// buffer, parses each request in place into a RunRequest, and writes
// each answer byte-identical to json.NewEncoder(w).Encode of the same
// value. codec_ref_test.go keeps encoding/json as the oracle
// (FuzzRunRequest). DESIGN.md "Service architecture" lists the bodies
// the strict parser refuses that encoding/json accepted.

// codecs keeps one idle codec per processor. A request that grows its
// codec's buffers past codecKeep bytes drops it rather than pinning them.
var codecs = freelist.New[*codec](runtime.GOMAXPROCS(0), codecKeep)

const codecKeep = 64 << 10

// codec is one request's reader, parser and writer.
type codec struct {
	rd  io.Reader
	buf []byte // the body read so far; buf[off:] is not consumed yet
	off int
	err error // the read error that ended the body (io.EOF at its end)
	dec reqDecoder
	out []byte // the answer being written
}

// getCodec returns an idle or new codec reading the body rd.
func getCodec(rd io.Reader) *codec {
	c, ok := codecs.Get()
	if !ok {
		c = &codec{buf: make([]byte, 0, 4<<10)}
	}
	c.rd, c.buf, c.off, c.err = rd, c.buf[:0], 0, nil
	return c
}

// putCodec returns c to codecs.
func putCodec(c *codec) {
	c.rd = nil
	codecs.Put(c, cap(c.buf)+cap(c.out))
}

// fill reads more of the body into buf, first moving the unconsumed
// bytes to its front. It reports false once the body has ended.
func (c *codec) fill() bool {
	if c.err != nil {
		return false
	}
	if c.off > 0 {
		c.buf = c.buf[:copy(c.buf, c.buf[c.off:])]
		c.off = 0
	}
	if len(c.buf) == cap(c.buf) {
		c.buf = slices.Grow(c.buf, cap(c.buf))
	}
	n, err := c.rd.Read(c.buf[len(c.buf):cap(c.buf)])
	c.buf = c.buf[:len(c.buf)+n]
	c.err = err
	return true
}

// peek skips whitespace and returns the next byte without consuming it,
// or the error that ended the body (io.EOF at a clean end).
func (c *codec) peek() (byte, error) {
	for {
		for ; c.off < len(c.buf); c.off++ {
			switch b := c.buf[c.off]; b {
			case ' ', '\t', '\r', '\n':
			default:
				return b, nil
			}
		}
		if !c.fill() {
			return 0, c.err
		}
	}
}

// rest reads and consumes the rest of the body.
func (c *codec) rest() ([]byte, error) {
	for c.fill() {
	}
	if c.err != io.EOF {
		return nil, c.err
	}
	b := c.buf[c.off:]
	c.off = len(c.buf)
	return b, nil
}

// frame consumes the JSON object at the head of the body (peek has
// found its '{') and returns its bytes. It matches brackets outside
// strings and nothing more: the parser checks the rest.
func (c *codec) frame() ([]byte, error) {
	depth, inStr, esc := 0, false, false
	for k := 0; ; k++ {
		for c.off+k == len(c.buf) {
			if !c.fill() {
				if c.err == io.EOF {
					return nil, io.ErrUnexpectedEOF
				}
				return nil, c.err
			}
		}
		switch b := c.buf[c.off+k]; {
		case inStr:
			switch {
			case esc:
				esc = false
			case b == '\\':
				esc = true
			case b == '"':
				inStr = false
			}
		case b == '"':
			inStr = true
		case b == '{' || b == '[':
			depth++
		case b == '}' || b == ']':
			if depth--; depth == 0 {
				obj := c.buf[c.off : c.off+k+1]
				c.off += k + 1
				return obj, nil
			}
		}
	}
}

// element moves to a batch's next request, consuming the ',' before
// every one but the first (n == 0). It reports false at the closing ']'
// and at the end of the body: a batch may end without its ']', as it
// could under encoding/json's Decoder.More.
func (c *codec) element(n int) (bool, error) {
	b, err := c.peek()
	switch {
	case err == io.EOF:
		return false, nil
	case err != nil:
		return false, err
	case b == ']':
		c.off++
		return false, nil
	case n > 0:
		if b != ',' {
			return false, fmt.Errorf("want ',' or ']' after request %d, got %q", n, b)
		}
		c.off++
		if b, err = c.peek(); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return false, err
		}
	}
	if b != '{' {
		return false, fmt.Errorf("request %d: want an object, got %q", n+1, b)
	}
	return true, nil
}

// writeResp answers one run with its status.
func (c *codec) writeResp(w http.ResponseWriter, status int, resp *RunResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	c.writeLine(w, resp)
}

// writeLine writes one response line. A non-finite float writes nothing,
// as json.Encoder.Encode writes nothing then. Here and in writeError a
// failed write means the client has gone, and nobody is left to tell.
func (c *codec) writeLine(w io.Writer, resp *RunResponse) {
	var err error
	if c.out, err = AppendResponse(c.out[:0], resp); err == nil {
		_, _ = w.Write(c.out)
	}
}

// writeError answers a refused request with its status and an error
// body, {"error":msg}.
func (c *codec) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	c.out = appendError(c.out[:0], msg)
	_, _ = w.Write(c.out)
}

// DecodeRequest parses one /v1/run request body into *req, which should
// be zero. A body it accepts decodes exactly as json.Unmarshal decodes
// it. It is strict where encoding/json is lenient: it refuses unknown,
// case-folded and duplicate keys, null (except for an objects, tasks or
// accesses array, where json.Marshal writes it for a nil slice) and
// anything after the request but whitespace.
func DecodeRequest(body []byte, req *RunRequest) error {
	c := getCodec(nil)
	err := c.dec.request(body, req)
	putCodec(c)
	return err
}

// reqDecoder parses requests in place. Its names table interns short
// strings, which repeat across requests.
type reqDecoder struct {
	wire.Lexer
	names [64]string
}

// request parses b, one request with optional whitespace around it.
func (d *reqDecoder) request(b []byte, req *RunRequest) error {
	d.Reset(b)
	defer d.Reset(nil) // a pooled decoder keeps no body alive
	d.Space()
	if err := d.runRequest(req); err != nil {
		return err
	}
	if d.Space(); d.I != len(d.B) {
		return d.Syntax("the end of the request")
	}
	return nil
}

// array parses a JSON array into *p, each element with elem; null
// leaves *p nil, and [] makes it empty but not nil, as in encoding/json.
func array[T any](d *reqDecoder, p *[]T, name string, elem func(*reqDecoder, *T) error) error {
	if d.Null() {
		return nil
	}
	if !d.Eat('[') {
		return d.Syntax("an array")
	}
	s := []T{}
	for n := 0; ; n++ {
		if d.Space(); d.Eat(']') {
			*p = s
			return nil
		}
		if n > 0 {
			if !d.Eat(',') {
				return d.Syntax("',' or ']'")
			}
			d.Space()
		}
		s = append(s, *new(T))
		if err := elem(d, &s[n]); err != nil {
			return fmt.Errorf("%s %d: %w", name, n, err)
		}
	}
}

func (d *reqDecoder) runRequest(req *RunRequest) error {
	return d.Object(func(key []byte) (uint32, error) {
		switch string(key) {
		case "tenant":
			return 1 << 0, d.str(&req.Tenant)
		case "workload":
			return 1 << 1, d.str(&req.Workload)
		case "graph":
			req.Graph = new(GraphSpec)
			return 1 << 2, d.graph(req.Graph)
		case "scale":
			return 1 << 3, wire.Int(&d.Lexer, &req.Scale)
		case "policy":
			return 1 << 4, d.str(&req.Policy)
		case "scheduler":
			return 1 << 5, d.str(&req.Scheduler)
		case "machine":
			return 1 << 6, d.machine(&req.Machine)
		case "workers":
			return 1 << 7, wire.Int(&d.Lexer, &req.Workers)
		case "lookahead":
			return 1 << 8, wire.Int(&d.Lexer, &req.Lookahead)
		case "faults":
			return 1 << 9, d.str(&req.Faults)
		case "feedback":
			return 1 << 10, d.str(&req.Feedback)
		case "no_calibrate":
			return 1 << 11, d.Bool(&req.NoCalibrate)
		case "trace":
			return 1 << 12, d.Bool(&req.Trace)
		}
		return 0, nil
	})
}

func (d *reqDecoder) machine(m *cliutil.MachineSpec) error {
	return d.Object(func(key []byte) (uint32, error) {
		switch string(key) {
		case "nvm":
			return 1 << 0, d.str(&m.NVM)
		case "dram_mb":
			return 1 << 1, wire.Int(&d.Lexer, &m.DRAMMB)
		case "cxl_mb":
			return 1 << 2, wire.Int(&d.Lexer, &m.CXLMB)
		}
		return 0, nil
	})
}

func (d *reqDecoder) graph(g *GraphSpec) error {
	return d.Object(func(key []byte) (uint32, error) {
		switch string(key) {
		case "name":
			return 1 << 0, d.str(&g.Name)
		case "objects":
			return 1 << 1, array(d, &g.Objects, "object", (*reqDecoder).objectSpec)
		case "tasks":
			return 1 << 2, array(d, &g.Tasks, "task", (*reqDecoder).taskSpec)
		}
		return 0, nil
	})
}

func (d *reqDecoder) objectSpec(o *ObjectSpec) error {
	return d.Object(func(key []byte) (uint32, error) {
		switch string(key) {
		case "name":
			return 1 << 0, d.str(&o.Name)
		case "size":
			return 1 << 1, wire.Int(&d.Lexer, &o.Size)
		case "no_chunk":
			return 1 << 2, d.Bool(&o.NoChunk)
		}
		return 0, nil
	})
}

func (d *reqDecoder) taskSpec(t *TaskSpec) error {
	return d.Object(func(key []byte) (uint32, error) {
		switch string(key) {
		case "kind":
			return 1 << 0, d.str(&t.Kind)
		case "cpu_sec":
			return 1 << 1, d.Float(&t.CPUSec)
		case "accesses":
			return 1 << 2, array(d, &t.Accesses, "access", (*reqDecoder).accessSpec)
		}
		return 0, nil
	})
}

func (d *reqDecoder) accessSpec(a *AccessSpec) error {
	return d.Object(func(key []byte) (uint32, error) {
		switch string(key) {
		case "obj":
			return 1 << 0, wire.Int(&d.Lexer, &a.Obj)
		case "mode":
			return 1 << 1, d.str(&a.Mode)
		case "loads":
			return 1 << 2, wire.Int(&d.Lexer, &a.Loads)
		case "stores":
			return 1 << 3, wire.Int(&d.Lexer, &a.Stores)
		case "mlp":
			return 1 << 4, d.Float(&a.MLP)
		}
		return 0, nil
	})
}

// str decodes a string into *p, interning it when short.
func (d *reqDecoder) str(p *string) error {
	b, err := d.Str()
	if err != nil {
		return err
	}
	if len(b) > 32 {
		*p = string(b)
		return nil
	}
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.names[h%uint32(len(d.names))]
	if *slot != string(b) {
		*slot = string(b)
	}
	*p = *slot
	return nil
}

// errNotFinite is AppendResponse's error for a NaN or infinite float,
// which JSON cannot carry.
var errNotFinite = errors.New("serve: response has a non-finite float")

// AppendResponse appends resp as one JSON line, byte-identical to what
// json.NewEncoder(w).Encode(resp) writes. A NaN or infinite float is an
// error, as it is there.
func AppendResponse(b []byte, r *RunResponse) ([]byte, error) {
	for _, x := range [...]float64{r.TimeSec, r.EnergyJ, r.WaitMS, r.RunMS} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return b, errNotFinite
		}
	}
	b = strconv.AppendUint(append(b, `{"id":`...), r.ID, 10)
	b = appendStr(b, `,"tenant":`, r.Tenant, true)
	b = appendStr(b, `,"workload":`, r.Workload, false)
	b = appendStr(b, `,"policy":`, r.Policy, true)
	b = appendStr(b, `,"machine":`, r.Machine, true)
	b = wire.AppendFloat(append(b, `,"time_sec":`...), r.TimeSec)
	b = appendInt(b, `,"tasks":`, int64(r.Tasks), false)
	b = appendInt(b, `,"migrations":`, int64(r.Migrations), false)
	b = appendInt(b, `,"bytes_moved":`, r.BytesMoved, false)
	b = appendInt(b, `,"replans":`, int64(r.Replans), false)
	b = appendStr(b, `,"plan_kind":`, r.PlanKind, true)
	b = wire.AppendFloat(append(b, `,"energy_j":`...), r.EnergyJ)
	b = appendInt(b, `,"fault_events":`, int64(r.FaultEvents), true)
	b = appendInt(b, `,"quarantines":`, int64(r.Quarantines), true)
	b = appendInt(b, `,"readmits":`, int64(r.Readmits), true)
	b = appendInt(b, `,"feedback_corrections":`, int64(r.FeedbackCorrections), true)
	b = appendInt(b, `,"feedback_replans":`, int64(r.FeedbackReplans), true)
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = appendInt(b, `,"trace_events":`, int64(r.TraceEvents), true)
	b = appendStr(b, `,"trace_sha256":`, r.TraceSHA256, true)
	b = wire.AppendFloat(append(b, `,"wait_ms":`...), r.WaitMS)
	b = wire.AppendFloat(append(b, `,"run_ms":`...), r.RunMS)
	b = appendStr(b, `,"error":`, r.Error, true)
	return append(b, "}\n"...), nil
}

// appendError appends the error body {"error":msg} as one line.
func appendError(b []byte, msg string) []byte {
	return append(wire.AppendString(append(b, `{"error":`...), msg), "}\n"...)
}

// appendStr appends key and s, or nothing when s is empty and omitted.
func appendStr(b []byte, key, s string, omitEmpty bool) []byte {
	if omitEmpty && s == "" {
		return b
	}
	return wire.AppendString(append(b, key...), s)
}

// appendInt appends key and n, or nothing when n is zero and omitted.
func appendInt(b []byte, key string, n int64, omitEmpty bool) []byte {
	if omitEmpty && n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}
