package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// listener serves one in-process handler on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the listener and its connections and waits for Serve to
// return.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// timed wraps a program handler so that, while a tracer is installed,
// each request it serves is a span. The request's op, client and parent
// span travel in its traceparent header (see traceparent). With no
// tracer installed it only forwards the call.
type timed struct {
	next http.Handler
	name string
	tr   *atomic.Pointer[tracer]
	// hop names the wrapped handler behind this one's proxy hop, if any:
	// its spans are parented to this handler's span for the same op.
	hop string
}

func (h *timed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	op, tid, parent := parseTraceparent(r.Header.Get("traceparent"))
	if id, ok := tr.handlerSpan.Load(spanKey{op: op, name: h.name}); ok {
		parent = id.(int64)
	}
	sp := tr.start(h.name, parent, op, tid)
	if h.hop != "" {
		tr.handlerSpan.Store(spanKey{op: op, name: h.hop}, sp.id)
		defer tr.handlerSpan.Delete(spanKey{op: op, name: h.hop})
	}
	h.next.ServeHTTP(w, r)
	sp.end()
	tr.handlerSpan.Store(spanKey{op: op, name: h.name, served: true}, sp.id)
}

// spanKey finds a handler span of one op: the span of the handler
// serving it now (for the next hop's parent), or, once served, the span
// the client files the program's own spans under.
type spanKey struct {
	op     int64
	name   string
	served bool
}

// traceparent renders the W3C header carrying an op: the trace id holds
// the client index and the op id, the parent id the client's span.
// sampled asks the program's own tracer to record the request.
func traceparent(op int64, tid int, parent int64, sampled bool) string {
	var id [16]byte
	binary.BigEndian.PutUint64(id[:8], uint64(tid)+1)
	binary.BigEndian.PutUint64(id[8:], uint64(op))
	var sp [8]byte
	binary.BigEndian.PutUint64(sp[:], uint64(parent))
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + hex.EncodeToString(id[:]) + "-" + hex.EncodeToString(sp[:]) + "-" + flags
}

// traceID is the trace id string the program's tracer files an op under.
func traceID(op int64, tid int) string {
	return traceparent(op, tid, 1, false)[3:35]
}

func parseTraceparent(h string) (op int64, tid int, parent int64) {
	c, err := obs.ParseTraceparent(h)
	if err != nil {
		return 0, 0, 0
	}
	return int64(binary.BigEndian.Uint64(c.TraceID[8:])), int(binary.BigEndian.Uint64(c.TraceID[:8])) - 1,
		int64(binary.BigEndian.Uint64(c.SpanID[:]))
}

// replica is one in-process oldend behind a loopback listener.
type replica struct {
	srv  *server.Server
	ln   *listener
	hook *timed
}

func newReplica(tr *atomic.Pointer[tracer], hop string) (*replica, error) {
	srv := server.New(server.Config{
		Workers: runtime.NumCPU(),
		// The traced run's sampled requests are read back right after
		// they finish; a larger ring than the default only adds slack.
		Tracer: obs.New(obs.Config{TraceRing: 256}),
	})
	hook := &timed{next: srv.Handler(), name: "server.handler", tr: tr, hop: hop}
	ln, err := listen(hook)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &replica{srv: srv, ln: ln, hook: hook}, nil
}

func (r *replica) close() {
	r.ln.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
}

// newClients returns the closed loop's clients: one connection each.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// reply is one response as the client read it.
type reply struct {
	status int
	digest string // X-Oldend-Trace-Digest
	body   []byte
}

// post sends one request with an optional traceparent and reads the
// whole response.
func post(c *http.Client, url string, body []byte, tp string) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("reading %s response: %w", url, err)
	}
	return reply{status: resp.StatusCode, digest: resp.Header.Get("X-Oldend-Trace-Digest"), body: b}, nil
}

// clientOp is the client side of one traced request: its span, the
// traceparent to send, and after the reply, the program's own span trees
// read back from the tracers that recorded the request.
type clientOp struct {
	tr      *tracer
	sp      openSpan
	op      int64
	tid     int
	sampled bool
}

func startOp(tr *tracer, op int64, tid int, sampled bool) clientOp {
	return clientOp{tr: tr, sp: tr.start("client.op", 0, op, tid), op: op, tid: tid, sampled: sampled}
}

// header is the traceparent the op carries; "" untraced.
func (c clientOp) header() string {
	if c.tr == nil {
		return ""
	}
	return traceparent(c.op, c.tid, c.sp.id, c.sampled)
}

// finish ends the client span and, for a sampled op, files the span
// trees the named program tracers kept for it under the wrapped handler
// span that served it, and returns them.
func (c clientOp) finish(tracers map[string][]*obs.Tracer) []obs.TraceTree {
	if c.tr == nil {
		return nil
	}
	c.sp.end()
	id := traceID(c.op, c.tid)
	var trees []obs.TraceTree
	for handler, ts := range tracers {
		parent, ok := c.tr.handlerSpan.LoadAndDelete(spanKey{op: c.op, name: handler, served: true})
		if !ok || !c.sampled {
			continue
		}
		for _, t := range ts {
			if sp, ok := t.Lookup(id); ok {
				tt := obs.Tree(sp)
				c.tr.addTree(tt, prefixOf(handler), parent.(int64), c.op, c.tid)
				trees = append(trees, tt)
				break
			}
		}
	}
	return trees
}

// prefixOf names the program spans read back under a wrapped handler.
func prefixOf(handler string) string {
	if handler == "cluster.handler" {
		return "oldenrouter:"
	}
	return "oldend:"
}
