package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"hybridstore"
	"hybridstore/internal/server"
)

// lanes is the client count: one closed-loop lane per core of the
// two-core machine the benchmark is sized for, each on its own
// keep-alive connection.
const lanes = 2

// reqHeader carries the request id from a traced client span to the
// handler span. The server never reads it.
const reqHeader = "X-Bench-Req"

// fixtureOptions is loadgen -selfserve's configuration.
func fixtureOptions() hybridstore.Options {
	return hybridstore.Options{ChunkRows: 256, DeviceCache: true,
		ResultCache: hybridstore.ResultCacheOptions{Cap: 64 << 20}}
}

// target is one served store: the DB, its HTTP front end on a loopback
// port, and the session and prepared statements the lanes share.
type target struct {
	db   *hybridstore.DB
	srv  *server.Server
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
	addr string        // host:port of the front end
	sid  string
	stmt [nKinds]int
}

// serve starts the HTTP front end over db, wrapping its handler with
// wrap when non-nil, and prepares one statement per kind sp targets.
func serve(db *hybridstore.DB, sp *spec, wrap func(http.Handler) http.Handler) (*target, error) {
	t := &target{db: db, done: make(chan struct{})}
	t.srv = server.New(server.Config{DB: db, BatchWindow: server.DefaultBatchWindow})
	h := t.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.hs = &http.Server{Handler: h}
	go func() {
		defer close(t.done)
		t.hs.Serve(l)
	}()
	t.addr = l.Addr().String()
	if err := t.handshake(sp); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// handshake opens the session and prepares the statements.
func (t *target) handshake(sp *spec) error {
	c, err := dial(t.addr)
	if err != nil {
		return err
	}
	defer c.close()
	resp, err := c.call("/v1/session", []byte(`{"tenant":"perfbench"}`))
	if err != nil {
		return err
	}
	t.sid = strings.TrimSuffix(strings.TrimPrefix(string(resp), `{"session_id":"`), `"}`)
	for k := kind(0); k < nKinds; k++ {
		if sp.table[k] == "" {
			continue
		}
		spec := fmt.Sprintf(`{"session_id":"%s","op":"%s","table":"%s"`, t.sid, kindOp[k], sp.table[k])
		switch k {
		case kUpdate, kSum:
			spec += fmt.Sprintf(`,"col":%d`, priceCol)
		case kGroup:
			spec += fmt.Sprintf(`,"col":%d,"key_col":%d`, priceCol, groupCol)
		}
		resp, err := c.call("/v1/prepare", []byte(spec+"}"))
		if err != nil {
			return err
		}
		if _, err := fmt.Sscanf(string(resp), `{"stmt_id":%d}`, &t.stmt[k]); err != nil {
			return fmt.Errorf("prepare %s: bad response %q", kindOp[k], resp)
		}
	}
	return nil
}

// close stops the front end and waits for Serve to return.
func (t *target) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := t.hs.Shutdown(ctx); err != nil {
		t.hs.Close()
	}
	<-t.done
}

// lane is one closed-loop client on its own keep-alive connection. It
// keeps its raw latency samples and, when traced, its client spans.
type lane struct {
	id   int
	cn   *conn
	t    *target
	tr   *tracer // nil when untraced
	body []byte
	ld   *load // the measured requests
	// measure is false while warming up: requests are sent and checked
	// but not recorded.
	measure bool
}

// newLanes connects one lane per client connection.
func newLanes(t *target, tr *tracer) ([]*lane, error) {
	ls := make([]*lane, lanes)
	for i := range ls {
		cn, err := dial(t.addr)
		if err != nil {
			for _, l := range ls[:i] {
				l.cn.close()
			}
			return nil, err
		}
		ls[i] = &lane{id: i, cn: cn, t: t, tr: tr, ld: &load{}, measure: true}
	}
	return ls, nil
}

// exec sends o, times it from send until the response is fully read,
// and returns the response body (valid until the next call). Any
// status but 200 is an error.
func (l *lane) exec(o op, rowOf func(int64) uint64) ([]byte, error) {
	l.body = appendBody(l.body[:0], l.t.sid, l.t.stmt[o.kind], o, rowOf)
	id := int64(-1) // no request id header
	if l.tr != nil && l.measure {
		id = l.tr.newReq(l.id)
	}
	t0 := time.Now()
	status, resp, err := l.cn.post("/v1/exec", l.body, id)
	t1 := time.Now()
	if err != nil {
		l.ld.failed++
		return nil, fmt.Errorf("%s: %w", kindOp[o.kind], err)
	}
	if status != 200 {
		l.ld.failed++
		return nil, fmt.Errorf("%s: status %d: %s (request %s)", kindOp[o.kind], status, resp, l.body)
	}
	if !l.measure {
		return resp, nil
	}
	c := o.kind.class()
	l.ld.lat[c] = append(l.ld.lat[c], t1.Sub(t0))
	l.ld.ops++
	if l.tr != nil {
		l.tr.clientSpan(l.id, id, o.kind.class(), t0, t1)
	}
	return resp, nil
}

// expectPrefix checks the shape of an answer that cannot be predicted
// exactly.
func expectPrefix(o op, resp []byte, prefix string) error {
	if !bytes.HasPrefix(resp, []byte(prefix)) || resp[len(resp)-1] != '}' {
		return fmt.Errorf("%s: malformed answer %s", kindOp[o.kind], resp)
	}
	return nil
}

// runLanes runs fn once per lane concurrently and returns the first
// error.
func runLanes(ls []*lane, fn func(l *lane) error) error {
	errs := make(chan error, len(ls))
	for _, l := range ls {
		l := l
		go func() { errs <- fn(l) }()
	}
	var first error
	for range ls {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	for _, l := range ls {
		l.cn.close()
	}
	return first
}

// load is one measured phase's client-side record.
type load struct {
	wall   time.Duration
	ops    int64
	failed int64
	lat    [nClasses]samples
}

// collect merges the lanes' records into one load over wall.
func collect(ls []*lane, wall time.Duration) *load {
	all := &load{}
	for _, l := range ls {
		all.merge(l.ld)
	}
	all.wall = wall
	return all
}

func (ld *load) merge(o *load) {
	ld.wall += o.wall
	ld.ops += o.ops
	ld.failed += o.failed
	for c := range o.lat {
		ld.lat[c] = append(ld.lat[c], o.lat[c]...)
	}
}

func (ld *load) opsPerS() float64 { return float64(ld.ops) / ld.wall.Seconds() }

// reads merges point, sum and group samples.
func (ld *load) reads() samples {
	var s samples
	for _, c := range []class{cPoint, cSum, cGroup} {
		s = append(s, ld.lat[c]...)
	}
	return s
}
