package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is a minimal HTTP/1.1 keep-alive client for the server's JSON
// POST endpoints, and the benchmark's only HTTP client. The lanes use
// it instead of net/http's client so the benchmark's own allocations
// and CPU, which share the process and its collector with the server,
// stay small next to the server's.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	head []byte // fixed headers after the request line
	req  []byte
	body []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 16<<10),
		head: []byte("Host: " + addr + "\r\nContent-Type: application/json\r\n")}, nil
}

func (c *conn) close() error { return c.nc.Close() }

// post sends body to path, with the request id header when id >= 0,
// and returns the status and the response body, which stays valid
// until the next call.
func (c *conn) post(path string, body []byte, id int64) (int, []byte, error) {
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\n"...)
	c.req = append(c.req, c.head...)
	if id >= 0 {
		c.req = append(c.req, reqHeader+": "...)
		c.req = strconv.AppendInt(c.req, id, 10)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "Content-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if err := c.nc.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.nc.Write(c.req); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// call posts body to path without a request id and returns the
// response body, which stays valid until the next call. Any status but
// 200 is an error.
func (c *conn) call(path string, body []byte) ([]byte, error) {
	status, resp, err := c.post(path, body, -1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if status != 200 {
		return nil, fmt.Errorf("%s: status %d: %s", path, status, resp)
	}
	return resp, nil
}

func (c *conn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("bad header %q", line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad content length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err := c.readN(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := c.br.Discard(2); err != nil { // chunk CRLF
				return 0, nil, err
			}
			if n == 0 {
				return status, c.body, nil
			}
		}
	case length >= 0:
		if err := c.readN(length); err != nil {
			return 0, nil, err
		}
		return status, c.body, nil
	}
	return 0, nil, fmt.Errorf("response without length")
}

// readN appends the next n body bytes to c.body.
func (c *conn) readN(n int) error {
	start := len(c.body)
	if cap(c.body) < start+n {
		c.body = append(c.body[:start], make([]byte, n)...)
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}
