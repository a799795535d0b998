package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"decor/internal/service"
)

// loopback is a service.Server mounted on a loopback listener in the
// benchmark's own process, plus the client that drives it.
type loopback struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startLoopback serves cfg's service on 127.0.0.1 with a keep-alive
// HTTP/1.1 client of at most conns connections.
func startLoopback(cfg service.Config, conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := service.New(cfg)
	lb := &loopback{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		client: newClient(conns),
		served: make(chan error, 1),
	}
	go func() { lb.served <- lb.hs.Serve(ln) }()
	return lb, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// close drains the service (which also ends SSE streams) and then the
// HTTP server, and waits for the serving goroutine to return.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lb.client.CloseIdleConnections()
	lb.srv.Shutdown(ctx)
	if err := lb.hs.Shutdown(ctx); err != nil {
		lb.hs.Close()
	}
	if err := <-lb.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "decor-benchmark: serve:", err)
	}
}

// post sends body to path and reads the whole response into buf.
func (lb *loopback) post(path, contentType, tenant string, body []byte, buf *[]byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, lb.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if tenant != "" {
		req.Header.Set("X-Decor-Tenant", tenant)
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	*buf, err = readAll(resp.Body, (*buf)[:0])
	return resp, err
}

// readAll appends r's contents to b, reusing b's capacity.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return b, nil
			}
			return b, err
		}
	}
}

// scrapeMetric reads one unlabelled series from the service's /metrics.
func (lb *loopback) scrapeMetric(name string) (float64, error) {
	resp, err := lb.client.Get(lb.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}
