package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// server is one in-process daemon handler listening on loopback.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the listener and waits for the serve loop to exit.
func (s *server) close() {
	if s == nil {
		return
	}
	s.srv.Close()
	<-s.done
}

// client is the load generator's HTTP client. It keeps one idle
// connection per client goroutine, so requests reuse connections.
var client = &http.Client{
	Timeout:   5 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8},
}

// call issues one request and returns the status code and body.
func call(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches url and decodes a 200 response into v.
func getJSON(ctx context.Context, url string, v any) error {
	code, b, err := call(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// waitHealthy polls url until it answers 200 or ctx ends.
func waitHealthy(ctx context.Context, url string) error {
	for {
		code, _, err := call(ctx, http.MethodGet, url, nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.Join(ctx.Err(), err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// scrape is one snapshot of a daemon's Prometheus text exposition,
// keyed by the series as printed (name plus label set).
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, base string) (scrape, error) {
	code, b, err := call(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %d", base, code)
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the metric name whose label set contains all
// of the given `key="value"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta returns after minus before for one summed metric.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
