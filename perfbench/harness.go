package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"thinslice/internal/server"
)

// The store caps every workload's server runs with (serve -store-entries
// and -store-bytes); the traced replays bound their stores the same way.
// The entry cap is serve's default, which holds every lowering unit of
// the edit workload's program. The cost cap is below serve's 256 MiB
// default, so cold, edit and check reach it within a short fixed warm-up
// and the heap stays small on a shared host; it still holds every
// artifact of the three P3 programs at once (about 63 MB).
const (
	storeEntries = 256
	storeBytes   = 96 << 20
)

// serverConfig is the configuration every workload's server runs with,
// plus a cache directory for restart.
func serverConfig(cacheDir string) server.Config {
	return server.Config{CacheDir: cacheDir, StoreEntries: storeEntries, StoreBytes: storeBytes}
}

// harness serves a server.Server's handler on a loopback listener and
// talks to it over one keep-alive connection.
type harness struct {
	srv    atomic.Pointer[server.Server]
	hs     *http.Server
	ln     net.Listener
	base   string
	client *http.Client
	served chan struct{}
}

func startHarness(srv *server.Server) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{
		ln:     ln,
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	h.srv.Store(srv)
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.srv.Load().Handler().ServeHTTP(w, r)
	})}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln)
	}()
	return h, nil
}

// swap routes every later request to srv; the connection stays open.
func (h *harness) swap(srv *server.Server) { h.srv.Store(srv) }

// post sends one request and reads the whole response.
func (h *harness) post(path string, body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// stats reads GET /statsz.
func (h *harness) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := h.client.Get(h.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// close stops the listener and waits until the serving goroutine and
// every connection handler have returned.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	_ = h.hs.Close()
	<-h.served
}

// decodeResponse parses a /slice, /batch or /check answer, failing on
// any status but 200 ok.
func decodeResponse(status int, data []byte) (*server.Response, error) {
	var resp server.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("status %d, malformed response: %w", status, err)
	}
	if status != http.StatusOK || resp.Status != "ok" {
		return nil, fmt.Errorf("status %d %s %s: %s", status, resp.Status, resp.Kind, resp.Error)
	}
	return &resp, nil
}

// watchStream is one full-duplex /watch connection over raw TCP: the
// stdlib HTTP/1.1 client holds the response back until the request body
// is complete, which a watch stream never is. Edits go out as chunks;
// events come back as lines of the streamed response.
type watchStream struct {
	conn   net.Conn
	resp   *http.Response
	events *bufio.Scanner
}

// watchTimeout bounds the wait for one event.
const watchTimeout = time.Minute

func dialWatch(addr string, init any) (*watchStream, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &watchStream{conn: conn}
	if _, err := fmt.Fprintf(conn, "POST /watch HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n", addr); err != nil {
		conn.Close()
		return nil, err
	}
	if err := s.send(init); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(watchTimeout))
	resp, err := http.ReadResponse(bufio.NewReader(conn), &http.Request{Method: http.MethodPost})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("reading /watch response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		conn.Close()
		return nil, fmt.Errorf("/watch: status %d", resp.StatusCode)
	}
	s.resp = resp
	s.events = bufio.NewScanner(resp.Body)
	s.events.Buffer(make([]byte, 0, 64<<10), 16<<20)
	return s, nil
}

// send writes one JSON value as one chunk.
func (s *watchStream) send(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.write(b)
}

// write sends an encoded JSON value as one chunk.
func (s *watchStream) write(b []byte) error {
	_, err := fmt.Fprintf(s.conn, "%x\r\n%s\n\r\n", len(b)+1, b)
	return err
}

// next returns the next revision event, skipping heartbeats.
func (s *watchStream) next() (*server.WatchEvent, error) {
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(watchTimeout))
		if !s.events.Scan() {
			err := s.events.Err()
			if err == nil {
				err = errors.New("stream ended")
			}
			return nil, fmt.Errorf("/watch: %w", err)
		}
		var ev server.WatchEvent
		if err := json.Unmarshal(s.events.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("/watch: malformed event: %w", err)
		}
		if ev.Status != "heartbeat" {
			return &ev, nil
		}
	}
}

// close ends the request body and the connection. The raw connection is
// closed first: draining a chunked body would wait for an end a live
// stream never reaches.
func (s *watchStream) close() {
	_, _ = io.WriteString(s.conn, "0\r\n\r\n")
	_ = s.conn.Close()
	_ = s.resp.Body.Close()
}
