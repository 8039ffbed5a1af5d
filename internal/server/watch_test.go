package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

const watchAlpha = `class Alpha {
    int val;
    void set(int v) { this.val = v; }
    int get() { return this.val; }
    int bump(int x) { return x + 1; }
}
`

const watchAlphaEdited = `class Alpha {
    int val;
    void set(int v) { this.val = v; }
    int get() { return this.val; }
    int bump(int x) { return x + 2; }
}
`

const watchAlphaBroken = `class Alpha {
    int val;
    void set(int v) { this.val = v; }
    int get() { return this.val; }
    int bump(int x) { return x + ; }
}
`

const watchMain = `class Main {
    static void main() {
        Alpha a = new Alpha();
        a.set(3);
        int x = a.bump(a.get());
        print(x);
    }
}
`

// watchClient drives one full-duplex /watch stream over a raw TCP
// connection (the stdlib HTTP/1.1 client is half-duplex: it holds the
// response back until the request body is fully written, which is
// exactly what a watch stream never does). Edits go down the wire as
// chunked-encoding chunks; events come back off the streamed response
// body.
type watchClient struct {
	t      *testing.T
	conn   net.Conn
	resp   *http.Response
	events *bufio.Scanner
}

func dialWatch(t *testing.T, tsURL string, init any) *watchClient {
	t.Helper()
	u, err := url.Parse(tsURL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /watch HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n", u.Host)
	c := &watchClient{t: t, conn: conn}
	c.sendJSON(init)
	resp, err := http.ReadResponse(bufio.NewReader(conn), &http.Request{Method: http.MethodPost})
	if err != nil {
		t.Fatalf("reading watch response: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	c.resp = resp
	c.events = sc
	// Close the raw connection first: Body.Close on a chunked body
	// drains to EOF, which a live stream never reaches.
	t.Cleanup(func() {
		_ = conn.Close()
		_ = resp.Body.Close()
	})
	return c
}

// sendJSON writes one JSON value as one HTTP chunk.
func (c *watchClient) sendJSON(v any) {
	c.t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		c.t.Fatal(err)
	}
	b = append(b, '\n')
	if _, err := fmt.Fprintf(c.conn, "%x\r\n%s\r\n", len(b), b); err != nil {
		c.t.Fatalf("sending edit: %v", err)
	}
}

func (c *watchClient) send(edit WatchEdit) { c.sendJSON(edit) }

// closeSend ends the request body (terminal chunk): the server sees
// EOF and closes the stream.
func (c *watchClient) closeSend() {
	if _, err := io.WriteString(c.conn, "0\r\n\r\n"); err != nil {
		c.t.Fatalf("closing send side: %v", err)
	}
}

func (c *watchClient) next() WatchEvent {
	c.t.Helper()
	if !c.events.Scan() {
		c.t.Fatalf("watch stream ended early: %v", c.events.Err())
	}
	var ev WatchEvent
	if err := json.Unmarshal(c.events.Bytes(), &ev); err != nil {
		c.t.Fatalf("malformed event %q: %v", c.events.Text(), err)
	}
	return ev
}

// TestWatchStreamIncrementalEdits is the end-to-end watch gate: a
// stream over a multi-file program answers the initial revision and a
// single-method edit each with one points-to solve and one SDG build,
// survives a revision that does not parse, and answers the fix, whose
// content it has already built, with neither.
func TestWatchStreamIncrementalEdits(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	// Cleanup, not defer: dialWatch registers the connection close as a
	// cleanup, and ts.Close blocks until the stream's connection dies.
	t.Cleanup(ts.Close)

	c := dialWatch(t, ts.URL, map[string]any{
		"sources": map[string]string{"alpha.mj": watchAlpha, "main.mj": watchMain},
		"seed":    "main.mj:6",
	})
	if ct := c.resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	cold := c.next()
	if cold.Rev != 0 || cold.Status != "ok" {
		t.Fatalf("cold revision: %+v", cold)
	}
	if len(cold.Slices) != 1 || cold.Slices[0].Statements == 0 {
		t.Fatalf("cold revision produced no slice: %+v", cold.Slices)
	}
	if inc := cold.Incremental; inc == nil || *inc != (WatchIncremental{FullSolves: 1, FullSDGs: 1}) {
		t.Fatalf("cold revision counters: %+v", cold.Incremental)
	}

	// One-line body edit: the warm revision rebuilds points-to and the
	// SDG once each.
	c.send(WatchEdit{Update: map[string]string{"alpha.mj": watchAlphaEdited}})
	warm := c.next()
	if warm.Rev != 1 || warm.Status != "ok" {
		t.Fatalf("warm revision: %+v", warm)
	}
	if len(warm.Slices) != 1 || warm.Slices[0].Statements == 0 {
		t.Fatalf("warm revision produced no slice: %+v", warm.Slices)
	}
	if inc := warm.Incremental; inc == nil || *inc != (WatchIncremental{FullSolves: 1, FullSDGs: 1}) {
		t.Errorf("warm revision counters: %+v, want one full solve and one full SDG", warm.Incremental)
	}

	// A half-typed revision: the stream reports the program error and
	// keeps going.
	c.send(WatchEdit{Update: map[string]string{"alpha.mj": watchAlphaBroken}})
	broken := c.next()
	if broken.Rev != 2 || broken.Status != "error" || broken.Kind != "program_error" {
		t.Fatalf("broken revision: %+v", broken)
	}

	// The fix restores service; the edit is identical to revision 1's
	// content, so the whole pipeline is a cache hit.
	c.send(WatchEdit{Update: map[string]string{"alpha.mj": watchAlphaEdited}})
	fixed := c.next()
	if fixed.Rev != 3 || fixed.Status != "ok" || len(fixed.Slices) != 1 {
		t.Fatalf("fixed revision: %+v", fixed)
	}
	if fi := fixed.Incremental; fi == nil || *fi != (WatchIncremental{}) {
		t.Errorf("fixed revision re-derived artifacts despite identical content: %+v", fixed.Incremental)
	}
}

// TestWatchKeepsSeedsAfterRefusedSeedsEdit: an edit whose seed list does
// not parse is answered bad_request and leaves the stream on the seeds
// it had, so the next revision still slices them.
func TestWatchKeepsSeedsAfterRefusedSeedsEdit(t *testing.T) {
	srv := mustNew(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	c := dialWatch(t, ts.URL, Request{
		Sources: map[string]string{"alpha.mj": watchAlpha, "main.mj": watchMain},
		Seeds:   []string{"main.mj:6"},
	})
	if ev := c.next(); ev.Rev != 0 || ev.Status != "ok" || len(ev.Slices) != 1 {
		t.Fatalf("rev 0: %+v", ev)
	}
	c.send(WatchEdit{Seeds: []string{"bogus"}})
	if ev := c.next(); ev.Rev != 1 || ev.Status != "error" || ev.Kind != "bad_request" {
		t.Fatalf("refused seeds edit: %+v", ev)
	}
	c.send(WatchEdit{Update: map[string]string{"alpha.mj": watchAlphaEdited}})
	if ev := c.next(); ev.Rev != 2 || ev.Status != "ok" || len(ev.Slices) != 1 || ev.Slices[0].Statements == 0 {
		t.Fatalf("revision after a refused seeds edit lost its seeds: %+v", ev)
	}
}

// TestWatchRejectsBadInit pins the non-stream error paths: bad method,
// malformed init, and missing sources all answer with the typed JSON
// error shape, not a stream.
func TestWatchRejectsBadInit(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /watch: %d", resp.StatusCode)
	}

	for name, body := range map[string]string{
		"malformed":  "{not json",
		"no sources": `{"seed":"a.mj:1"}`,
		"no seed":    `{"sources":{"a.mj":"class A {}"}}`,
	} {
		resp, err := http.Post(ts.URL+"/watch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var r Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatalf("%s: undecodable response: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || r.Kind != "bad_request" {
			t.Fatalf("%s: got status %d kind %q", name, resp.StatusCode, r.Kind)
		}
	}
}

// TestWatchClosesOnClientEOF pins stream shutdown: closing the request
// body ends the handler promptly (no goroutine parked on a dead
// connection).
func TestWatchClosesOnClientEOF(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	c := dialWatch(t, ts.URL, map[string]any{
		"sources": map[string]string{"alpha.mj": watchAlpha, "main.mj": watchMain},
		"seed":    "main.mj:6",
	})
	if ev := c.next(); ev.Status != "ok" {
		t.Fatalf("cold revision: %+v", ev)
	}
	c.closeSend()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c.events.Scan() {
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not close after client EOF")
	}
}

// TestWatchHeartbeatAndIdleTimeout drives a silent client: it opens a
// stream, reads revision 0, and then never sends another byte. The
// server must keep proving liveness with heartbeat events, eventually
// end the stream with a typed idle-timeout error event, and — the real
// point — release the stream slot so a dead client cannot pin one of
// the 32 forever.
func TestWatchHeartbeatAndIdleTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.WatchHeartbeat = 50 * time.Millisecond
	cfg.WatchIdleTimeout = 400 * time.Millisecond
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := watchStreams.Load()
	c := dialWatch(t, ts.URL, Request{
		Sources: map[string]string{"alpha.mj": watchAlpha, "main.mj": watchMain},
		Seeds:   []string{"main.mj:6"},
	})
	if ev := c.next(); ev.Rev != 0 || ev.Status != "ok" {
		t.Fatalf("rev 0: %+v", ev)
	}
	if got := watchStreams.Load(); got != before+1 {
		t.Fatalf("stream slot not held: %d, want %d", got, before+1)
	}

	// Stay silent. The server heartbeats until the idle timer fires,
	// then ends the stream with a typed error event.
	heartbeats := 0
	var last WatchEvent
	for {
		if !c.events.Scan() {
			t.Fatalf("stream ended without an idle-timeout event (heartbeats seen: %d): %v", heartbeats, c.events.Err())
		}
		var ev WatchEvent
		if err := json.Unmarshal(c.events.Bytes(), &ev); err != nil {
			t.Fatalf("malformed event %q: %v", c.events.Text(), err)
		}
		if ev.Status == "heartbeat" {
			heartbeats++
			if ev.Rev != 0 {
				t.Fatalf("heartbeat carries wrong rev: %+v", ev)
			}
			continue
		}
		last = ev
		break
	}
	if heartbeats < 2 {
		t.Fatalf("saw %d heartbeats before idle timeout, want ≥ 2", heartbeats)
	}
	if last.Status != "error" || last.Kind != "deadline" || !strings.Contains(last.Error, "idle") {
		t.Fatalf("final event is not a typed idle timeout: %+v", last)
	}
	// The stream is over: the scanner reaches EOF and the slot frees.
	for c.events.Scan() {
		t.Fatalf("unexpected event after idle timeout: %s", c.events.Text())
	}
	deadline := time.Now().Add(5 * time.Second)
	for watchStreams.Load() != before {
		if time.Now().After(deadline) {
			t.Fatalf("stream slot never released: %d held", watchStreams.Load()-before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchHeartbeatDetectsDeadClient kills the TCP connection without
// closing the stream; the next heartbeat write fails and the slot
// frees long before the idle timeout would fire.
func TestWatchHeartbeatDetectsDeadClient(t *testing.T) {
	cfg := testConfig()
	cfg.WatchHeartbeat = 50 * time.Millisecond
	cfg.WatchIdleTimeout = time.Hour // only heartbeats can reap it
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := watchStreams.Load()
	c := dialWatch(t, ts.URL, Request{
		Sources: map[string]string{"alpha.mj": watchAlpha, "main.mj": watchMain},
		Seeds:   []string{"main.mj:6"},
	})
	if ev := c.next(); ev.Rev != 0 || ev.Status != "ok" {
		t.Fatalf("rev 0: %+v", ev)
	}
	// Hard-close the socket: the client is gone, silently.
	c.conn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for watchStreams.Load() != before {
		if time.Now().After(deadline) {
			t.Fatalf("dead client still pins a stream slot after 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
