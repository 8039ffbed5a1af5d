package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer guards a bytes.Buffer the watch goroutine writes while
// the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls the buffer until the substring appears.
func waitFor(t *testing.T, buf *syncBuffer, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(buf.String(), substr) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("output never contained %q:\n%s", substr, buf.String())
}

// TestWatchCLIIncremental drives the watch subcommand end to end: the
// cold revision and an on-disk single-method edit each print one full
// points-to solve and one full SDG build, and undoing the edit is
// answered from the store, before the loop exits via -max-revs.
func TestWatchCLIIncremental(t *testing.T) {
	dir := t.TempDir()
	alpha := filepath.Join(dir, "alpha.mj")
	mainf := filepath.Join(dir, "main.mj")
	alphaSrc := "class Alpha {\n    int val;\n    void set(int v) { this.val = v; }\n    int get() { return this.val; }\n    int bump(int x) { return x + 1; }\n}\n"
	if err := os.WriteFile(alpha, []byte(alphaSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mainf, []byte("class Main {\n    static void main() {\n        Alpha a = new Alpha();\n        a.set(3);\n        int x = a.bump(a.get());\n        print(x);\n    }\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"watch", "-seed", mainf + ":6", "-interval", "10ms", "-max-revs", "3", alpha, mainf,
		}, &out, &errOut)
	}()

	waitFor(t, &out, "rev 0 (cold build)")
	if err := os.WriteFile(alpha, []byte(strings.Replace(alphaSrc, "x + 1", "x + 2", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, &out, "rev 1 (")
	if err := os.WriteFile(alpha, []byte(alphaSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	select {
	case c := <-code:
		if c != exitOK {
			t.Fatalf("watch exited %d\nstdout:\n%s\nstderr:\n%s", c, out.String(), errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("watch did not exit after the edits\nstdout:\n%s", out.String())
	}

	got := out.String()
	for _, want := range []string{
		"rev 0 (cold build): full solve, full SDG in ",
		"rev 1 (" + alpha + "): full solve, full SDG in ",
		"rev 2 (" + alpha + "): everything cached in ",
		"thin slice of " + mainf + ":6:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
