package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	read := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r) // a short read shows as a failed assertion below
		read <- string(b)
	}()
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	return <-read
}

// TestExperiments walks the experiment table at the smallest settings: the
// paper driver must keep running (no panic, output under its banner)
// without a CI step of its own. Every experiment finishes within two
// seconds here except fig15, whose sweep up to 1900 aggregates has no scale
// flag and compiles for half a minute: it runs without -short only.
func TestExperiments(t *testing.T) {
	*sfFlag, *maxSfFlag, *workers = 0.01, 0.01, 2
	for _, ex := range experiments {
		t.Run(ex.name, func(t *testing.T) {
			if ex.name == "fig15" && testing.Short() {
				t.Skip("compiles 1900-aggregate plans: ~30 s")
			}
			var stderr bytes.Buffer
			var code int
			out := captureStdout(t, func() { code = run(ex.name, &stderr) })
			if code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			banner, body, _ := strings.Cut(out, "\n")
			if !strings.Contains(banner, ex.name) || strings.TrimSpace(body) == "" {
				t.Fatalf("no output under the banner: %q", out)
			}
			if strings.Contains(out, "error:") || strings.Contains(out, "ERR(") {
				t.Fatalf("experiment reported a query error:\n%s", out)
			}
			// Fig. 14 is read beside Fig. 13, so it runs at -workers too.
			if want := fmt.Sprintf(", %d workers ", *workers); ex.name == "fig14" && !strings.Contains(body, want) {
				t.Fatalf("fig14 header does not show %q:\n%s", want, body)
			}
		})
	}
}

// TestUnknownExperiment pins the error path: a name that is not in the
// table runs nothing, lists the valid names on stderr and exits 2.
func TestUnknownExperiment(t *testing.T) {
	for _, name := range []string{"zonemaps", "service", "", "fig"} {
		var stderr bytes.Buffer
		var code int
		out := captureStdout(t, func() { code = run(name, &stderr) })
		if code != 2 || out != "" {
			t.Errorf("-exp %q: exit %d, stdout %q; want 2 and nothing", name, code, out)
		}
		for _, ex := range experiments {
			if !strings.Contains(stderr.String(), ex.name) {
				t.Errorf("-exp %q: stderr %q does not list %s", name, stderr.String(), ex.name)
			}
		}
	}
}
