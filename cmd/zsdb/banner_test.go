package main

import (
	"bufio"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// beZsdb, set in a child's environment, makes this test binary behave
// as the zsdb binary: TestMain hands its arguments to main.
const beZsdb = "ZSDB_TEST_BE_ZSDB"

func TestMain(m *testing.M) {
	if os.Getenv(beZsdb) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestServeListenBannerIsUnambiguous boots a real `zsdb serve` on port
// 0 with the pprof listener also on port 0 and reads its stderr the way
// the benchmark harness does: exactly one line may end in
// " on <address>", and /healthz must answer at that address. The pprof
// listener announces itself first; worded like the banner, it would be
// taken for the API address.
func TestServeListenBannerIsUnambiguous(t *testing.T) {
	model := filepath.Join(t.TempDir(), "zs.gob")
	zs, err := costmodel.New(costmodel.NameZeroShot, costmodel.Options{Hidden: 8})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := costmodel.Save(f, zs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cmd := exec.Command(os.Args[0], "serve", "-models", model, "-databases", "imdb", "-dbscale", "0.05",
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), beZsdb+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	// The same pattern bench/procs.go learns a child's address with.
	listenLine := regexp.MustCompile(` on (127\.0\.0\.1:\d+)$`)
	var seen, matched []string
	timeout := time.After(60 * time.Second)
	for len(matched) == 0 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("serve exited before announcing its address; stderr:\n%s", strings.Join(seen, "\n"))
			}
			seen = append(seen, line)
			if listenLine.MatchString(line) {
				matched = append(matched, line)
			}
		case <-timeout:
			cmd.Process.Kill()
			t.Fatalf("no listen banner within 60s; stderr:\n%s", strings.Join(seen, "\n"))
		}
	}
	addr := listenLine.FindStringSubmatch(matched[0])[1]
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Errorf("/healthz at the announced address %s: %v", addr, err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz at the announced address %s: status %d", addr, resp.StatusCode)
		}
	}

	cmd.Process.Signal(syscall.SIGTERM)
	for line := range lines { // until the child closes stderr
		seen = append(seen, line)
		if listenLine.MatchString(line) {
			matched = append(matched, line)
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("serve did not exit cleanly on SIGTERM: %v", err)
	}
	if len(matched) != 1 {
		t.Errorf("%d stderr lines end in \" on <address>\", want exactly 1:\n%s", len(matched), strings.Join(matched, "\n"))
	}
	var pprofLine bool
	for _, line := range seen {
		pprofLine = pprofLine || strings.HasPrefix(line, "pprof debug server: http://127.0.0.1:")
	}
	if !pprofLine {
		t.Errorf("no pprof announcement on stderr:\n%s", strings.Join(seen, "\n"))
	}
}
