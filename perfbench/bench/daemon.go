package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Daemon is one running `apss serve -http` process.
type Daemon struct {
	URL  string
	Pid  int
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for

	mu   sync.Mutex
	tail []string // last lines of its stderr, for error reports
}

// StartDaemon execs apss with args (which must listen on an ephemeral
// loopback port) and returns once it prints its listening address.
func StartDaemon(apss string, args ...string) (*Daemon, error) {
	cmd := exec.Command(apss, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &Daemon{Pid: cmd.Process.Pid, cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drains stderr until the process exits, so it never blocks on
		// a full pipe; then reaps it.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "apss serve: http listening on "); ok {
				addr <- a
			}
		}
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.URL = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("apss serve exited before listening: %s", d.Tail())
	case <-time.After(120 * time.Second):
		d.Stop()
		return nil, errors.New("apss serve did not start listening within 120s")
	}
}

// Tail returns the last lines the daemon wrote to stderr.
func (d *Daemon) Tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// Stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within 15s, and returns once it has been reaped.
func (d *Daemon) Stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// newClient returns a keep-alive HTTP client for n concurrent callers.
func newClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// post sends one JSON request and returns the status and whole body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches one URL's body, failing on a non-200 status.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

// Scrape reads the daemon's /metrics exposition into a map keyed by
// the full series name, labels included.
func Scrape(c *http.Client, base string) (map[string]float64, error) {
	b, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// TotalAlloc reads the daemon's cumulative heap allocation in bytes
// from its pprof allocation profile.
func TotalAlloc(c *http.Client, base string) (float64, error) {
	b, err := get(c, base+"/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("pprof allocs: no TotalAlloc line")
}
