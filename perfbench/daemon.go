package main

// Starting, timing and stopping relperfd, and reading its process
// counters from /proc.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// snapshotInterval is the daemon's checkpoint cadence, identical on every
// workload (BENCHMARK.json's workload notes record it too). It is also the
// window throughput_rps is measured over: any window of this length holds
// exactly one checkpoint start, so every window pays for checkpoints alike.
const snapshotInterval = 5 * time.Second

// daemonArgs is the one durability configuration the benchmark runs:
// WAL + snapshot + interval compaction, in data directory dir.
func daemonArgs(dir string, seed uint64) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-seed", strconv.FormatUint(seed, 10),
		"-wal", filepath.Join(dir, walFile),
		"-snapshot", filepath.Join(dir, snapshotFile),
		"-snapshot-interval", snapshotInterval.String(),
	}
}

type daemon struct {
	cmd    *exec.Cmd
	dir    string
	base   string // http://host:port
	setup  time.Duration
	exited chan struct{} // closed once the process has been reaped
	logged chan struct{} // closed once the stderr copy hit EOF
}

var servingRE = regexp.MustCompile(`serving on (\S+) \(`)

// startDaemon execs relperfd on data directory dir and returns once it has
// answered its first 200 on /v1/healthz. setup is the time from exec to
// that answer, recovery included.
func startDaemon(ctx context.Context, bin, dir string, seed uint64, hc *http.Client) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, "relperfd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	logCopy, err := os.Create(filepath.Join(dir, "relperfd.stderr"))
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logCopy.Close()
		return nil, err
	}
	cmd := exec.Command(bin, daemonArgs(dir, seed)...)
	cmd.Stdout = logf
	cmd.Stderr = pw
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		logCopy.Close()
		return nil, fmt.Errorf("starting relperfd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{}), logged: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logged)
		defer pr.Close()
		defer logCopy.Close()
		br := bufio.NewReader(pr)
		for {
			line, err := br.ReadString('\n')
			logCopy.WriteString(line)
			if m := servingRE.FindStringSubmatch(line); m != nil {
				addrCh <- m[1]
				break
			}
			if err != nil {
				close(addrCh)
				return
			}
		}
		io.Copy(logCopy, br)
	}()
	go func() {
		<-d.logged
		cmd.Wait()
		close(d.exited)
	}()
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("relperfd exited before serving; see %s", logCopy.Name())
		}
		addr = a
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("relperfd did not start serving within 60s")
	}
	d.base = "http://" + addr
	for {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("relperfd /v1/healthz not ready within 60s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop asks the daemon to shut down (it writes its shutdown checkpoint)
// and waits; after 30s it is killed.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("relperfd did not shut down within 30s")
	}
	if st := d.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("relperfd exited with %v", st)
	}
	return nil
}

// health is the part of /v1/healthz the benchmark records.
type health struct {
	Workers  int    `json:"workers"`
	Computes uint64 `json:"computes"`
	Build    struct {
		GoVersion   string `json:"go_version"`
		VCSRevision string `json:"vcs_revision"`
		VCSModified bool   `json:"vcs_modified"`
	} `json:"build"`
	Store struct {
		Entries int `json:"entries"`
		Specs   int `json:"specs"`
	} `json:"store"`
}

func (d *daemon) health(hc *http.Client) (health, error) {
	var h health
	resp, err := hc.Get(d.base + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: %s", resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// procStat is the daemon's CPU time and peak resident set.
type procStat struct {
	cpu    time.Duration // utime + stime
	hwmKiB int64         // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; 100 on every
// Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, err
	}
	ps.cpu = time.Duration(ut+st) * clockTick
	b, err = os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb := strings.Fields(rest)
			if len(kb) > 0 {
				ps.hwmKiB, err = strconv.ParseInt(kb[0], 10, 64)
			}
			break
		}
	}
	return ps, err
}

// checkpointPoller counts the daemon's checkpoints by watching the
// snapshot file: every checkpoint renames a fresh file into place.
type checkpointPoller struct {
	stopCh chan struct{}
	count  chan int
}

func startCheckpointPoller(path string) *checkpointPoller {
	p := &checkpointPoller{stopCh: make(chan struct{}), count: make(chan int)}
	inode := func() uint64 {
		fi, err := os.Stat(path)
		if err != nil {
			return 0
		}
		if st, ok := fi.Sys().(*syscall.Stat_t); ok {
			return st.Ino
		}
		return 0
	}
	go func() {
		last, n := inode(), 0
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stopCh:
				p.count <- n
				return
			case <-t.C:
				if ino := inode(); ino != last {
					last = ino
					n++
				}
			}
		}
	}()
	return p
}

// stop ends the polling and returns the checkpoints seen.
func (p *checkpointPoller) stop() int {
	close(p.stopCh)
	return <-p.count
}
