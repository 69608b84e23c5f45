package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one running dssmemd and the single closed-loop client
// that talks to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	start  time.Time
	stderr bytes.Buffer
	// recovery is start -> first healthy /v1/healthz answer: WAL replay
	// and cache mounting happen before the listener opens.
	recovery time.Duration
}

// primeInfo is what the cold priming jobs established: the reference
// digest and the simulated cycles behind each spec's report, and how
// long each cold job took.
type primeInfo struct {
	digests []string
	cycles  []float64
	coldSec []float64
}

// daemonTimings are the client-side timings of one daemon pass.
type daemonTimings struct {
	jobMS      []float64
	recoveryMS float64
	drainMS    float64
	httpUS     float64
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches dssmemd over the three state directories under
// state and waits until it answers. Only the address and the
// directories are passed: every tuning flag keeps its default.
func (h *harness) startDaemon(st *staged, state string, parent int) (*daemon, error) {
	id := h.spans.begin("dssmemd.start", parent)
	defer h.spans.end(id)
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{base: "http://" + addr, client: &http.Client{Timeout: 2 * time.Minute}}
	d.cmd = exec.Command(filepath.Join(st.bin, "dssmemd"), "-addr", addr,
		"-cache-dir", filepath.Join(state, "cache"),
		"-trace-dir", filepath.Join(state, "trace"),
		"-wal-dir", filepath.Join(state, "wal"))
	d.cmd.Env = h.childEnv()
	d.cmd.Stderr = &d.stderr
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			d.cmd.Wait()
			return nil, fmt.Errorf("dssmemd did not become healthy: %s", tail(d.stderr.Bytes(), 400))
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.recovery = time.Since(d.start)
	return d, nil
}

// stop sends SIGTERM and waits for the daemon to drain and exit. wall
// is start to exit, drain SIGTERM to exit.
func (d *daemon) stop() (wall, drain time.Duration, r childRun, err error) {
	t0 := time.Now()
	d.client.CloseIdleConnections()
	if err = d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	werr := d.cmd.Wait()
	now := time.Now()
	r.cpu, r.rssKB = usage(d.cmd.ProcessState)
	if err == nil && werr != nil {
		err = fmt.Errorf("dssmemd exit: %w: %s", werr, tail(d.stderr.Bytes(), 400))
	}
	return now.Sub(d.start), now.Sub(t0), r, err
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, tail(body, 200))
	}
	return body, nil
}

// job is one submission as a user makes it: POST the spec, follow the
// event stream until the job is terminal, fetch the report.
func (d *daemon) job(spec []byte) (string, error) {
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, tail(body, 200))
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.JobID == "" {
		return "", fmt.Errorf("POST /v1/jobs: no job id in %q", tail(body, 200))
	}

	resp, err = d.client.Get(d.base + "/v1/jobs/" + sub.JobID + "/events")
	if err != nil {
		return "", err
	}
	state, err := terminalState(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", fmt.Errorf("job %s events: %w", sub.JobID, err)
	}
	if state != "done" {
		return "", fmt.Errorf("job %s ended %q", sub.JobID, state)
	}

	body, err = d.get("/v1/jobs/" + sub.JobID + "/report")
	if err != nil {
		return "", err
	}
	var rep struct {
		Report string `json:"report"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return "", fmt.Errorf("job %s report: %w", sub.JobID, err)
	}
	return rep.Report, nil
}

// terminalState reads a server-sent event stream to its end and
// returns the state the job's "state" event carried.
func terminalState(r io.Reader) (string, error) {
	state := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	kind := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && kind == "state":
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return "", err
			}
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if state == "" {
		return "", fmt.Errorf("stream ended without a state event")
	}
	return state, nil
}

func (d *daemon) metrics() (counters, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body)
}

const cyclesCounter = "dssmem_experiment_simulated_cycles_total"

// primeDaemon fills a fresh state directory by running each spec cold,
// in order, through the daemon: the line spec captures and replays, the
// cache spec's replays stream the stored trace blobs.
func (h *harness) primeDaemon(st *staged, parent int) (primeInfo, error) {
	id := h.spans.begin("setup.prime", parent)
	defer h.spans.end(id)
	var info primeInfo
	for _, sub := range []string{"cache", "trace", "wal"} {
		if err := os.MkdirAll(filepath.Join(st.primed, sub), 0o755); err != nil {
			return info, err
		}
	}
	d, err := h.startDaemon(st, st.primed, id)
	if err != nil {
		return info, err
	}
	var jobErr error
	var seen float64
	for i, s := range st.specs {
		jid := h.spans.begin("cluster.cold_job "+s.Name, id)
		t0 := time.Now()
		rep, err := d.job(s.Body)
		info.coldSec = append(info.coldSec, time.Since(t0).Seconds())
		h.spans.end(jid)
		if err != nil {
			jobErr = fmt.Errorf("cold job %d: %w", i, err)
			break
		}
		m, err := d.metrics()
		if err != nil {
			jobErr = err
			break
		}
		total := m.get(cyclesCounter)
		info.cycles = append(info.cycles, total-seen)
		seen = total
		info.digests = append(info.digests, digest([]byte(rep)))
	}
	if _, _, _, err := d.stop(); err != nil && jobErr == nil {
		jobErr = err
	}
	return info, jobErr
}

// daemonPass copies the primed state, starts the daemon on the copy
// (WAL recovery, disk-tier cache), resubmits the specs K times in
// alternation from one closed-loop client, and stops the daemon. With
// scrape set it reads /metrics before the SIGTERM.
func (h *harness) daemonPass(st *staged, want []string, dir string, scrape bool, parent int) pass {
	id := h.spans.begin("pass", parent)
	defer h.spans.end(id)
	p := pass{counters: counters{}, stageCPU: map[string]float64{}}
	p.attempted = h.sz.Jobs
	state := filepath.Join(dir, "state")
	if err := copyTree(st.primed, state); err != nil {
		p.failed = p.attempted
		p.problems = append(p.problems, err.Error())
		return p
	}
	d, err := h.startDaemon(st, state, id)
	if err != nil {
		p.failed = p.attempted
		p.problems = append(p.problems, err.Error())
		return p
	}
	p.daemon.recoveryMS = d.recovery.Seconds() * 1e3
	p.digests = make([]string, len(st.specs))
	jid := h.spans.begin("cluster.warm_jobs", id)
	for k := 0; k < h.sz.Jobs; k++ {
		i := k % len(st.specs)
		t0 := time.Now()
		rep, err := d.job(st.specs[i].Body)
		p.daemon.jobMS = append(p.daemon.jobMS, time.Since(t0).Seconds()*1e3)
		if err != nil {
			p.fail("job %d: %v", k, err)
			continue
		}
		dg := digest([]byte(rep))
		if p.digests[i] == "" {
			p.digests[i] = dg
		}
		if want[i] != "" && want[i] != dg {
			p.fail("job %d (%s): report digest %s, want %s", k, st.specs[i].Name, dg[:12], want[i][:12])
		}
	}
	h.spans.end(jid)
	if scrape {
		t0 := time.Now()
		if _, err := d.get("/v1/healthz"); err != nil {
			p.fail("healthz: %v", err)
		}
		p.daemon.httpUS = time.Since(t0).Seconds() * 1e6
		if m, err := d.metrics(); err != nil {
			p.fail("metrics: %v", err)
		} else {
			p.counters = m
		}
	}
	sid := h.spans.begin("dssmemd.drain", id)
	wall, drain, r, err := d.stop()
	h.spans.end(sid)
	if err != nil {
		p.fail("%v", err)
	}
	p.wall, p.cpu, p.rssMB = wall.Seconds(), r.cpu.Seconds(), float64(r.rssKB)/1024
	p.daemon.drainMS = drain.Seconds() * 1e3
	return p
}
