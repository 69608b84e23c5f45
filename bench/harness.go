package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// harness drives the built binaries the way a user does: default
// flags, one process at a time, blocked while the child works.
type harness struct {
	root  string // repository root: holds go.mod and cmd/
	work  string // scratch directory inside the checkout, removed at exit
	sz    sizing // how much work a pass is
	procs int    // GOMAXPROCS of every child
	// rounds and passes are setupRounds and minPasses outside the tests.
	rounds, passes int
	// unpinned ignores bench/expected.json: every report is checked
	// against the first rendering only (-pin uses it to make new pins).
	unpinned bool
	spans    *spanLog // nil on untraced runs
	log      io.Writer
}

// childProcs is the GOMAXPROCS children run with: min(nproc, 4).
func childProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func (h *harness) logf(format string, args ...interface{}) {
	fmt.Fprintf(h.log, "bench: "+format+"\n", args...)
}

// childEnv is the environment of every child: the caller's, minus the
// variables that tune the Go runtime, plus the fixed GOMAXPROCS.
func (h *harness) childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return append(env, fmt.Sprintf("GOMAXPROCS=%d", h.procs))
}

// childRun is what one finished child process cost.
type childRun struct {
	cpu    time.Duration // user + system, from rusage
	rssKB  int64         // peak resident set, from rusage
	stdout []byte
}

func usage(ps *os.ProcessState) (cpu time.Duration, rssKB int64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssKB = int64(ru.Maxrss)
	}
	return cpu, rssKB
}

// runChild runs one program to completion. A non-zero exit is an
// error that carries the tail of its standard error.
func (h *harness) runChild(name string, parent int, bin string, args ...string) (childRun, error) {
	id := h.spans.begin(name, parent)
	defer h.spans.end(id)
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = h.childEnv()
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	r := childRun{stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		r.cpu, r.rssKB = usage(cmd.ProcessState)
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, tail(errb.Bytes(), 400))
	}
	return r, nil
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// staged is one completed set-up: built binaries, generated spec
// files, and for the daemon workload a primed state directory.
type staged struct {
	bin    string // directory holding dssmem and dssmemd
	specs  []specFile
	paths  []string // spec files on disk, pass order
	primed string   // daemon state directory ("" for CLI workloads)
	prime  primeInfo
}

// setup does everything a pass needs beforehand, into a fresh
// directory, and returns how long it took: build both binaries,
// generate the specs from the seed, and for the daemon workload run the
// cold priming jobs.
func (h *harness) setup(w workload, seed uint64, dir string, parent int) (*staged, time.Duration, error) {
	id := h.spans.begin("setup", parent)
	defer h.spans.end(id)
	t0 := time.Now()
	st := &staged{bin: filepath.Join(dir, "bin")}
	if err := os.MkdirAll(st.bin, 0o755); err != nil {
		return nil, 0, err
	}
	bid := h.spans.begin("setup.build", id)
	build := exec.Command("go", "build", "-buildvcs=false", "-o", st.bin+string(filepath.Separator),
		"./cmd/dssmem", "./cmd/dssmemd")
	build.Dir = h.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("go build: %w: %s", err, tail(out, 2000))
	}
	h.spans.end(bid)

	st.specs = w.Specs(h.sz, seed)
	for _, s := range st.specs {
		p := filepath.Join(dir, s.Name+".json")
		if err := os.WriteFile(p, s.Body, 0o644); err != nil {
			return nil, 0, err
		}
		st.paths = append(st.paths, p)
	}
	if w.Daemon {
		st.primed = filepath.Join(dir, "primed")
		var err error
		if st.prime, err = h.primeDaemon(st, id); err != nil {
			return nil, 0, fmt.Errorf("priming: %w", err)
		}
	}
	return st, time.Since(t0), nil
}

// pass is the measurement of one pass: every report of the workload
// rendered once and checked.
type pass struct {
	wall      float64 // seconds, child start to last verified report / daemon exit
	cpu       float64 // seconds, user+sys of the child process(es)
	rssMB     float64 // largest peak RSS among the children
	digests   []string
	attempted int
	failed    int
	problems  []string

	// what the children published about themselves, where the pass
	// asked for it (see passMode), and the daemon's client-side timings
	counters counters
	stageCPU map[string]float64
	daemon   daemonTimings
}

func (p *pass) fail(format string, args ...interface{}) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// passMode says which of the child's own published outputs a CLI pass
// asks for. Timed passes ask for none.
type passMode struct {
	metrics bool // -metrics FILE snapshot
	profile bool // -cpuprofile FILE, read back with go tool pprof -tags
}

// cliPass renders each spec in a fresh dssmem process with default
// flags. want holds the digest each report must have ("" = not yet
// known).
func (h *harness) cliPass(st *staged, mode passMode, want []string, dir string, parent int) pass {
	id := h.spans.begin("pass", parent)
	defer h.spans.end(id)
	p := pass{counters: counters{}, stageCPU: map[string]float64{}}
	bin := filepath.Join(st.bin, "dssmem")
	t0 := time.Now()
	for i, path := range st.paths {
		args := []string{"-scenario", path}
		mfile := filepath.Join(dir, fmt.Sprintf("metrics-%d.json", i))
		pfile := filepath.Join(dir, fmt.Sprintf("cpu-%d.prof", i))
		if mode.metrics {
			args = append(args, "-metrics", mfile)
		}
		if mode.profile {
			args = append(args, "-cpuprofile", pfile)
		}
		p.attempted++
		r, err := h.runChild("dssmem "+st.specs[i].Name, id, bin, args...)
		p.cpu += r.cpu.Seconds()
		if mb := float64(r.rssKB) / 1024; mb > p.rssMB {
			p.rssMB = mb
		}
		if err != nil {
			p.digests = append(p.digests, "")
			p.fail("%v", err)
			continue
		}
		d := digest(r.stdout)
		p.digests = append(p.digests, d)
		switch {
		case len(r.stdout) == 0:
			p.fail("%s: empty report", st.specs[i].Name)
		case want[i] != "" && want[i] != d:
			p.fail("%s: report digest %s, want %s", st.specs[i].Name, d[:12], want[i][:12])
		}
		if mode.metrics {
			if err := h.readSnapshot(mfile, p.counters); err != nil {
				p.fail("%s: %v", st.specs[i].Name, err)
			}
		}
		if mode.profile {
			if err := h.readStages(bin, pfile, p.stageCPU); err != nil {
				p.fail("%s: %v", st.specs[i].Name, err)
			}
		}
	}
	p.wall = time.Since(t0).Seconds()
	return p
}

func (h *harness) readSnapshot(file string, into counters) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	c, err := parseSnapshot(data)
	if err != nil {
		return err
	}
	into.add(c)
	return nil
}

// readStages adds the profile's CPU seconds per pprof "stage" label.
func (h *harness) readStages(bin, profile string, into map[string]float64) error {
	cmd := exec.Command("go", "tool", "pprof", "-tags", bin, profile)
	cmd.Env = h.childEnv()
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -tags: %w: %s", err, tail(errb.Bytes(), 400))
	}
	tags, err := parsePprofTags(out, "stage")
	if err != nil {
		return err
	}
	for k, v := range tags {
		into[k] += v
	}
	return nil
}

// copyTree copies a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// fsType names the filesystem that holds dir, from /proc/self/mounts
// ("unknown" where that file does not exist).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// findRoot checks that dir is the repository root the benchmark
// measures: it must hold the module file and both commands.
func findRoot(dir string) error {
	for _, f := range []string{"go.mod", "cmd/dssmem/main.go", "cmd/dssmemd/main.go"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			return errors.New("run from the repository root: " + f + " not found")
		}
	}
	return nil
}
