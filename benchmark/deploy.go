package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one imgrn-server child. Every child runs in its own directory
// (which holds its log and, when durable, its data directory) on a
// loopback port taken from a ":0" listener.
type proc struct {
	name string
	dir  string
	url  string
	args []string // flags after -addr, kept so a reboot can reuse or change them

	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// deployment is the set of server processes one workload runs against;
// clients talk to front.
type deployment struct {
	bin   string
	root  string // private directory of this deployment, removed by stop
	procs []*proc
	front *proc
}

// live tracks every running child so that an interrupt or a failed phase
// can never leave one behind.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

func track(p *proc) {
	live.Lock()
	defer live.Unlock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
}

func untrack(p *proc) {
	live.Lock()
	defer live.Unlock()
	delete(live.procs, p)
}

// killAll SIGKILLs and reaps every tracked child; the last line of defence
// behind the per-deployment stop calls.
func killAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.stop(true)
	}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newProc reserves a directory and an address for a child without
// starting it (a cluster needs every URL before the first spawn).
func (d *deployment) newProc(name string) (*proc, error) {
	dir := filepath.Join(d.root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, dir: dir, url: "http://" + addr}
	d.procs = append(d.procs, p)
	return p, nil
}

// start spawns the child with the given flags (appended after -addr).
func (p *proc) start(bin string, args []string) error {
	logf, err := os.OpenFile(filepath.Join(p.dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	p.args = args
	cmd := exec.Command(bin, append([]string{"-addr", strings.TrimPrefix(p.url, "http://")}, args...)...)
	cmd.Dir = p.dir
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd, p.log, p.done = cmd, logf, make(chan struct{})
	track(p)
	go func() {
		_ = cmd.Wait() // the exit status of a killed child is not news
		close(p.done)
	}()
	return nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop ends the child and waits for it: SIGKILL when kill is set,
// otherwise SIGTERM (the server's clean-shutdown path) with a SIGKILL
// fallback. Safe to call twice and on a never-started proc.
func (p *proc) stop(kill bool) {
	if p.cmd == nil {
		return
	}
	sig := syscall.SIGTERM
	if kill {
		sig = syscall.SIGKILL
	}
	_ = p.cmd.Process.Signal(sig) // fails only when the child has already exited
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
	untrack(p)
	p.cmd = nil
}

// logTail returns the end of the child's log for error reports.
func (p *proc) logTail() string {
	data, err := os.ReadFile(filepath.Join(p.dir, "server.log"))
	if err != nil {
		return ""
	}
	if len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	return fmt.Sprintf("--- %s log ---\n%s", p.name, data)
}

// waitHealthy polls /healthz of every proc until all answer 200 and
// returns the moment the last one did. A child that exits first is an
// error carrying its log.
func waitHealthy(ctx context.Context, procs []*proc) (time.Time, error) {
	ctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	hc := &http.Client{Timeout: 2 * time.Second}
	pending := append([]*proc(nil), procs...)
	for len(pending) > 0 {
		next := pending[:0]
		for _, p := range pending {
			select {
			case <-p.done:
				return time.Time{}, fmt.Errorf("%s exited before becoming healthy\n%s", p.name, p.logTail())
			default:
			}
			resp, err := hc.Get(p.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					continue
				}
			}
			next = append(next, p)
		}
		pending = next
		if len(pending) == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("%s not healthy: %w\n%s", pending[0].name, ctx.Err(), pending[0].logTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return time.Now(), nil
}

// stop kills every process of the deployment and removes its directory.
func (d *deployment) stop() {
	for _, p := range d.procs {
		p.stop(true)
	}
	os.RemoveAll(d.root)
}

func (d *deployment) pids() []int {
	out := make([]int, 0, len(d.procs))
	for _, p := range d.procs {
		if p.cmd != nil {
			out = append(out, p.pid())
		}
	}
	return out
}

// logs concatenates the log tails of every process, for failure reports.
func (d *deployment) logs() string {
	var b strings.Builder
	for _, p := range d.procs {
		b.WriteString(p.logTail())
	}
	return b.String()
}

// boot starts the deployment a workload asks for and waits until every
// process answers /healthz; the returned duration is spawn → all healthy
// (setup_s). The servers receive the generated database file and flags,
// nothing else.
func boot(ctx context.Context, bin, root, dbPath string, w *workload) (*deployment, time.Duration, error) {
	d := &deployment{bin: bin, root: root}
	fail := func(err error) (*deployment, time.Duration, error) {
		logs := d.logs()
		d.stop()
		return nil, 0, fmt.Errorf("%w\n%s", err, logs)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, 0, err
	}
	var plans [][]string // flags per proc, parallel to d.procs
	switch w.deploy {
	case deployStandalone, deployDurable:
		p, err := d.newProc("server")
		if err != nil {
			return fail(err)
		}
		args := []string{"-db", dbPath, "-shards", strconv.Itoa(w.shards)}
		if w.deploy == deployDurable {
			args = append(args, "-data-dir", filepath.Join(p.dir, "data"),
				"-checkpoint-bytes", strconv.FormatInt(w.checkpointBytes, 10))
		}
		plans = append(plans, args)
		d.front = p
	case deployCluster:
		var urls []string
		for i := 0; i < w.shards; i++ {
			p, err := d.newProc("shard" + strconv.Itoa(i))
			if err != nil {
				return fail(err)
			}
			urls = append(urls, p.url)
		}
		roster := strings.Join(urls, ",")
		repl := strconv.Itoa(w.replication)
		for i := 0; i < w.shards; i++ {
			plans = append(plans, []string{"-role", "shard", "-db", dbPath,
				"-data-dir", filepath.Join(d.procs[i].dir, "data"),
				"-shards-at", roster, "-server-index", strconv.Itoa(i), "-replication", repl})
		}
		c, err := d.newProc("coordinator")
		if err != nil {
			return fail(err)
		}
		plans = append(plans, []string{"-role", "coordinator", "-shards-at", roster, "-replication", repl})
		d.front = c
	}
	start := time.Now()
	for i, p := range d.procs {
		if err := p.start(bin, plans[i]); err != nil {
			return fail(err)
		}
	}
	healthy, err := waitHealthy(ctx, d.procs)
	if err != nil {
		return fail(err)
	}
	return d, healthy.Sub(start), nil
}

// reboot starts a stopped process again in its own directory, with the
// given flags, and waits until it is healthy.
func (d *deployment) reboot(ctx context.Context, p *proc, args []string) error {
	if err := p.start(d.bin, args); err != nil {
		return err
	}
	_, err := waitHealthy(ctx, []*proc{p})
	return err
}

// dropFlag returns args without the flag name and its value.
func dropFlag(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if args[i] == name && i+1 < len(args) {
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}
