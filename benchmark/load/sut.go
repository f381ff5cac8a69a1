package load

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
)

// hostID is the transport id cmd/sessiond listens under.
const hostID = "host"

// sut is the system under test for one rep: the real sessiond child, or the
// in-process replica of its wiring that the traced rep interposes on.
type sut interface {
	addr() string
	// stop ends the SUT and reports what it cost; it is safe to call twice.
	stop() sutUsage
}

// sutUsage is what a stopped SUT reports about itself. The child reports CPU
// from its ProcessState and peak RSS from /proc; the replica, whose CPU is the
// loadgen's own, reports what only in-process wiring can see.
type sutUsage struct {
	usage
	maxRSSKB int64
	pushes   int // HostStats.Pushes summed over documents (replica only)
}

// peakRSSKB reads a process's resident high-water mark (VmHWM) from
// /proc/<pid>/status; pid "self" is the loadgen. ru_maxrss cannot stand in
// for it: exec folds the forking process's own peak into the child's figure,
// so a child of a 200 MB loadgen reports 200 MB however small it stays.
func peakRSSKB(pid string) int64 {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// programRoot walks up from the working directory to the root of the module
// under test, the directory holding go.mod and cmd/sessiond: the command runs
// from the checkout root, tests from their package inside the benchmark's own
// module.
func programRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, modErr := os.Stat(filepath.Join(dir, "go.mod"))
		_, cmdErr := os.Stat(filepath.Join(dir, "cmd", "sessiond"))
		if modErr == nil && cmdErr == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod with cmd/sessiond at or above the working directory: the benchmark builds cmd/sessiond from the repository's source")
		}
		dir = parent
	}
}

// BuildSessiond compiles the real cmd/sessiond into outDir and returns the
// binary's path and how long the build took (reported, never part of
// setup_s).
func BuildSessiond(outDir string) (string, time.Duration, error) {
	root, err := programRoot()
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "sessiond"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sessiond")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/sessiond: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// live holds every running child, so that a loadgen told to end early (see
// KillChildren) leaves none behind.
var live struct {
	sync.Mutex
	children map[*child]struct{}
	closed   bool // set by KillChildren: no child starts after it
}

// KillChildren kills and reaps every sessiond child still running. The command
// calls it when a signal ends the loadgen before its reps have stopped theirs.
func KillChildren() {
	live.Lock()
	live.closed = true
	running := make([]*child, 0, len(live.children))
	for c := range live.children {
		running = append(running, c)
	}
	live.Unlock()
	for _, c := range running {
		c.stop()
	}
}

// child is a running sessiond process.
type child struct {
	cmd    *exec.Cmd
	listen string
	once   sync.Once
	usage  sutUsage
}

// startChild spawns `sessiond -listen 127.0.0.1:0 -codec binary -engine eng`
// on one scheduler thread and the loadgen's CPU (inherited, see affinity.go),
// stderr to /dev/null (it logs every item), and reads the bound address from
// its one stdout line.
func startChild(bin, eng string) (*child, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-codec", "binary", "-engine", eng)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	live.Lock() // held across Start, so KillChildren never misses a child just started
	if live.closed {
		live.Unlock()
		return nil, fmt.Errorf("start sessiond: the loadgen is shutting down")
	}
	if err := cmd.Start(); err != nil {
		live.Unlock()
		return nil, fmt.Errorf("start sessiond: %w", err)
	}
	if live.children == nil {
		live.children = make(map[*child]struct{})
	}
	live.children[c] = struct{}{}
	live.Unlock()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("sessiond exited before announcing its address: %w", err)
	}
	// "sessiond listening on 127.0.0.1:41234 (synchronous mode, ..."
	rest, ok := strings.CutPrefix(line, "sessiond listening on ")
	if !ok {
		c.stop()
		return nil, fmt.Errorf("unexpected sessiond banner %q", line)
	}
	c.listen, _, _ = strings.Cut(rest, " ")
	return c, nil
}

func (c *child) addr() string { return c.listen }

func (c *child) stop() sutUsage {
	c.once.Do(func() {
		c.usage.maxRSSKB = peakRSSKB(strconv.Itoa(c.cmd.Process.Pid))
		_ = c.cmd.Process.Kill() // already gone is fine: Wait below reaps it either way
		_ = c.cmd.Wait()         // "signal: killed" is the expected ending
		if ps := c.cmd.ProcessState; ps != nil {
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				c.usage.usage = usageOf(ru)
			}
		}
		live.Lock()
		delete(live.children, c)
		live.Unlock()
	})
	return c.usage
}

// replica is cmd/sessiond's wiring hosted in the loadgen with the tracer's
// shims at every seam: ListenTCP → FromTransport → Tap hello → NewMultiHost →
// the OT integrate step in OnItem. The replica-parity check holds it to the
// real daemon's behaviour; keep it in step with cmd/sessiond/main.go.
type replica struct {
	tep   *meteredEndpoint
	ep    fabric.Endpoint
	host  *session.MultiHost
	once  sync.Once
	usage sutUsage
}

func startReplica(eng string, counts *wireCounts, tr *tracer) (*replica, error) {
	book := newAddressBook()
	tep, err := listenTCP(hostID, book, counts, "", tr)
	if err != nil {
		return nil, err
	}
	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	var codec fabric.PayloadCodec = fabric.NewBinaryCodec(reg)
	// The daemon formats a log line per hello and per item; the child's go to
	// /dev/null, the replica's to io.Discard, so both pay for the formatting.
	logf := log.New(io.Discard, "", log.LstdFlags).Printf

	mws := []fabric.Middleware{
		fabric.Tap(nil, func(from string, payload any, size int) {
			if h, ok := payload.(*fabric.Hello); ok && h.Addr != "" {
				book.Set(from, h.Addr)
				logf("hello from %s at %s", from, h.Addr)
			}
		}),
	}
	if tr != nil {
		codec = &tracedCodec{PayloadCodec: codec, node: hostID, tr: tr}
		mws = append(mws, tr.middleware(hostID))
	}
	ep := fabric.Wrap(fabric.FromTransport(tep, codec), mws...)
	host := session.NewMultiHost(ep, session.Synchronous, fabric.WallClock(), nil)

	engCodec := fabric.NewBinaryCodec(engine.NewWireCodec())
	var engMu sync.Mutex
	engDocs := make(map[string]engine.Doc)
	integrate := func(doc string, it session.Item) {
		to, payload, err := engine.DecodeItemBody(engCodec, it.Body)
		if err != nil {
			logf("engine: bad eng/op from %s: %v", it.From, err)
			return
		}
		if to != "" && to != session.HostAuthor {
			return
		}
		engMu.Lock()
		d := engDocs[doc]
		if d == nil {
			var err error
			d, err = engine.New(engine.OT, doc, session.HostAuthor, session.HostAuthor)
			if err != nil {
				engMu.Unlock()
				logf("engine: %v", err)
				return
			}
			engDocs[doc] = d
		}
		out, err := d.Apply(it.From, payload)
		engMu.Unlock()
		if err != nil {
			logf("engine: applying %T from %s: %v", payload, it.From, err)
			return
		}
		h := host.Host(doc)
		for _, m := range out {
			body, err := engine.EncodeItemBody(engCodec, m)
			if err != nil {
				logf("engine: %v", err)
				return
			}
			tr.fileBody(body, engineKey(m.Body))
			h.PostLocal(engine.ItemKind, body)
		}
	}
	host.OnItem = func(doc string, it session.Item) {
		name := doc
		if name == "" {
			name = "(unnamed)"
		}
		logf("item %s#%d from %s (%s): %s", name, it.Seq, it.From, it.Kind, it.Body)
		if eng == engine.OT && it.Kind == engine.ItemKind && it.From != session.HostAuthor {
			sp := tr.begin(hostID, spanIntegrate, it.From, tr.bodyKey(it.Body))
			integrate(doc, it)
			sp.end()
		}
	}
	return &replica{tep: tep, ep: ep, host: host}, nil
}

func (r *replica) addr() string { return r.tep.addr }

func (r *replica) stop() sutUsage {
	r.once.Do(func() {
		for _, doc := range r.host.Docs() {
			r.usage.pushes += r.host.Host(doc).Stats().Pushes
		}
		_ = r.ep.Close() // the listener is closing for good; nothing to recover
	})
	return r.usage
}

// fileBody records which op an item body the harness generated carries.
func (t *tracer) fileBody(body string, key Key) {
	if t != nil && !key.zero() {
		t.bodies.Store(body, key)
	}
}
