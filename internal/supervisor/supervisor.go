package supervisor

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/queryfront"
	"repro/internal/seclog"
	"repro/internal/transport"
	"repro/internal/types"
)

// SyncedState is a node's durably-synced log position (sequence and chain
// hash from its .segmeta sidecar), captured by the supervisor in the window
// between a child dying and its replacement recovering — the state any
// correct recovery must preserve.
type SyncedState struct {
	Seq  uint64
	Hash []byte
}

// Options configures a supervised deployment. Zero values select defaults
// tuned for loopback tests.
type Options struct {
	// Dir roots everything the deployment writes: child configs, child
	// stdout/stderr logs (<id>.log), the supervisor's own log, and one data
	// directory per node.
	Dir string
	// Binary is the child image (default: this executable, which must call
	// MaybeChild first thing in main).
	Binary string
	// Seed drives the respawn backoff jitter and, through NodeConfig.Seed,
	// the children's transport jitter. The crash plan has its own Seed.
	Seed int64
	// App names the workload (see live.AppByName).
	App string
	// Behaviors maps nodes to adversary profile names to arm on them.
	Behaviors map[types.NodeID][]string
	// Crash schedules seeded process deaths (nil: none).
	Crash *CrashPlan
	// TickMs/SyncEvery are passed through to every child's NodeConfig.
	TickMs, SyncEvery int
	// BackoffBase/BackoffMax bound the jittered respawn backoff (defaults
	// 50ms and 2s; the schedule is transport.Backoff).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QueryFront, when non-empty, hosts a query frontend on this listen
	// address over the supervisor's probe cluster, so remote analysts can
	// audit the deployment without their own key material: the frontend
	// derives the directory from the app exactly as the children do. Its
	// sessions replay every audit: the frontend opens no audit cache.
	QueryFront string
}

// maxRestarts is the per-node restart-storm cap: more than this many
// restarts inside restartWindow marks the node failed and stops respawning
// it.
const (
	maxRestarts   = 5
	restartWindow = 30 * time.Second
)

func (o Options) withDefaults() Options {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffBase {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// probeEvery is the health-probe period; probeFailLimit the number of
// consecutive failed probes after which a live-but-unresponsive child is
// killed and restarted.
const (
	probeEvery     = 250 * time.Millisecond
	probeFailLimit = 40
)

// child is one supervised node process.
type child struct {
	id   types.NodeID
	cmd  *exec.Cmd
	logF *os.File
	done chan struct{} // closed when Wait returns for the current cmd

	rng        *rand.Rand
	restarts   []time.Time   // respawn times inside the storm window
	total      int           // lifetime respawn count
	backoff    time.Duration // before the latest respawn; doubles per respawn, never resets
	lastStart  time.Time
	healthyAt  time.Time // zero until the first successful probe per start
	latencies  []time.Duration
	probeFails int
	running    bool
	failed     error
	preStates  []SyncedState // sidecar snapshots taken after each death
}

// Supervisor launches one daemon process per node and keeps the deployment
// alive: children that exit are respawned (through log recovery) with
// jittered backoff, children that hang are killed and respawned, and
// restart storms are capped. It is also the audit side of the run: the
// parent process's deployment parameters — the same derivation the children
// run, so both sides agree on the directory — whose maintainer SyncNotes
// merges every child's missing-ack reports into before an audit.
type Supervisor struct {
	opts  Options
	dep   *live.Deployment
	addrs map[types.NodeID]string
	log   *log.Logger
	logF  *os.File

	probe *transport.Cluster
	fetch *transport.RemoteFetcher // health probes: short budgets
	audit *transport.RemoteFetcher // SyncNotes, VerifyRecovered: audit budgets
	front *queryfront.Server

	mu       sync.Mutex
	fetchers []*transport.RemoteFetcher // handed out by newFetcher, closed by Stop
	children map[types.NodeID]*child
	stopping bool
	stopMon  chan struct{}
	monDone  chan struct{}
}

// New validates the options, resolves the workload and derives the
// deployment parameters; Start launches it.
func New(opts Options) (*Supervisor, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("supervisor: Options.Dir is required")
	}
	app, err := live.AppByName(opts.App)
	if err != nil {
		return nil, err
	}
	dep, err := live.NewDeployment(app)
	if err != nil {
		return nil, err
	}
	if opts.Binary == "" {
		bin, err := os.Executable()
		if err != nil {
			return nil, err
		}
		opts.Binary = bin
	}
	return &Supervisor{
		opts:     opts,
		dep:      dep,
		addrs:    make(map[types.NodeID]string),
		children: make(map[types.NodeID]*child),
		stopMon:  make(chan struct{}),
		monDone:  make(chan struct{}),
	}, nil
}

// Deployment returns the parent side's deployment parameters: the resolved
// workload, protocol configuration, key directory, and the maintainer
// audits are scored against.
func (s *Supervisor) Deployment() *live.Deployment { return s.dep }

// Addrs returns every node's fixed listen address.
func (s *Supervisor) Addrs() map[types.NodeID]string {
	out := make(map[types.NodeID]string, len(s.addrs))
	for id, a := range s.addrs {
		out[id] = a
	}
	return out
}

// Cluster returns the supervisor's probe cluster, which has every node as a
// peer; NewFetcher on it gives auditors and harnesses a wire-level path to
// the children.
func (s *Supervisor) Cluster() *transport.Cluster { return s.probe }

// Front returns the hosted query frontend, or nil unless
// Options.QueryFront asked for one.
func (s *Supervisor) Front() *queryfront.Server { return s.front }

// startFront serves a frontend on the configured address over the probe
// cluster.
func (s *Supervisor) startFront() error {
	front, err := queryfront.Serve(queryfront.Config{
		Cluster: s.probe, Base: s.dep.Cfg, Dir: s.dep.Dir,
		Factory: s.dep.App.Factory, ConfigureQuerier: s.dep.App.ConfigureQuerier,
	}, s.opts.QueryFront)
	if err != nil {
		return err
	}
	s.front = front
	s.log.Printf("query frontend on %s", front.Addr())
	return nil
}

// Start allocates one port per node, spawns every child, and begins health
// monitoring.
func (s *Supervisor) Start() error {
	if err := os.MkdirAll(filepath.Join(s.opts.Dir, "data"), 0o755); err != nil {
		return err
	}
	logF, err := os.OpenFile(filepath.Join(s.opts.Dir, "supervisor.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.logF = logF
	s.log = log.New(logF, "", log.Ltime|log.Lmicroseconds)

	// Fixed ports: allocate by binding and releasing, so a restarted child
	// rebinds the same address its peers keep dialing.
	for _, id := range s.dep.App.Nodes {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.addrs[id] = l.Addr().String()
		_ = l.Close()
	}

	s.probe = transport.NewCluster()
	for id, addr := range s.addrs {
		s.probe.AddPeer(id, addr)
	}
	s.fetch = s.probe.NewFetcher("supervisor")
	s.fetch.CallTimeout = 200 * time.Millisecond
	s.fetch.RetryDeadline = 250 * time.Millisecond
	s.audit = s.newFetcher("parent")

	if s.opts.QueryFront != "" {
		if err := s.startFront(); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.dep.App.Nodes {
		h := fnv.New64a()
		h.Write([]byte(id))
		c := &child{
			id:  id,
			rng: rand.New(rand.NewSource(s.opts.Seed ^ int64(h.Sum64()))),
		}
		s.children[id] = c
		if err := s.spawnLocked(c, false); err != nil {
			return err
		}
	}
	go s.monitor()
	return nil
}

// configFor assembles one child's NodeConfig.
func (s *Supervisor) configFor(id types.NodeID, recover bool) NodeConfig {
	cfg := NodeConfig{
		ID:        id,
		App:       s.opts.App,
		Seed:      s.opts.Seed,
		Addrs:     s.addrs,
		DataDir:   filepath.Join(s.opts.Dir, "data"),
		Recover:   recover,
		Behaviors: s.opts.Behaviors[id],
		TickMs:    s.opts.TickMs,
		SyncEvery: s.opts.SyncEvery,
	}
	if !recover {
		// Crash rules arm on the first incarnation only: a recovered
		// process must not immediately re-die on the same trigger.
		if rule, ok := s.opts.Crash.RuleFor(id); ok {
			cfg.Crash = &rule
		}
	}
	return cfg
}

// spawnLocked writes the child's config and starts its process. Callers
// hold s.mu.
func (s *Supervisor) spawnLocked(c *child, recover bool) error {
	cfgPath := filepath.Join(s.opts.Dir, string(c.id)+".json")
	if err := WriteNodeConfig(cfgPath, s.configFor(c.id, recover)); err != nil {
		return err
	}
	logF, err := os.OpenFile(filepath.Join(s.opts.Dir, string(c.id)+".log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(s.opts.Binary)
	cmd.Env = append(os.Environ(), ChildConfigEnv+"="+cfgPath)
	cmd.Stdout, cmd.Stderr = logF, logF
	if err := cmd.Start(); err != nil {
		_ = logF.Close()
		return fmt.Errorf("supervisor: spawning %s: %w", c.id, err)
	}
	c.cmd, c.logF = cmd, logF
	c.done = make(chan struct{})
	c.lastStart = time.Now()
	c.healthyAt = time.Time{}
	c.probeFails = 0
	c.running = true
	s.log.Printf("%s: started pid %d (recover=%v)", c.id, cmd.Process.Pid, recover)
	done := c.done
	go func() {
		err := cmd.Wait()
		_ = logF.Close()
		close(done)
		s.onExit(c, err)
	}()
	return nil
}

// onExit handles one child process ending: respawn through recovery after a
// jittered backoff, unless the supervisor is stopping or the child tripped
// the restart-storm cap.
func (s *Supervisor) onExit(c *child, err error) {
	s.mu.Lock()
	c.running = false
	if s.stopping {
		s.mu.Unlock()
		return
	}
	// The child is dead and its replacement hasn't started: the sidecar on
	// disk is exactly the state it had durably synced before dying. Capture
	// it now, race-free, so harnesses can verify recovery preserved it.
	if seq, hash, ok, rerr := seclog.ReadSidecar(filepath.Join(s.opts.Dir, "data"), c.id); rerr == nil && ok && seq > 0 {
		c.preStates = append(c.preStates, SyncedState{Seq: seq, Hash: append([]byte(nil), hash...)})
	}
	now := time.Now()
	keep := c.restarts[:0]
	for _, t := range c.restarts {
		if now.Sub(t) <= restartWindow {
			keep = append(keep, t)
		}
	}
	c.restarts = append(keep, now)
	if len(c.restarts) > maxRestarts {
		c.failed = fmt.Errorf("supervisor: %s restarted %d times in %v, giving up (last exit: %v)",
			c.id, len(c.restarts), restartWindow, err)
		s.log.Print(c.failed)
		s.mu.Unlock()
		return
	}
	c.total++
	c.backoff = transport.Backoff{Base: s.opts.BackoffBase, Max: s.opts.BackoffMax}.Next(c.backoff)
	wait := transport.Jitter(c.rng, c.backoff)
	s.log.Printf("%s: exited (%v), respawning in %v", c.id, err, wait)
	s.mu.Unlock()

	select {
	case <-time.After(wait):
	case <-s.stopMon: // Stop does not wait out a backoff
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping || c.failed != nil {
		return
	}
	if err := s.spawnLocked(c, true); err != nil {
		c.failed = err
		s.log.Print(err)
	}
}

// monitor is the heartbeat loop: it probes every running child over the
// health RPC, records restart-to-healthy latency, and kills children that
// stay unresponsive past the probe-failure limit (the exit path then
// respawns them).
func (s *Supervisor) monitor() {
	defer close(s.monDone)
	ticker := time.NewTicker(probeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopMon:
			return
		case <-ticker.C:
		}
		for _, id := range s.dep.App.Nodes {
			s.mu.Lock()
			c := s.children[id]
			probeIt := c != nil && c.running && c.failed == nil
			s.mu.Unlock()
			if !probeIt {
				continue
			}
			_, err := s.fetch.Health(id, 0)
			s.mu.Lock()
			if !c.running {
				s.mu.Unlock()
				continue
			}
			switch {
			case err == nil:
				c.probeFails = 0
				if c.healthyAt.IsZero() {
					c.healthyAt = time.Now()
					c.latencies = append(c.latencies, c.healthyAt.Sub(c.lastStart))
					s.log.Printf("%s: healthy %v after start", id, c.healthyAt.Sub(c.lastStart))
				}
			default:
				c.probeFails++
				if c.probeFails > probeFailLimit {
					s.log.Printf("%s: %d probes failed, killing hung child", id, c.probeFails)
					c.probeFails = 0
					if c.cmd != nil && c.cmd.Process != nil {
						_ = c.cmd.Process.Kill()
					}
				}
			}
			s.mu.Unlock()
		}
	}
}

// Kill SIGKILLs a child (fault injection beyond the seeded plan); the
// normal exit path respawns it.
func (s *Supervisor) Kill(id types.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.children[id]
	if c == nil || !c.running || c.cmd == nil || c.cmd.Process == nil {
		return fmt.Errorf("supervisor: no running child %s", id)
	}
	return c.cmd.Process.Kill()
}

// Running reports whether a child's process is currently alive.
func (s *Supervisor) Running(id types.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.children[id]
	return c != nil && c.running
}

// Restarts returns a child's lifetime respawn count.
func (s *Supervisor) Restarts(id types.NodeID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.children[id]; c != nil {
		return c.total
	}
	return 0
}

// Failed returns the nodes the supervisor has given up on, with why.
func (s *Supervisor) Failed() map[types.NodeID]error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[types.NodeID]error)
	for id, c := range s.children {
		if c.failed != nil {
			out[id] = c.failed
		}
	}
	return out
}

// PreCrashStates returns the sidecar states captured after each of a
// child's deaths (oldest first), the synced positions recovery had to
// preserve.
func (s *Supervisor) PreCrashStates(id types.NodeID) []SyncedState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.children[id]; c != nil {
		return append([]SyncedState(nil), c.preStates...)
	}
	return nil
}

// StartToHealthy returns a child's start→first-successful-probe latencies,
// one entry per (re)start observed healthy so far.
func (s *Supervisor) StartToHealthy(id types.NodeID) []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.children[id]; c != nil {
		return append([]time.Duration(nil), c.latencies...)
	}
	return nil
}

// WaitHealthy blocks until every non-failed child answers a health probe,
// or the timeout passes.
func (s *Supervisor) WaitHealthy(timeout time.Duration) error {
	return s.waitAll(timeout, 20*time.Millisecond, "healthy", func(id types.NodeID) bool {
		s.mu.Lock()
		failed := s.children[id] != nil && s.children[id].failed != nil
		s.mu.Unlock()
		if failed {
			return true
		}
		_, err := s.fetch.Health(id, 0)
		return err == nil
	})
}

// WaitConverged blocks until every node reports its workload convergence
// probe true, or the timeout passes. Crashes and restarts may happen
// underneath; unreachable nodes simply aren't converged yet.
func (s *Supervisor) WaitConverged(timeout time.Duration) error {
	return s.waitAll(timeout, 50*time.Millisecond, "converged", func(id types.NodeID) bool {
		h, err := s.fetch.Health(id, 0)
		return err == nil && h.Converged
	})
}

// waitAll polls every node with ok until none is left waiting or the
// timeout passes; state names the awaited condition in the error.
func (s *Supervisor) waitAll(timeout, every time.Duration, state string, ok func(types.NodeID) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		var waiting []string
		for _, id := range s.dep.App.Nodes {
			if !ok(id) {
				waiting = append(waiting, string(id))
			}
		}
		if len(waiting) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			sort.Strings(waiting)
			return fmt.Errorf("supervisor: %v not %s after %v", waiting, state, timeout)
		}
		time.Sleep(every)
	}
}

// newFetcher dials the children over the wire with the audit drivers'
// budgets; id names the caller to the children.
func (s *Supervisor) newFetcher(id types.NodeID) *transport.RemoteFetcher {
	f := s.probe.NewFetcher(id)
	f.CallTimeout, f.RetryDeadline = transport.AuditCallTimeout, transport.AuditRetryDeadline
	s.mu.Lock()
	s.fetchers = append(s.fetchers, f)
	s.mu.Unlock()
	return f
}

// NewQuerier builds an audit session over the wire, dialing the child
// processes like any external auditor. Its Fetch is a
// *transport.RemoteFetcher, closed by Stop.
func (s *Supervisor) NewQuerier() *core.Querier {
	return s.dep.NewQuerier(s.newFetcher("auditor"))
}

// SyncNotes pulls every child process's missing-ack reports (§5.4) into
// the parent-side maintainer; see transport.RemoteFetcher.SyncNotes.
func (s *Supervisor) SyncNotes() error { return s.audit.SyncNotes(s.dep.Maint) }

// Settle sleeps through the deployment's settling window (the daemons tick
// themselves, the parent only has to wait).
func (s *Supervisor) Settle() { time.Sleep(s.dep.SettleWindow()) }

// WaitCrashed waits until every node the crash plan names has died and been
// respawned at least once, then returns the pre-crash synced state the
// supervisor captured for each (it reads the sidecar in the window between
// a child dying and its replacement starting, so the capture is race-free).
func (s *Supervisor) WaitCrashed(timeout time.Duration) (map[types.NodeID]SyncedState, error) {
	if s.opts.Crash == nil {
		return nil, fmt.Errorf("supervisor: no crash plan to wait for")
	}
	crashed := func(id types.NodeID) bool {
		_, planned := s.opts.Crash.RuleFor(id)
		return !planned || s.Restarts(id) > 0
	}
	if err := s.waitAll(timeout, 10*time.Millisecond, "crashed by the plan", crashed); err != nil {
		return nil, err
	}
	pre := make(map[types.NodeID]SyncedState)
	for _, id := range s.dep.App.Nodes {
		if _, planned := s.opts.Crash.RuleFor(id); !planned {
			continue
		}
		states := s.PreCrashStates(id)
		if len(states) == 0 {
			return nil, fmt.Errorf("supervisor: %s crashed but left no synced sidecar to verify against", id)
		}
		pre[id] = states[len(states)-1]
	}
	return pre, nil
}

// VerifyRecovered checks that a recovered child's chain still passes
// through a captured pre-crash synced state: the health probe at that
// sequence must return the captured hash, and the live head must be at or
// past it. It returns the health report so callers can inspect TornBytes.
func (s *Supervisor) VerifyRecovered(id types.NodeID, st SyncedState) (transport.Health, error) {
	hr, err := s.audit.Health(id, st.Seq)
	if err != nil {
		return hr, fmt.Errorf("supervisor: probing recovered %s: %w", id, err)
	}
	if hr.HeadSeq < st.Seq {
		return hr, fmt.Errorf("supervisor: %s recovered to head %d, behind its synced state %d",
			id, hr.HeadSeq, st.Seq)
	}
	if !bytes.Equal(hr.ProbeHash, st.Hash) {
		return hr, fmt.Errorf("supervisor: %s chain hash at %d diverged from its pre-crash synced state",
			id, st.Seq)
	}
	return hr, nil
}

// Stop shuts the deployment down: SIGTERM every child for a graceful drain,
// SIGKILL whatever remains at the timeout, then release the fetchers (the
// probe's and every one NewQuerier handed out) and the cluster. The
// supervisor cannot be restarted.
func (s *Supervisor) Stop(timeout time.Duration) error {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return nil
	}
	s.stopping = true
	var waits []chan struct{}
	for _, c := range s.children {
		if c.running && c.cmd != nil && c.cmd.Process != nil {
			_ = c.cmd.Process.Signal(syscall.SIGTERM)
			waits = append(waits, c.done)
		}
	}
	s.mu.Unlock()

	deadline := time.After(timeout)
	for _, done := range waits {
		select {
		case <-done:
		case <-deadline:
			s.mu.Lock()
			for _, c := range s.children {
				if c.running && c.cmd != nil && c.cmd.Process != nil {
					s.log.Printf("%s: did not stop in %v, killing", c.id, timeout)
					_ = c.cmd.Process.Kill()
				}
			}
			s.mu.Unlock()
			// The kills make the remaining waits finish promptly.
			for _, d := range waits {
				<-d
			}
		}
	}
	// The frontend's session fetchers live on the probe cluster: close it
	// before the cluster goes away.
	if s.front != nil {
		s.front.Close()
	}
	s.mu.Lock()
	fetchers := s.fetchers
	s.mu.Unlock()
	for _, f := range fetchers {
		f.Close()
	}
	if s.fetch != nil {
		close(s.stopMon)
		<-s.monDone
		s.fetch.Close()
	}
	if s.probe != nil {
		s.probe.Close()
	}
	if s.logF != nil {
		_ = s.logF.Close()
	}
	return nil
}
