package sim

// A differential gate for the kernel: a seeded generator of small random
// programs over every kernel primitive, whose logs are hashed and pinned in
// testdata/kernel_programs.golden (TestKernelPrograms), plus a fuzz target
// that drives the same generator from fuzz input and checks properties that
// need no golden file (FuzzKernel). The tests use only the kernel's exported
// surface, so they run unchanged against any implementation of it.

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"wadc/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/kernel_programs.golden from the current kernel")

// chooser supplies the generator's decisions: a seeded source for the
// golden programs, fuzz input for FuzzKernel.
type chooser interface{ intn(n int) int }

type randChooser struct{ r *rand.Rand }

func (c randChooser) intn(n int) int { return c.r.Intn(n) }

// byteChooser reads one decision per input byte and answers 0 once the
// input is exhausted, so every byte string decodes to a valid program.
type byteChooser struct{ data []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0])
	c.data = c.data[1:]
	return v % n
}

type opKind uint8

const (
	opHold      opKind = iota // Hold(holds[a])
	opSend                    // mailbox a, priority b
	opRecv                    // mailbox a
	opUse                     // acquire at priority b, hold holds[a], release
	opWait                    // condition wait
	opSignal                  // condition signal
	opAfter                   // arm a one-shot timer: delay holds[a], callback action b
	opStopAfter               // stop the last one-shot timer
	opEvery                   // arm a periodic timer: period periods[a], action b, stops itself
	opStopEvery               // stop the last periodic timer
	opKill                    // kill process a (never the caller)
	opSpawn                   // spawn process a
	opPanic                   // panic out of the process body
)

var opNames = [...]string{
	"hold", "send", "recv", "use", "wait", "signal", "after", "stop-after",
	"every", "stop-every", "kill", "spawn", "panic",
}

// opWeights draws the ordinary steps; spawns and the panic are placed
// separately so every program's process tree and panic count are controlled.
var opWeights = [...]struct {
	op opKind
	w  int
}{
	{opHold, 16}, {opSend, 14}, {opRecv, 12}, {opUse, 10}, {opWait, 5},
	{opSignal, 7}, {opAfter, 6}, {opStopAfter, 4}, {opEvery, 4},
	{opStopEvery, 3}, {opKill, 5},
}

var (
	holds   = [...]time.Duration{0, time.Millisecond, 5 * time.Millisecond}
	periods = [...]time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	bounds  = [...]Time{0, Millisecond, 2 * Millisecond, 5 * Millisecond, 6 * Millisecond}
)

type step struct {
	op   opKind
	a, b int
}

type procSpec struct {
	name string
	// tenant is set with SetTenant right after Spawn; -1 inherits the
	// spawner's tenant register.
	tenant int32
	// parent is the index of the process that spawns this one; -1 spawns
	// it before Run, -2 from a callback armed before Run after holds[at].
	parent int
	at     int
	steps  []step
}

type program struct {
	mailboxes int
	capacity  int
	bounded   bool // RunUntil(bound), then Run
	bound     Time
	procs     []procSpec
}

func genProgram(c chooser) program {
	pr := program{mailboxes: 1 + c.intn(3), capacity: 1 + c.intn(2)}
	if c.intn(3) == 0 {
		pr.bounded = true
		pr.bound = bounds[c.intn(len(bounds))]
	}
	total := 0
	for _, w := range opWeights {
		total += w.w
	}
	n := 2 + c.intn(11)
	pr.procs = make([]procSpec, n)
	for i := range pr.procs {
		ps := &pr.procs[i]
		ps.name = fmt.Sprintf("p%d", i)
		ps.tenant = int32(c.intn(5)) - 1
		ps.parent = -1
		if i > 0 {
			switch c.intn(4) {
			case 0:
				ps.parent = c.intn(i)
			case 1:
				ps.parent = -2
				ps.at = c.intn(len(holds))
			}
		}
		ns := 1 + c.intn(20)
		for j := 0; j < ns; j++ {
			r := c.intn(total)
			var op opKind
			for _, w := range opWeights {
				if r < w.w {
					op = w.op
					break
				}
				r -= w.w
			}
			ps.steps = append(ps.steps, step{op: op, a: c.intn(12), b: c.intn(12)})
		}
	}
	insert := func(ps *procSpec, st step, at int) {
		ps.steps = append(ps.steps, step{})
		copy(ps.steps[at+1:], ps.steps[at:])
		ps.steps[at] = st
	}
	for i := range pr.procs {
		if p := pr.procs[i].parent; p >= 0 {
			insert(&pr.procs[p], step{op: opSpawn, a: i}, c.intn(len(pr.procs[p].steps)+1))
		}
	}
	if c.intn(4) == 0 {
		ps := &pr.procs[c.intn(n)]
		insert(ps, step{op: opPanic}, c.intn(len(ps.steps)+1))
	}
	return pr
}

// runResult is what one execution of a program leaves behind.
type runResult struct {
	log      []string
	err      error  // first error from RunUntil or Run
	panicked string // name of the process that reached its panic step
	pending  int    // Pending() after the final Run
}

func (r runResult) hash() uint64 {
	h := fnv.New64a()
	for _, line := range r.log {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// logSink records the kernel's own telemetry, whose events the kernel
// stamps with the tenant register.
type logSink struct{ log *[]string }

func (s logSink) Emit(ev telemetry.Event) {
	*s.log = append(*s.log, fmt.Sprintf("%d ev %v %s t%d prio=%d dur=%d %s",
		ev.At, ev.Kind, ev.Name, ev.Tenant, ev.Prio, ev.Dur, ev.Aux))
}

func runProgram(pr program) runResult {
	var res runResult
	k := NewKernel(WithTelemetry(logSink{&res.log}))
	logf := func(who, what string) {
		res.log = append(res.log, fmt.Sprintf("%d %s %s t%d", int64(k.Now()), who, what, k.CurrentTenant()))
	}
	n := len(pr.procs)
	procs := make([]*Proc, n)
	mbs := make([]*Mailbox, pr.mailboxes)
	for i := range mbs {
		mbs[i] = NewMailbox(k, fmt.Sprintf("mb%d", i))
	}
	resource := NewResource(k, "res", pr.capacity)
	cond := NewCondition(k)

	// act is what a timer callback does besides logging.
	act := func(who string, action, target int) {
		switch action % 4 {
		case 1:
			mbs[0].Send(who, PriorityData)
		case 2:
			cond.Signal()
		case 3:
			logf(who, fmt.Sprintf("kill %s", pr.procs[target%n].name))
			k.Kill(procs[target%n])
		}
	}

	var spawn func(i int)
	body := func(p *Proc, i int) {
		ps := &pr.procs[i]
		defer logf(ps.name, "defer")
		var after, every *Timer
		for j, st := range ps.steps {
			logf(ps.name, fmt.Sprintf("%d %s", j, opNames[st.op]))
			switch st.op {
			case opHold:
				p.Hold(holds[st.a%len(holds)])
			case opSend:
				mbs[st.a%len(mbs)].Send(fmt.Sprintf("%s.%d", ps.name, j), Priority(st.b%3))
			case opRecv:
				msg := mbs[st.a%len(mbs)].Recv(p)
				logf(ps.name, fmt.Sprintf("%d got %v", j, msg))
			case opUse:
				resource.Use(p, Priority(st.b%3), holds[st.a%len(holds)])
			case opWait:
				cond.Wait(p)
			case opSignal:
				cond.Signal()
			case opAfter:
				who := fmt.Sprintf("%s.%d.after", ps.name, j)
				action, target := st.b, i+j+1
				after = k.After(holds[st.a%len(holds)], func() {
					logf(who, "fire")
					act(who, action, target)
				})
			case opStopAfter:
				logf(ps.name, fmt.Sprintf("%d stopped=%v", j, after.Stop()))
			case opEvery:
				who := fmt.Sprintf("%s.%d.every", ps.name, j)
				action, target, limit := st.b, i+j+1, 1+st.b%3
				ticks := 0
				var t *Timer
				t = k.Every(periods[st.a%len(periods)], func() {
					ticks++
					logf(who, fmt.Sprintf("tick %d", ticks))
					act(who, action, target)
					if ticks >= limit {
						t.Stop()
					}
				})
				every = t
			case opStopEvery:
				logf(ps.name, fmt.Sprintf("%d stopped=%v", j, every.Stop()))
			case opKill:
				target := st.a % n
				if target == i {
					target = (target + 1) % n
				}
				logf(ps.name, fmt.Sprintf("%d kill %s", j, pr.procs[target].name))
				k.Kill(procs[target])
			case opSpawn:
				spawn(st.a)
			case opPanic:
				res.panicked = ps.name
				panic("boom in " + ps.name)
			}
		}
	}
	spawn = func(i int) {
		p := k.Spawn(pr.procs[i].name, func(p *Proc) { body(p, i) })
		if t := pr.procs[i].tenant; t >= 0 {
			p.SetTenant(t)
		}
		procs[i] = p
	}
	for i := range pr.procs {
		switch pr.procs[i].parent {
		case -1:
			spawn(i)
		case -2:
			i := i
			who := fmt.Sprintf("spawner.%s", pr.procs[i].name)
			k.After(holds[pr.procs[i].at], func() {
				logf(who, "fire")
				spawn(i)
			})
		}
	}

	if pr.bounded {
		res.err = k.RunUntil(pr.bound)
		logf("kernel", fmt.Sprintf("run-until %v: %v", pr.bound, res.err))
	}
	err := k.Run()
	logf("kernel", fmt.Sprintf("run: %v", err))
	if res.err == nil {
		res.err = err
	}
	res.pending = k.Pending()
	return res
}

// TestKernelPrograms runs seeds 1–500 of the program generator and compares
// each log's FNV-64a hash with testdata/kernel_programs.golden. The golden
// file pins the order of resumes, the (at, seq) tie-break, the tenant
// register and the kill unwinding; it changes only when kernel semantics do.
// Regenerate it with `go test -run TestKernelPrograms -update ./internal/sim/`.
func TestKernelPrograms(t *testing.T) {
	const seeds = 500
	var got strings.Builder
	for seed := int64(1); seed <= seeds; seed++ {
		r := runProgram(genProgram(randChooser{rand.New(rand.NewSource(seed))}))
		fmt.Fprintf(&got, "%d %016x %d\n", seed, r.hash(), len(r.log))
	}
	path := filepath.Join("testdata", "kernel_programs.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("program diverged: got %q, want %q", gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of %d programs diverged", bad, seeds)
	}
}

// processGoroutines counts the live goroutines created to run a simulated
// process, whether or not the process has started. It reads a full
// goroutine dump rather than runtime.NumGoroutine, which also counts
// goroutines of the test framework: under -fuzz, the goroutine that ran the
// previous input can still be exiting while the next input runs.
func processGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "iter.Pull") || strings.Contains(g, "wadc/internal/sim.(*Kernel).Spawn") {
			count++
		}
	}
	return count
}

// FuzzKernel decodes fuzz input into a program and checks properties that
// hold for every program: Run returns; it fails exactly when a process
// panicked, naming that process; two runs log the same; a clean Run leaves
// no event queued (every periodic timer stops itself, so nothing queued can
// come from a timer still running); and no process goroutine outlives the
// run. The last check is exact: a process coroutine's goroutine exits
// before the kernel's call that ran the process's last step returns.
func FuzzKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pr := genProgram(&byteChooser{data: data})
		r := runProgram(pr)
		if n := processGoroutines(); n != 0 {
			t.Fatalf("%d process goroutines outlive the run", n)
		}
		if (r.err != nil) != (r.panicked != "") {
			t.Fatalf("Run error %v, but panicked process %q", r.err, r.panicked)
		}
		if r.err != nil && !strings.Contains(r.err.Error(), fmt.Sprintf("process %q panicked", r.panicked)) {
			t.Fatalf("Run error %q does not name process %q", r.err, r.panicked)
		}
		if r.err == nil && r.pending != 0 {
			t.Fatalf("Pending() = %d after a clean Run", r.pending)
		}
		again := runProgram(pr)
		if r.hash() != again.hash() || len(r.log) != len(again.log) {
			for i := range r.log {
				if i >= len(again.log) || r.log[i] != again.log[i] {
					t.Fatalf("runs diverge at line %d: %q", i, r.log[i])
				}
			}
			t.Fatalf("second run logged %d lines, first %d", len(again.log), len(r.log))
		}
	})
}
