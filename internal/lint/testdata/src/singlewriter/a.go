package singlewriter // want "single-writer domain \"ghost\" names singlewriter.\\(\\*gone\\)\\.run as its owning dispatch loop but it no longer exists"

// Golden tests for the singlewriter analyzer. The test harness swaps
// lint.WriterDomains for a testdata registry:
//
//	clock  — owner (*looper).run, state {set, current, (*looper).reset}
//	silent — owner quietLoop (exists, never annotated)
//	forker — owner (*forker).run (annotated, but spawns a goroutine)
//	ghost  — owner (*gone).run (does not exist)

type looper struct{ cur string }

// run is the registered dispatch loop of the clock domain: its synchronous
// calls into the state surface are the sanctioned single-writer path.
//
//lint:singlewriter clock
func (l *looper) run() {
	set(l, "boot")
	_ = current(l)
	l.reset()
	l.drive()
	l.driveEscape()
}

// The clock domain's registered state surface.

func set(l *looper, r string)  { l.cur = r }
func current(l *looper) string { return l.cur }
func (l *looper) reset()       { l.cur = "" }

// imposter carries the annotation without being the registered owner.
//
//lint:singlewriter clock // want "imposter is not the registered owner of single-writer domain \"clock\""
func imposter() {}

// pretender declares a domain the registry has never heard of.
//
//lint:singlewriter mystery // want "unknown single-writer domain \"mystery\""
func pretender() {}

// quietLoop is the registered owner of the silent domain but lost its
// annotation.
func quietLoop() { // want "quietLoop is the owning dispatch loop of single-writer domain \"silent\" and must be annotated //lint:singlewriter silent"
}

type forker struct{}

// run owns the forker domain but forks inside it.
//
//lint:singlewriter forker
func (f *forker) run() {
	go func() {}() // want "the //lint:singlewriter forker dispatch loop \\(\\*forker\\)\\.run spawns a goroutine"
}

// spawnDirect hands clock state straight to a new goroutine.
func spawnDirect(l *looper) {
	go func() {
		set(l, "raced") // want "call to singlewriter.set from goroutine-spawned code: it is single-writer state of domain \"clock\""
		l.reset()       // want "call to singlewriter.\\(\\*looper\\)\\.reset from goroutine-spawned code"
	}()
}

// spawnVar spawns a closure through a local variable; the taint follows the
// literal the variable holds.
func spawnVar(l *looper) {
	work := func() { _ = current(l) } // want "call to singlewriter.current from goroutine-spawned code"
	go work()
}

// spawnNamed spawns a named function; the taint is transitive through the
// package-local call graph.
func spawnNamed(l *looper) {
	go worker(l)
}

func worker(l *looper) {
	helper(l)
}

func helper(l *looper) {
	set(l, "transitively raced") // want "call to singlewriter.set from goroutine-spawned code"
}

// spawnArg passes a closure into the spawned call; the callee may run it on
// the new goroutine, so it is tainted too.
func spawnArg(l *looper) {
	go runner(func() {
		set(l, "handed off") // want "call to singlewriter.set from goroutine-spawned code"
	})
}

func runner(f func()) { f() }

// spawnWaived documents per-instance ownership the analysis cannot see.
func spawnWaived(l *looper) {
	go func() {
		//lint:allow-concurrent this goroutine owns its own cell-local looper
		set(l, "sanctioned")
	}()
}

// spawnOwner starts the dispatch loop itself: entering the domain, not
// escaping it — reachability stops at the owner.
func spawnOwner(l *looper) {
	go l.run()
}

// Poke is a new public entry point into clock state that was never
// registered as part of the contract surface.
func Poke(l *looper) { // want "exported function Poke reaches single-writer state singlewriter.set \\(domain \"clock\"\\)"
	set(l, "poked")
}

// Sanctioned is the waived flavour of the same thing.
//
//lint:allow-concurrent test hook; callers hold the loop stopped
func Sanctioned(l *looper) {
	set(l, "sanctioned")
}

// Indirect reaches state two hops deep; the exported-path check is
// transitive within the package.
func Indirect(l *looper) { // want "exported function Indirect reaches single-writer state singlewriter.current \\(domain \"clock\"\\)"
	_ = peek(l)
}

func peek(l *looper) string { return current(l) }

// StartLoop only enters the domain through its owner — allowed.
func StartLoop(l *looper) {
	l.run()
}
