package singlewriter

import "iter"

// Simulated processes run as runtime coroutines. A body handed to iter.Pull
// runs synchronously under whoever calls next, one side at a time, so a
// coroutine resumed from the owner's call path is inside the owner's
// domain: its state calls are not reported. A go statement inside such a
// body still leaves the domain.

// drive is called by the clock domain's dispatch loop.
func (l *looper) drive() {
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		set(l, "coroutine")
		yield(struct{}{})
		_ = current(l)
		l.reset()
	})
	next()
	next()
}

// driveEscape resumes a coroutine that forks a goroutine; the goroutine is
// outside the domain however it was started.
func (l *looper) driveEscape() {
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		go func() {
			set(l, "escaped") // want "call to singlewriter.set from goroutine-spawned code: it is single-writer state of domain \"clock\""
		}()
		yield(struct{}{})
	})
	next()
}
