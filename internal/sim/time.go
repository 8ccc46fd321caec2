// Package sim implements a deterministic discrete-event simulation kernel
// in the style of CSIM: simulated processes are runtime coroutines that run
// one at a time under the control of a central event scheduler, communicate
// through priority mailboxes, and contend for capacity-one resources.
//
// The kernel is the substrate on which the wide-area data-combination study
// (Ranganathan, Acharya, Saltz; ICDCS 1998) is reproduced: hosts, NICs, disks
// and operators are all sim processes. Determinism is guaranteed by running
// exactly one process or callback at a time and breaking event-time ties by
// insertion sequence. The kernel only orders events; it draws no random
// numbers. Each model that needs randomness (workload, traces, placement,
// faults, tenants) owns its own seeded stream.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured in nanoseconds since the start
// of the simulation. It is deliberately distinct from wall-clock time.Time:
// simulations must never consult the real clock.
type Time int64

// Common simulated-time constants, mirroring time.Duration's units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the time (an offset from simulation start) into a
// time.Duration of the same length.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the time d later than t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the time as seconds with millisecond precision, e.g.
// "123.456s", which keeps simulation logs compact and diffable.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromDuration converts a time.Duration into a Time offset.
func FromDuration(d time.Duration) Time { return Time(d) }

// FromSeconds converts a floating-point number of seconds into a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }
