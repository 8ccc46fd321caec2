// Package detrange seeds order-bearing map iteration for the detrange
// analyzer. Calls to functions in this package count as "local" calls that
// may reach simulation state.
package detrange

import "sort"

// Kernel stands in for the event scheduler.
type Kernel struct{ seq int }

// Schedule is an order-bearing effect: each call consumes a sequence number.
func (k *Kernel) Schedule(host int) { k.seq++ }

func pure(x int) int { return x + 1 }

func violations(k *Kernel, m map[int]string, ch chan int) {
	for h := range m { // want "map iteration order is random but the loop body calls Schedule"
		k.Schedule(h)
	}
	for h := range m { // want "map iteration order is random but the loop body calls pure"
		_ = pure(h)
	}
	for h := range m { // want "map iteration order is random but the loop body sends on a channel"
		ch <- h
	}
	var hosts []int
	for h := range m { // want "map iteration order is random but the loop body appends"
		hosts = append(hosts, h)
	}
	_ = hosts

	fn := func(int) {}
	for h := range m { // want "map iteration order is random but the loop body calls through a function value"
		fn(h)
	}
}

// argmax keeps the largest load and the host it lives on. The maximum is
// order-insensitive, but with two hosts at the same load the host it reports
// is whichever the iteration happens to visit first.
func argmax(load map[int]float64) (int, float64) {
	best, bestHost := 0.0, -1
	for h, l := range load { // want "map iteration order is random but the loop body stores the iteration key in bestHost"
		if l > best {
			best, bestHost = l, h
		}
	}
	return bestHost, best
}

func legal(k *Kernel, m map[int]string) {
	// Commutative aggregation: no order-bearing effect.
	total := 0
	for h := range m {
		total += h
	}

	// Writes into another map keyed by the iteration variable commute.
	out := make(map[int]int, len(m))
	for h, v := range m {
		out[h] = len(v)
	}

	// The collect-then-sort idiom: iteration order never escapes.
	keys := make([]int, 0, len(m))
	for h := range m {
		keys = append(keys, h)
	}
	sort.Ints(keys)
	for _, h := range keys {
		k.Schedule(h)
	}

	// Type conversions are not effectful calls.
	for h := range m {
		_ = int64(h)
	}

	// Keyed writes and writes through loop variables are per key, not a
	// single winner.
	first := make(map[int]int, len(m))
	for h := range m {
		first[h] = h
	}
	type slot struct{ host int }
	slots := make(map[int]*slot, len(m))
	for h, s := range slots {
		s.host = h
	}

	// Argmax over sorted keys: ties resolve to the lowest key every run.
	load := map[int]float64{}
	hostKeys := make([]int, 0, len(load))
	for h := range load {
		hostKeys = append(hostKeys, h)
	}
	sort.Ints(hostKeys)
	best, bestHost := 0.0, -1
	for _, h := range hostKeys {
		if l := load[h]; l > best {
			best, bestHost = l, h
		}
	}
	_ = bestHost

	//lint:allow-maprange drain order does not reach the kernel
	for h := range m {
		k.Schedule(h)
	}
}
