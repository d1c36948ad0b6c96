// Package dettaint is the analyzer fixture: each line marked `want`
// must be flagged, every other line must stay clean. The package plays
// the role of a deterministic package (testdata opts into every
// analyzer's scope): exported functions must not emit values that
// depend on map order, the clock, global rand, %p, or goroutine order.
package dettaint

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// BadKeys returns map keys in iteration order.
func BadKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks // want "map iteration order"
}

// GoodKeys sorts before returning: the sanitizer clears order taint.
func GoodKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// BadValues returns map values in iteration order.
func BadValues(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out // want "map iteration order"
}

// BadKeyValue returns the key of the largest value: of two keys with
// equal values, the one ranged first wins.
func BadKeyValue(m map[string]int) string {
	best, arg := 0, ""
	for k, v := range m {
		if v > best {
			best, arg = v, k
		}
	}
	return arg // want "map iteration order"
}

// GoodCollect collects the keys, sorts them, and ranges the slice.
func GoodCollect(m map[string]int) []int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// GoodSlice ranges a slice; only maps are order-randomized.
func GoodSlice(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}

// GoodCount ranges a map without reading its keys or values: the count
// is the same in every order, and no directive is needed.
func GoodCount(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// keysOf is the unexported helper BadDeep launders its taint through:
// its own returns are not API surface, so the finding lands on BadDeep.
func keysOf(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// BadDeep emits nondeterminism produced two frames down.
func BadDeep(m map[string]int) []string {
	return keysOf(m) // want "map iteration order"
}

// BadStore writes map-ordered data through an out-parameter.
func BadStore(dst []string, src map[string]int) {
	i := 0
	for k := range src {
		dst[i] = k // want "stored through a parameter"
		i++
	}
}

// BadClock leaks the wall clock through a plain integer result.
func BadClock() int64 {
	return time.Now().UnixNano() // want "the wall clock"
}

// GoodDuration routes the measurement through a timing-typed result.
func GoodDuration() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// BadRand draws from the process-global generator.
func BadRand() int {
	return rand.Intn(10) // want "math/rand"
}

// GoodSeeded consumes an injected generator: arg identity, no source.
func GoodSeeded(r *rand.Rand) int {
	return r.Intn(10)
}

// BadPtr formats a pointer value.
func BadPtr(x *int) string {
	return fmt.Sprintf("%p", x) // want "pointer formatting"
}

// BadSelect returns whichever channel wins the race.
func BadSelect(a, b chan int) int {
	var v int
	select {
	case v = <-a:
	case v = <-b:
	}
	return v // want "goroutine completion order"
}
