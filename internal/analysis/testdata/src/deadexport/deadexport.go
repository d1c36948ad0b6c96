// Package deadexport is the analyzer fixture: each line marked `want`
// must be flagged, every other line must stay clean.
package deadexport

// Unused has no reference anywhere.
func Unused() int { return 1 } // want "exported function Unused"

// T carries the method cases.
type T struct{}

// Uncalled is an exported method with no caller.
func (T) Uncalled() {} // want "exported method T.Uncalled"

// TestOnly is called only from a _test.go file, which does not count.
func TestOnly() int { return 2 } // want "exported function TestOnly"

// Recursive calls only itself: a recursive call keeps nothing alive.
func Recursive(n int) int { // want "exported function Recursive"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Called has a caller.
func Called() int { return 3 }

func caller() int { return Called() }

// Valued is only ever used as a function value.
func Valued() int { return 4 }

var table = []func() int{Valued}

// Doer is how Do is called.
type Doer interface{ Do() int }

// Do is called only through Doer.
func (T) Do() int { return 5 }

func viaDoer(d Doer) int { return d.Do() }

// String satisfies fmt.Stringer.
func (T) String() string { return "t" }

// Error satisfies error.
func (T) Error() string { return "t" }

// Kept has no caller either, but carries a justification.
//
//lint:ignore deadexport fixture: demonstrates a justified suppression
func Kept() {}
