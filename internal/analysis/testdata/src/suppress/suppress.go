// Package suppress exercises the lint:ignore directive edge cases: a
// directive without a reason (reported, suppresses nothing), a stale
// directive naming the wrong analyzer (reported), and a well-formed one.
package suppress

import "math/rand"

// badDirective lacks the justification, so the finding below survives.
func badDirective() int {
	//lint:ignore seedrand
	return rand.Intn(3)
}

func wrongAnalyzer() int {
	//lint:ignore dropperr this names the wrong analyzer
	return rand.Intn(3)
}

func wellFormed() int {
	//lint:ignore seedrand fixture: demonstrates a justified suppression
	return rand.Intn(3)
}
