// Package ignore exercises //lint:ignore suppression and the lint-directive
// diagnostics for malformed and unused directives.
package ignore

import "time"

func suppressedSameLine() time.Time {
	return time.Now() //lint:ignore det-time fixture: same-line suppression
}

func suppressedLineAbove() time.Time {
	//lint:ignore det-time fixture: line-above suppression
	return time.Now()
}

func wrongRuleDoesNotSuppress() time.Time {
	//lint:ignore det-rand fixture: directive names a different rule // want "lint-directive.*det-rand suppresses no finding"
	return time.Now() // want "det-time"
}

func unknownRule() time.Time {
	//lint:ignore not-a-rule fixture: unknown rules must not suppress // want "lint-directive.*unknown rule"
	return time.Now() // want "det-time"
}

func missingReason() time.Time {
	//lint:ignore det-time
	// want(-1) "lint-directive.*need a rule name and a reason"
	// want(1) "det-time"
	return time.Now()
}

//lint:ignore det-time fixture: a directive reaches its own line and the next, no further
// want(-1) "lint-directive.*det-time suppresses no finding"
var outOfReach = time.Now() // want "det-time"
