// Package layer exercises the layering rules from a path that is on no
// allowlist (lint_test.go loads it as a collaboration-layer package).
package layer

import (
	_ "net"                      // want "layer-net"
	_ "repro/internal/netsim"    // want "layer-netsim"
	_ "repro/internal/transport" // want "layer-transport.*internal/daemon builds the TCP edge"
)
