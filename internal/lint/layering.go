package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// Layering enforces the import DAG around the fabric seam (DESIGN.md §5):
//
//   - layer-net: only the transport (which owns the sockets) and the fabric
//     (which adapts it) may import net. Everything else is substrate-blind.
//   - layer-transport: internal/fabric adapts internal/transport and
//     internal/daemon builds the TCP edge of the live deployment (listener,
//     the daemon's address for participants, fabric.FromTransport);
//     cmd/cscwbench opens a loopback TCP pair for its fabric_tcp_send_recv
//     row, and internal/bench four loopback group members for its
//     group_seq_tcp_c4 row and a WrapTransport byte counter for its
//     daemon_tcp rows. Commands get the edge from internal/daemon.
//   - layer-netsim: internal/netsim is the discrete-event world — virtual
//     time, topology, QoS links. The fabric adapter and the declared
//     simulation-world packages (bench, chaos, core, exps, mgmt, mobile,
//     simworld, stream) may import it, as may example mains that build demo
//     worlds.
//     The collaboration layers (group, session, ot, txn, floor, rooms, …)
//     must not: they reach the network only through fabric.Endpoint, which
//     is what keeps them runnable over every substrate and keeps the chaos
//     harness able to interpose on all their traffic.
//
// The allowlists below are the checked-in layering policy; extending them
// is a reviewed DESIGN.md change, not a local suppression.
func Layering() *Analyzer {
	netImporters := map[string]bool{
		modulePrefix + "/internal/transport": true,
		modulePrefix + "/internal/fabric":    true,
	}
	transportImporters := map[string]bool{
		modulePrefix + "/internal/fabric": true,
		modulePrefix + "/internal/daemon": true,
		modulePrefix + "/internal/bench":  true,
		modulePrefix + "/cmd/cscwbench":   true,
	}
	netsimImporters := map[string]bool{
		modulePrefix + "/internal/fabric":   true,
		modulePrefix + "/internal/bench":    true,
		modulePrefix + "/internal/chaos":    true,
		modulePrefix + "/internal/core":     true,
		modulePrefix + "/internal/exps":     true,
		modulePrefix + "/internal/mgmt":     true,
		modulePrefix + "/internal/mobile":   true,
		modulePrefix + "/internal/simworld": true,
		modulePrefix + "/internal/stream":   true,
	}
	return &Analyzer{
		Name: "layer-net,layer-transport,layer-netsim",
		Doc:  "imports respect the fabric seam: substrates stay behind fabric.Endpoint",
		Run: func(p *Package) []Diagnostic {
			if !strings.HasPrefix(p.Path, modulePrefix+"/") && p.Path != modulePrefix {
				return nil
			}
			isExample := strings.HasPrefix(p.Path, modulePrefix+"/examples/")
			var out []Diagnostic
			for _, f := range p.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						continue
					}
					switch {
					case path == "net":
						if !netImporters[p.Path] {
							out = append(out, diagImport(p, imp, "layer-net",
								"only internal/transport and internal/fabric may import net; "+
									"use a fabric.Endpoint"))
						}
					case path == modulePrefix+"/internal/transport":
						if !transportImporters[p.Path] {
							out = append(out, diagImport(p, imp, "layer-transport",
								"fabric adapts internal/transport and internal/daemon builds the "+
									"TCP edge; use a fabric.Endpoint, or daemon.New / daemon.Dial"))
						}
					case path == modulePrefix+"/internal/netsim":
						if !netsimImporters[p.Path] && !isExample {
							out = append(out, diagImport(p, imp, "layer-netsim",
								"this package is not a declared simulation-world consumer of "+
									"internal/netsim; collaboration layers ride fabric.Endpoint "+
									"(see DESIGN.md: Enforced invariants)"))
						}
					}
				}
			}
			return out
		},
	}
}

func diagImport(p *Package, imp *ast.ImportSpec, rule, msg string) Diagnostic {
	return Diagnostic{Pos: p.position(imp), Rule: rule, Message: msg}
}
