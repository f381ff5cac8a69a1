package lint

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// hotpathPins maps every //cscw:hotpath function in the module, as
// "<package>.<receiver>.<name>", to the exact allocation test that runs it,
// as "<package>.<test>". block-lock keeps the annotated closure off blocking
// operations; what a hot-path function allocates is measured by its test,
// not predicted.
var hotpathPins = map[string]string{
	"repro/internal/fabric.Codec.Encode":           "repro/internal/fabric.TestTransportSendAllocs",
	"repro/internal/fabric.Codec.TagOf":            "repro/internal/fabric.TestTransportSendAllocs",
	"repro/internal/fabric.TransportEndpoint.Send": "repro/internal/fabric.TestTransportSendAllocs",
	"repro/internal/fabric.Codec.Decode":           "repro/internal/fabric.TestBinaryDecodeAllocs",
	"repro/internal/fabric.Codec.ParseBody":        "repro/internal/engine.TestItemBodyAllocs",
	"repro/internal/engine.EncodeItemBody":         "repro/internal/engine.TestItemBodyAllocs",
	"repro/internal/engine.DecodeItemBody":         "repro/internal/engine.TestItemBodyAllocs",
	"repro/internal/session.Client.deliver":        "repro/internal/session.TestClientReceivePushAllocs",
	"repro/internal/transport.TCPEndpoint.Send":    "repro/internal/transport.TestTCPSendAllocs",
	"repro/internal/group.Member.Multicast":        "repro/internal/bench.TestMulticastAllocs",
	"repro/internal/group.Member.flush":            "repro/internal/bench.TestMulticastAllocs",
	"repro/internal/group.Member.wireRun":          "repro/internal/bench.TestMulticastAllocs",
	"repro/internal/group.Member.receiveMsgs":      "repro/internal/bench.TestMulticastAllocs",
	"repro/internal/group.Member.order":            "repro/internal/bench.TestMulticastAllocs",
	"repro/internal/netsim.Node.Send":              "repro/internal/netsim.TestSendSteadyStateAllocBudget",
	"repro/internal/netsim.Sim.Send":               "repro/internal/netsim.TestSendSteadyStateAllocBudget",
	"repro/internal/netsim.Sim.SendID":             "repro/internal/netsim.TestSendSteadyStateAllocBudget",
	"repro/internal/netsim.Sim.send":               "repro/internal/netsim.TestSendSteadyStateAllocBudget",
	"repro/internal/netsim.Sim.deliver":            "repro/internal/netsim.TestSendSteadyStateAllocBudget",
	"repro/internal/netsim.Sim.Step":               "repro/internal/netsim.TestSendSteadyStateAllocBudget",
	"repro/internal/netsim.Sim.linkFor":            "repro/internal/netsim.TestSendSteadyStateAllocBudget",
	"repro/internal/netsim.Sim.cutsBlock":          "repro/internal/netsim.TestSendSteadyStateAllocBudget",
	"repro/internal/netsim.nodeSet.has":            "repro/internal/netsim.TestSendSteadyStateAllocBudget",
}

// TestHotpathFunctionsArePinned fails when a //cscw:hotpath function has no
// entry in hotpathPins, when an entry names a function that is gone or lost
// its annotation, and when the test an entry names does not exist.
func TestHotpathFunctionsArePinned(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	annotated := make(map[string]bool)
	tests := make(map[string]bool) // "<package>.<test>" for every top-level func in a test file
	for path, lp := range l.listed {
		files, err := filepath.Glob(filepath.Join(lp.Dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				switch {
				case fd.Recv == nil && strings.HasSuffix(name, "_test.go"):
					tests[path+"."+fd.Name.Name] = true
				case isHotpathAnnotated(fd):
					annotated[path+"."+recvName(fd)+fd.Name.Name] = true
				}
			}
		}
	}
	var missing []string
	for fn := range annotated {
		if hotpathPins[fn] == "" {
			missing = append(missing, fn)
		}
	}
	sort.Strings(missing)
	for _, fn := range missing {
		t.Errorf("%s is //cscw:hotpath but no exact allocation test is named for it in hotpathPins", fn)
	}
	for fn, test := range hotpathPins {
		if !annotated[fn] {
			t.Errorf("hotpathPins names %s, which is not a //cscw:hotpath function", fn)
		}
		if !tests[test] {
			t.Errorf("hotpathPins pins %s with %s, which does not exist", fn, test)
		}
	}
}

// recvName is "<receiver type>." for a method, "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
