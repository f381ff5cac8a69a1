// Package core is the micro-ODP kernel: the paper's computational and
// engineering viewpoints realised with the extensions §4.2.2 argues for.
//
// Computational viewpoint: objects offer named operational interfaces whose
// signatures carry QoS annotations; a trader matches importers to exported
// offers with compatibility checking (qos.Params.Satisfies) at import and
// bind time; bindings are explicit, first-class objects — operational
// (request/reply), stream (continuous media, via package stream) and group
// (one-to-many invocation, §4.2.2.iv).
//
// Engineering viewpoint: objects live in clusters inside capsules on nodes
// (package mgmt decides and revises placement); invocations travel the
// simulated network, so placement and link quality are what an invocation's
// latency measures.
//
// Deliberate departure from classical ODP, following the paper's central
// argument (§4.2.1): transparency is *selectively relaxed in favour of
// awareness*. Every binding emits observable events (bound, invoke, reply,
// unbound) that applications can feed into the awareness engine — other
// users' activity is a feature, not something to mask.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/fabric"
	"repro/internal/mgmt"
	"repro/internal/netsim"
	"repro/internal/qos"
)

// Errors returned by the kernel.
var (
	ErrUnknownObject  = errors.New("core: unknown object")
	ErrUnknownIface   = errors.New("core: unknown interface")
	ErrUnknownOp      = errors.New("core: unknown operation")
	ErrNoOffers       = errors.New("core: no matching offers")
	ErrIncompatible   = errors.New("core: QoS annotations incompatible")
	ErrUnbound        = errors.New("core: binding is not established")
	ErrNodeUnattached = errors.New("core: node not attached to kernel")
)

// Operation is one operational-interface method. Arguments and results are
// strings (the kernel is a coordination substrate, not an IDL compiler).
type Operation func(caller, arg string) (string, error)

// Interface is a named operational interface with a service type for
// trading and a provided-QoS annotation.
type Interface struct {
	Name string
	Type string // service type, e.g. "flightplan/query"
	QoS  qos.Params
	Ops  map[string]Operation
}

// Object is a computational object: identity plus interfaces, hosted in a
// cluster (engineering viewpoint).
type Object struct {
	ID      string
	Cluster string
	ifaces  map[string]*Interface
}

// Interfaces lists the object's interface names, sorted.
func (o *Object) Interfaces() []string {
	out := make([]string, 0, len(o.ifaces))
	for n := range o.ifaces {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Offer is a trader entry: an exported interface and where it lives.
type Offer struct {
	Object    string
	Interface string
	Type      string
	QoS       qos.Params
	Node      string
}

// EventKind classifies binding events.
type EventKind int

const (
	// EvBound reports a binding being established.
	EvBound EventKind = iota + 1
	// EvInvoke reports an invocation leaving the client.
	EvInvoke
	// EvReply reports a reply arriving at the client.
	EvReply
	// EvUnbound reports a binding being torn down.
	EvUnbound
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EvBound:
		return "bound"
	case EvInvoke:
		return "invoke"
	case EvReply:
		return "reply"
	case EvUnbound:
		return "unbound"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is an observable binding event — the awareness hook.
type Event struct {
	Kind    EventKind
	Binding string
	Client  string // client node
	Object  string
	Op      string
	At      time.Duration
}

// Kernel ties the pieces together. Single-threaded over the simulator.
type Kernel struct {
	sim     *netsim.Sim
	mgr     *mgmt.Manager
	objects map[string]*Object
	offers  []Offer
	eps     map[string]fabric.Endpoint // endpoints the kernel messages through
	nextBnd int
	nextInv uint64
	pending map[uint64]*pendingInv
	// OnEvent observes binding events; nil discards.
	OnEvent func(Event)
}

type pendingInv struct {
	cb      func(result string, err error)
	binding string
	client  string
	object  string
	op      string
}

// kernel wire messages.
type invokeMsg struct {
	ID     uint64
	Object string
	Iface  string
	Op     string
	Caller string
	Arg    string
}

type replyMsg struct {
	ID     uint64
	Result string
	Err    string
}

// NewKernel creates a kernel over a simulation and a management system.
func NewKernel(sim *netsim.Sim, mgr *mgmt.Manager) *Kernel {
	return &Kernel{
		sim:     sim,
		mgr:     mgr,
		objects: make(map[string]*Object),
		eps:     make(map[string]fabric.Endpoint),
		pending: make(map[uint64]*pendingInv),
	}
}

// AttachNode claims a simulated node for kernel messaging (server or
// client side), wrapping it in a fabric endpoint.
func (k *Kernel) AttachNode(id string) error {
	if _, ok := k.eps[id]; ok {
		return nil
	}
	n := k.sim.Node(id)
	if n == nil {
		return fmt.Errorf("core: %w %q", netsim.ErrUnknownNode, id)
	}
	return k.AttachEndpoint(fabric.FromSim(n))
}

// AttachEndpoint claims an arbitrary fabric endpoint for kernel messaging,
// installing its handler. This is how a kernel runs over substrates other
// than the simulator; wrap ep first (fabric.Wrap) to interpose middleware.
func (k *Kernel) AttachEndpoint(ep fabric.Endpoint) error {
	k.eps[ep.ID()] = ep
	ep.SetHandler(func(from string, payload any, size int) { k.receive(from, payload) })
	return nil
}

func (k *Kernel) emit(e Event) {
	if k.OnEvent != nil {
		k.OnEvent(e)
	}
}

// CreateObject creates an object inside a (new) cluster placed by the
// management policy. expected is the anticipated accessor group for
// group-aware placement.
func (k *Kernel) CreateObject(id string, expected map[string]int) (*Object, error) {
	cluster := "cluster:" + id
	node, err := k.mgr.Place(cluster, []string{id}, expected)
	if err != nil {
		return nil, fmt.Errorf("place %s: %w", id, err)
	}
	if err := k.AttachNode(node); err != nil {
		return nil, err
	}
	o := &Object{ID: id, Cluster: cluster, ifaces: make(map[string]*Interface)}
	k.objects[id] = o
	return o, nil
}

// AddInterface attaches an interface to an object.
func (k *Kernel) AddInterface(objID string, iface Interface) error {
	o, ok := k.objects[objID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	cp := iface
	o.ifaces[iface.Name] = &cp
	return nil
}

// NodeOf returns the node currently hosting an object (it changes when the
// management system migrates the cluster).
func (k *Kernel) NodeOf(objID string) (string, error) {
	o, ok := k.objects[objID]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	return k.mgr.NodeOf(o.Cluster)
}

// Export publishes an object's interface to the trader.
func (k *Kernel) Export(objID, ifaceName string) error {
	o, ok := k.objects[objID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	iface, ok := o.ifaces[ifaceName]
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrUnknownIface, objID, ifaceName)
	}
	node, err := k.mgr.NodeOf(o.Cluster)
	if err != nil {
		return err
	}
	k.offers = append(k.offers, Offer{
		Object: objID, Interface: ifaceName, Type: iface.Type, QoS: iface.QoS, Node: node,
	})
	return nil
}

// Import queries the trader for offers of the given service type whose QoS
// annotation satisfies the requirement (compatibility checking). Offers are
// returned sorted by object then interface for determinism.
func (k *Kernel) Import(serviceType string, required qos.Params) ([]Offer, error) {
	var out []Offer
	for _, off := range k.offers {
		if off.Type != serviceType {
			continue
		}
		if !off.QoS.Satisfies(required) {
			continue
		}
		// Refresh the hosting node: the cluster may have migrated.
		if o, ok := k.objects[off.Object]; ok {
			if n, err := k.mgr.NodeOf(o.Cluster); err == nil {
				off.Node = n
			}
		}
		out = append(out, off)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: type %q", ErrNoOffers, serviceType)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Interface < out[j].Interface
	})
	return out, nil
}

// receive dispatches kernel wire messages on any attached endpoint.
func (k *Kernel) receive(from string, payload any) {
	switch msg := payload.(type) {
	case *invokeMsg:
		k.serve(from, msg)
	case *replyMsg:
		k.complete(msg)
	}
}

func (k *Kernel) serve(from string, msg *invokeMsg) {
	rep := &replyMsg{ID: msg.ID}
	o, ok := k.objects[msg.Object]
	if !ok {
		rep.Err = ErrUnknownObject.Error()
	} else if iface, ok2 := o.ifaces[msg.Iface]; !ok2 {
		rep.Err = ErrUnknownIface.Error()
	} else if op, ok3 := iface.Ops[msg.Op]; !ok3 {
		rep.Err = ErrUnknownOp.Error()
	} else {
		res, err := op(msg.Caller, msg.Arg)
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.Result = res
		}
	}
	node, err := k.NodeOf(msg.Object)
	if err != nil {
		return
	}
	ep, ok := k.eps[node]
	if !ok {
		return // hosting node was never attached; reply is unroutable
	}
	_ = ep.Send(from, rep, len(rep.Result)+32)
}

func (k *Kernel) complete(msg *replyMsg) {
	p, ok := k.pending[msg.ID]
	if !ok {
		return
	}
	delete(k.pending, msg.ID)
	k.emit(Event{Kind: EvReply, Binding: p.binding, Client: p.client, Object: p.object, Op: p.op, At: k.sim.Now()})
	if msg.Err != "" {
		p.cb("", errors.New(msg.Err))
		return
	}
	p.cb(msg.Result, nil)
}
