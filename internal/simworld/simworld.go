// Package simworld builds simulated deployments: a seeded netsim world whose
// nodes are fabric endpoints, the named link shapes laid over them, and the
// protocol stacks (group members, a session, convergence-engine replicas)
// that run on those endpoints. It is the one builder under the three
// harnesses — internal/exps, internal/bench and internal/chaos — so a table
// row, a benchmark row and a fault scenario stand on the same wiring and
// differ only in the script they run and, for chaos, in what Wrap interposes
// on every node.
package simworld

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/workload"
)

// World is a seeded simulator plus one fabric endpoint per node, created on
// first use in call order — the deterministic order everything downstream
// (link RNG draws, traces, ledgers) depends on.
type World struct {
	Seed int64
	Sim  *netsim.Sim
	// Wrap, when set, is called once per node as it is created and returns
	// the endpoint the rest of the world sees: chaos chains its stall, fault,
	// metrics and digest middlewares here. Set it before the first Endpoint.
	Wrap func(id string, base *fabric.SimEndpoint) fabric.Endpoint

	eps map[string]fabric.Endpoint
}

// New returns an empty world whose unconfigured pairs use link.
func New(seed int64, link netsim.Link) *World {
	return &World{Seed: seed, Sim: netsim.New(seed, link), eps: make(map[string]fabric.Endpoint)}
}

// After schedules fn on the virtual clock; it makes the world a group.Timer
// and is the timer shape the fabric fault and stall injectors take.
func (w *World) After(d time.Duration, fn func()) { w.Sim.At(d, fn) }

// Endpoint returns (creating on first use) the named node's endpoint.
func (w *World) Endpoint(id string) fabric.Endpoint {
	return w.EndpointAt(netsim.DefaultRegion, id)
}

// EndpointAt is Endpoint with the node placed in a topology region (see
// Cluster). The region only matters on first use; later calls return the
// existing endpoint wherever it lives.
func (w *World) EndpointAt(r netsim.RegionID, id string) fabric.Endpoint {
	if ep, ok := w.eps[id]; ok {
		return ep
	}
	base := fabric.FromSim(w.Sim.MustAddNodeAt(r, id))
	var ep fabric.Endpoint = base
	if w.Wrap != nil {
		ep = w.Wrap(id, base)
	}
	w.eps[id] = ep
	return ep
}

// Named ensures an endpoint exists for each id and returns the ids.
func (w *World) Named(ids ...string) []string {
	for _, id := range ids {
		w.Endpoint(id)
	}
	return ids
}

// FullMesh ensures endpoints and installs the link on every directed pair.
func (w *World) FullMesh(link netsim.Link, ids ...string) []string {
	w.Named(ids...)
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			w.Sim.SetBiLink(a, b, link)
		}
	}
	return ids
}

// Star ensures endpoints and wires each leaf to the center: up is the
// leaf→center link, down the center→leaf link.
func (w *World) Star(center string, up, down netsim.Link, leaves ...string) {
	w.Endpoint(center)
	for _, id := range leaves {
		w.Endpoint(id)
		w.Sim.SetLink(id, center, up)
		w.Sim.SetLink(center, id, down)
	}
}

// Cluster is a region-backed set of nodes sharing one intra-region link
// class — the scalable shape: no per-pair link state however many nodes.
type Cluster struct {
	Name   string
	Region netsim.RegionID
	IDs    []string
}

// Gateway is the cluster's designated bridge node (its first member).
func (c *Cluster) Gateway() string { return c.IDs[0] }

// Cluster creates a named region holding n prefix-numbered nodes whose
// intra-region traffic uses the given link class.
func (w *World) Cluster(name, prefix string, n int, intra netsim.Link) *Cluster {
	r := w.Sim.Region(name)
	w.Sim.SetRegionLink(r, r, intra)
	c := &Cluster{Name: name, Region: r, IDs: workload.Users(prefix, n)}
	for _, id := range c.IDs {
		w.EndpointAt(r, id)
	}
	return c
}

// In adds one extra node to a cluster's region (e.g. an arbiter or host
// living inside the same LAN) and returns its id.
func (w *World) In(c *Cluster, id string) string {
	w.EndpointAt(c.Region, id)
	c.IDs = append(c.IDs, id)
	return id
}

// Isolate severs direct traffic between two clusters' regions (both
// directions): only explicit pair overrides — bridges — connect them.
func (w *World) Isolate(a, b *Cluster) {
	w.Sim.SetRegionBiLink(a.Region, b.Region, netsim.Link{Down: true})
}

// Bridge wires the two clusters' gateways together with an explicit pair
// override — the single WAN pipe between otherwise isolated LANs.
func (w *World) Bridge(a, b *Cluster, link netsim.Link) (gwA, gwB string) {
	gwA, gwB = a.Gateway(), b.Gateway()
	w.Sim.SetBiLink(gwA, gwB, link)
	return gwA, gwB
}

// Members builds one group.Member per id on the world's endpoints, timed by
// the virtual clock, and installs the initial view over all of them. deliver
// is called once per id to produce that member's delivery callback.
func (w *World) Members(ids []string, ordering group.Ordering, batch group.BatchConfig, deliver func(id string) func(group.Delivery)) (map[string]*group.Member, error) {
	members := make(map[string]*group.Member, len(ids))
	for _, id := range ids {
		m, err := group.NewMember(group.Config{
			Endpoint: w.Endpoint(id),
			Timer:    w,
			Ordering: ordering,
			Batch:    batch,
			Deliver:  deliver(id),
		})
		if err != nil {
			return nil, fmt.Errorf("simworld: member %s: %w", id, err)
		}
		members[id] = m
	}
	view := group.NewView(1, ids)
	for _, id := range ids {
		members[id].InstallView(view)
	}
	return members, nil
}

// Session builds a session host and one client per id on the world's
// endpoints. It lays no links: wire a Star first where the default link (or
// a cluster's region class) is not what the session should run over.
func (w *World) Session(host string, mode session.Mode, clientIDs ...string) (*session.Host, map[string]*session.Client) {
	h := session.NewHost(w.Endpoint(host), mode, w.Sim.Now)
	cls := make(map[string]*session.Client, len(clientIDs))
	for _, id := range clientIDs {
		cls[id] = session.NewClient(w.Endpoint(id), host)
	}
	return h, cls
}
