package route

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/group"
)

// Tagged is the wire wrapper a DomainSet multicasts: the document key
// rides with the body so receivers can hand deliveries to the right
// document without a side channel. One wrapper type serves every domain —
// the shard is implied by which member carried it.
type Tagged struct {
	Doc  string
	Body any
}

// Config assembles a DomainSet.
type Config struct {
	// Node is this process's name; member ids become MemberID(Node, shard).
	Node string
	// Router fixes the shard count and key placement. Every node in the
	// deployment must use an identically configured router.
	Router *Router
	// Ordering, Timer and Batch are passed through to each domain's group
	// member (see group.Config).
	Ordering group.Ordering
	Timer    group.Timer
	Batch    group.BatchConfig
	// Endpoint returns the fabric endpoint for one domain member. Called
	// once per shard with MemberID(Node, shard); deployments back it with
	// netsim nodes, hub endpoints, or middleware-wrapped variants.
	Endpoint func(memberID string) fabric.Endpoint
	// Deliver consumes ordered deliveries, annotated with the document key
	// they were multicast under. From is rewritten to the node name.
	Deliver func(doc string, d group.Delivery)
}

// DomainSet is one node's presence in every ordering domain: one group
// member per shard, sharing nothing, so ordering stalls cannot propagate
// across domains. Multicast routes by document key; deliveries funnel into
// the single Deliver callback with the document restored.
type DomainSet struct {
	cfg     Config
	members []*group.Member
}

// NewDomainSet builds the per-domain members.
func NewDomainSet(cfg Config) (*DomainSet, error) {
	if cfg.Node == "" {
		return nil, errors.New("route: config needs a node name")
	}
	if cfg.Router == nil {
		return nil, errors.New("route: config needs a router")
	}
	if cfg.Endpoint == nil {
		return nil, errors.New("route: config needs an endpoint factory")
	}
	ds := &DomainSet{cfg: cfg}
	for shard := 0; shard < cfg.Router.Shards(); shard++ {
		deliver := cfg.Deliver
		m, err := group.NewMember(group.Config{
			Endpoint: cfg.Endpoint(MemberID(cfg.Node, shard)),
			Timer:    cfg.Timer,
			Ordering: cfg.Ordering,
			Batch:    cfg.Batch,
			Deliver: func(d group.Delivery) {
				doc := ""
				switch tg := d.Body.(type) {
				case Tagged:
					doc, d.Body = tg.Doc, tg.Body
				case *Tagged:
					doc, d.Body = tg.Doc, tg.Body
				}
				d.From = NodeOf(d.From)
				if deliver != nil {
					deliver(doc, d)
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("route: member for %s: %w", DomainName(shard), err)
		}
		ds.members = append(ds.members, m)
	}
	return ds, nil
}

// InstallViews installs membership across every domain: view id viewID,
// with each node of nodes present in each domain under its per-domain
// member id.
func (ds *DomainSet) InstallViews(viewID uint64, nodes []string) {
	for shard, m := range ds.members {
		ids := make([]string, len(nodes))
		for i, n := range nodes {
			ids[i] = MemberID(n, shard)
		}
		m.InstallView(group.NewView(viewID, ids))
	}
}

// Multicast routes body to doc's ordering domain. Ordering holds per
// domain: two documents on different shards have independent sequences.
//
//cscw:hotpath
func (ds *DomainSet) Multicast(doc string, body any, size int) error {
	//lint:ignore hot-alloc one Tagged wrapper boxed per multicast is the documented cost of carrying the doc key on the wire
	return ds.members[ds.cfg.Router.Shard(doc)].Multicast(Tagged{Doc: doc, Body: body}, size)
}

// Flush flushes any pending batch in every domain (no-op when batching is
// off or buffers are empty).
func (ds *DomainSet) Flush() {
	for _, m := range ds.members {
		m.Flush()
	}
}

// Member exposes the group member for one shard (experiments stall or
// probe individual domains through it).
func (ds *DomainSet) Member(shard int) *group.Member { return ds.members[shard] }

// Shards returns the domain count.
func (ds *DomainSet) Shards() int { return len(ds.members) }
