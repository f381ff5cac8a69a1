// Topology engine: three-tier link resolution and cut-set partitions.
//
// The flat predecessor stored one map entry per directed node pair, which
// is quadratic in nodes — a 2×5k partition alone materialized 25M entries.
// Here topology state is layered:
//
//	tier 1: explicit pair overrides   (SetLink; map of pairs → descriptor)
//	tier 2: region-pair link classes  (SetRegionLink; dense R×R matrix)
//	tier 3: the simulator default     (New's defaultLink)
//
// A 10k-node two-region world is two region rows and ~4 link descriptors.
// Downness from Partition lives outside the descriptors entirely,
// as a list of directional cut predicates (src-set × dst-set bitsets); a
// send is blocked when any cut covers its (from, to) pair. Healing
// subtracts product sets from the cuts, so partial heals keep the exact
// per-pair semantics of the flat model without per-pair state.
package netsim

// NodeID is a dense integer handle for a registered node. Handles index
// internal slices directly; they are stable for the life of the simulator.
type NodeID int32

// RegionID identifies a link-class region. Nodes added without an explicit
// region land in DefaultRegion.
type RegionID int32

// DefaultRegion is the region of nodes registered via AddNode.
const DefaultRegion RegionID = 0

const defaultRegionName = "default"

// pairKey packs a directed node pair into one map key.
type pairKey uint64

func pk(from, to NodeID) pairKey {
	return pairKey(uint64(uint32(from))<<32 | uint64(uint32(to)))
}

func (k pairKey) split() (from, to NodeID) {
	return NodeID(uint32(k >> 32)), NodeID(uint32(k))
}

// Region returns the RegionID for a named region, creating it on first use.
// Region names are a construction-time convenience; the hot path only sees
// the integer.
func (s *Sim) Region(name string) RegionID {
	if r, ok := s.regionIdx[name]; ok {
		return r
	}
	r := RegionID(len(s.regions))
	s.regions = append(s.regions, name)
	s.regionIdx[name] = r
	for i := range s.regionLink {
		s.regionLink[i] = append(s.regionLink[i], -1)
	}
	row := make([]int32, len(s.regions))
	for i := range row {
		row[i] = -1
	}
	s.regionLink = append(s.regionLink, row)
	return r
}

// SetRegionLink installs the tier-2 link class for messages from region a
// to region b (directional, including a == b for intra-region traffic).
// Every node pair in that region pair shares the one descriptor.
func (s *Sim) SetRegionLink(a, b RegionID, l Link) {
	if int(a) < 0 || int(a) >= len(s.regions) || int(b) < 0 || int(b) >= len(s.regions) {
		return
	}
	if idx := s.regionLink[a][b]; idx >= 0 {
		s.linkDefs[idx] = l
		return
	}
	s.regionLink[a][b] = int32(len(s.linkDefs))
	s.linkDefs = append(s.linkDefs, l)
}

// SetRegionBiLink installs the same region link class in both directions.
func (s *Sim) SetRegionBiLink(a, b RegionID, l Link) {
	s.SetRegionLink(a, b, l)
	s.SetRegionLink(b, a, l)
}

// SetLink installs a tier-1 unidirectional link override between two
// registered nodes. It replaces the pair's effective link wholesale —
// including any downness a Partition had imposed on that
// direction, matching the flat model where SetLink replaced the pair's
// whole state. Unknown node names are ignored (links connect registered
// nodes; use LinkBetween for the would-be default).
func (s *Sim) SetLink(from, to string, l Link) {
	a, aok := s.byName[from]
	b, bok := s.byName[to]
	if !aok || !bok {
		return
	}
	key := pk(a, b)
	if idx, ok := s.pairIdx[key]; ok {
		s.linkDefs[idx] = l
	} else {
		s.pairIdx[key] = int32(len(s.linkDefs))
		s.linkDefs = append(s.linkDefs, l)
	}
	s.subtractCut(s.singleton(a), s.singleton(b))
}

// SetBiLink installs the same link in both directions.
func (s *Sim) SetBiLink(a, b string, l Link) {
	s.SetLink(a, b, l)
	s.SetLink(b, a, l)
}

// linkFor resolves the effective link descriptor for a directed node pair:
// pair override, else region class, else default. Cut-set downness is
// layered on top by the caller (send, LinkBetween).
//
//cscw:hotpath
func (s *Sim) linkFor(from, to *Node) *Link {
	if len(s.pairIdx) != 0 {
		if idx, ok := s.pairIdx[pk(from.nid, to.nid)]; ok {
			return &s.linkDefs[idx]
		}
	}
	if idx := s.regionLink[from.region][to.region]; idx >= 0 {
		return &s.linkDefs[idx]
	}
	return &s.deflt
}

// LinkBetween returns the effective link from one node to another,
// including cut-set downness. Unregistered names see the default link.
func (s *Sim) LinkBetween(from, to string) Link {
	a, aok := s.byName[from]
	b, bok := s.byName[to]
	if !aok || !bok {
		return s.deflt
	}
	l := *s.linkFor(s.nodes[a], s.nodes[b])
	if !l.Down && s.cutsBlock(a, b) {
		l.Down = true
	}
	return l
}

// Cuts reports the number of active cut predicates (diagnostic).
func (s *Sim) Cuts() int { return len(s.cuts) }

// nodeSet is a bitset over NodeIDs. Membership tests bounds-check the word
// index so sets built before later node registrations stay valid.
type nodeSet []uint64

func (ns nodeSet) add(id NodeID) { ns[uint32(id)>>6] |= 1 << (uint32(id) & 63) }

//cscw:hotpath
func (ns nodeSet) has(id NodeID) bool {
	w := uint32(id) >> 6
	return int(w) < len(ns) && ns[w]&(1<<(uint32(id)&63)) != 0
}

func (ns nodeSet) intersects(o nodeSet) bool {
	n := len(ns)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if ns[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// and returns the intersection, or nil when it is empty.
func (ns nodeSet) and(o nodeSet) nodeSet {
	n := len(ns)
	if len(o) < n {
		n = len(o)
	}
	out := make(nodeSet, n)
	any := false
	for i := 0; i < n; i++ {
		out[i] = ns[i] & o[i]
		any = any || out[i] != 0
	}
	if !any {
		return nil
	}
	return out
}

// andNot returns ns minus o, or nil when the difference is empty.
func (ns nodeSet) andNot(o nodeSet) nodeSet {
	out := make(nodeSet, len(ns))
	any := false
	for i := range ns {
		w := ns[i]
		if i < len(o) {
			w &^= o[i]
		}
		out[i] = w
		any = any || w != 0
	}
	if !any {
		return nil
	}
	return out
}

// cut is a directional partition predicate: traffic from any node in src to
// any node in dst is severed.
type cut struct {
	src, dst nodeSet
}

// cutsBlock reports whether any active cut severs the directed pair. The
// common case is an empty or tiny cut list, so this is a linear scan.
//
//cscw:hotpath
func (s *Sim) cutsBlock(from, to NodeID) bool {
	for i := range s.cuts {
		if s.cuts[i].src.has(from) && s.cuts[i].dst.has(to) {
			return true
		}
	}
	return false
}

// setOf builds a nodeSet from names, skipping unregistered ones. Returns
// nil when no name resolves.
func (s *Sim) setOf(ids []string) nodeSet {
	ns := newNodeSetFor(len(s.nodes))
	any := false
	for _, id := range ids {
		if nid, ok := s.byName[id]; ok {
			ns.add(nid)
			any = true
		}
	}
	if !any {
		return nil
	}
	return ns
}

func (s *Sim) singleton(id NodeID) nodeSet {
	ns := newNodeSetFor(len(s.nodes))
	ns.add(id)
	return ns
}

func newNodeSetFor(nodes int) nodeSet {
	return make(nodeSet, (nodes+63)/64)
}

// Partition severs all links between the two groups of nodes, in both
// directions, by installing two cut predicates — O(nodes/64) allocation
// regardless of group sizes, where the flat model materialized
// |A|×|B| per-pair entries. Self-pairs (a node appearing in only one
// group sending to itself) are unaffected. Unregistered names are skipped.
// Heal restores the severed pairs.
func (s *Sim) Partition(groupA, groupB []string) {
	a := s.setOf(groupA)
	b := s.setOf(groupB)
	if a == nil || b == nil {
		return
	}
	s.cuts = append(s.cuts, cut{src: a, dst: b}, cut{src: b, dst: a})
}

// Heal restores all links between the two groups by subtracting the
// product sets A×B and B×A from every active cut. A heal of pairs that
// were never severed is a no-op; a partial heal (subset groups) leaves the
// remaining pairs severed, exactly as per-pair heals would.
// Heal also clears the Down flag on tier-1 pair overrides between the
// groups, mirroring the flat model where healing rewrote per-pair state.
func (s *Sim) Heal(groupA, groupB []string) {
	a := s.setOf(groupA)
	b := s.setOf(groupB)
	if a == nil || b == nil {
		return
	}
	s.subtractCut(a, b)
	s.subtractCut(b, a)
	s.clearOverrideDown(a, b)
	s.clearOverrideDown(b, a)
}

// subtractCut removes the product set hs×hd from every active cut, using
// the identity  (src×dst) ∖ (hs×hd) = (src∖hs)×dst  ∪  (src∩hs)×(dst∖hd).
// Cuts that become empty disappear.
func (s *Sim) subtractCut(hs, hd nodeSet) {
	if hs == nil || hd == nil || len(s.cuts) == 0 {
		return
	}
	next := s.cuts[:0]
	grown := []cut(nil)
	for _, c := range s.cuts {
		if !c.src.intersects(hs) || !c.dst.intersects(hd) {
			next = append(next, c)
			continue
		}
		if rest := c.src.andNot(hs); rest != nil {
			next = append(next, cut{src: rest, dst: c.dst})
		}
		if hit := c.src.and(hs); hit != nil {
			if restDst := c.dst.andNot(hd); restDst != nil {
				grown = append(grown, cut{src: hit, dst: restDst})
			}
		}
	}
	s.cuts = append(next, grown...)
}

// clearOverrideDown clears the Down flag on tier-1 pair overrides whose
// directed pair falls in src×dst. Iteration order over the override map is
// irrelevant: each entry is inspected independently and the effect is a
// flag clear.
func (s *Sim) clearOverrideDown(src, dst nodeSet) {
	if src == nil || dst == nil {
		return
	}
	for key, idx := range s.pairIdx {
		if !s.linkDefs[idx].Down {
			continue
		}
		from, to := key.split()
		if src.has(from) && dst.has(to) {
			s.linkDefs[idx].Down = false
		}
	}
}
