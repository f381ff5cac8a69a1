// Package mgmt implements the ODP engineering-viewpoint management
// functions the paper examines (§4.2.1 "Management"): nodes host capsules,
// capsules host clusters of objects, and the management system decides the
// *initial placement* of clusters (node management) and their subsequent
// *re-location* (cluster management / migration).
//
// The paper's point is that these functions must be group-aware: an object
// shared by a geographically dispersed group should sit where every member
// gets similar real-time response, and should move when the pattern of use
// shifts. The package therefore offers a naive first-fit policy (the
// baseline), a random policy, and a group-aware policy that minimises the
// worst member's round-trip time using the monitored usage pattern;
// experiment E8 compares them.
package mgmt

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/netsim"
)

// Policy selects the placement strategy.
type Policy int

const (
	// FirstFit places every cluster on the first registered node.
	FirstFit Policy = iota + 1
	// Random places clusters on a uniformly random node.
	Random
	// GroupAware places clusters to minimise the worst accessing member's
	// round-trip time, weighted by access frequency for tie-breaking.
	GroupAware
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case Random:
		return "random"
	case GroupAware:
		return "group-aware"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Errors returned by the manager.
var (
	ErrUnknownCluster = errors.New("mgmt: unknown cluster")
	ErrUnknownNode    = errors.New("mgmt: unknown node")
	ErrNoNodes        = errors.New("mgmt: no nodes registered")
)

// Capsule is an address space on a node (one per node suffices for the
// experiments; more can be created for isolation).
type Capsule struct {
	ID   string
	Node string
}

// Cluster is the unit of placement and migration: a named group of objects
// plus its observed usage pattern.
type Cluster struct {
	ID      string
	Capsule string
	usage   map[string]int // accessing site -> access count
}

// Migration records one cluster move.
type Migration struct {
	Cluster  string
	From, To string
	At       time.Duration
	// Gain is the worst-member RTT saved by the move.
	Gain time.Duration
}

// Manager is the management system over a simulated network.
type Manager struct {
	sim      *netsim.Sim
	policy   Policy
	rng      *rand.Rand
	nodes    []string
	capsules map[string]*Capsule
	clusters map[string]*Cluster
	nextCap  int
	// OnMigrate observes migrations.
	OnMigrate func(m Migration)
}

// NewManager creates a manager using the given placement policy. The RNG
// seeds the Random policy.
func NewManager(sim *netsim.Sim, policy Policy, seed int64) *Manager {
	return &Manager{
		sim:      sim,
		policy:   policy,
		rng:      rand.New(rand.NewSource(seed)),
		capsules: make(map[string]*Capsule),
		clusters: make(map[string]*Cluster),
	}
}

// AddNode registers a managed node (must exist in the simulation).
func (m *Manager) AddNode(id string) error {
	if m.sim.Node(id) == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	m.nodes = append(m.nodes, id)
	sort.Strings(m.nodes)
	return nil
}

// capsuleOn finds or creates a capsule on node.
func (m *Manager) capsuleOn(node string) *Capsule {
	for _, c := range m.capsules {
		if c.Node == node {
			return c
		}
	}
	m.nextCap++
	c := &Capsule{ID: fmt.Sprintf("capsule-%d", m.nextCap), Node: node}
	m.capsules[c.ID] = c
	return c
}

// NodeOf returns the node currently hosting a cluster.
func (m *Manager) NodeOf(clusterID string) (string, error) {
	cl, ok := m.clusters[clusterID]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownCluster, clusterID)
	}
	return m.capsules[cl.Capsule].Node, nil
}

// rtt estimates the round-trip time between a site and a node.
func (m *Manager) rtt(site, node string) time.Duration {
	if site == node {
		return 0
	}
	a := m.sim.LinkBetween(site, node)
	b := m.sim.LinkBetween(node, site)
	return a.Latency + b.Latency
}

// GroupCost evaluates hosting the cluster on node against the expected
// accessor group: the worst member RTT and the access-weighted mean RTT.
func (m *Manager) GroupCost(group map[string]int, node string) (worst, mean time.Duration) {
	total := 0
	var sum time.Duration
	for site, n := range group {
		r := m.rtt(site, node)
		if r > worst {
			worst = r
		}
		sum += r * time.Duration(n)
		total += n
	}
	if total > 0 {
		mean = sum / time.Duration(total)
	}
	return worst, mean
}

// bestNode picks the node minimising worst-member RTT (mean as tie-break).
func (m *Manager) bestNode(group map[string]int) string {
	best := ""
	var bestWorst, bestMean time.Duration
	for _, n := range m.nodes {
		w, mn := m.GroupCost(group, n)
		if best == "" || w < bestWorst || (w == bestWorst && mn < bestMean) {
			best, bestWorst, bestMean = n, w, mn
		}
	}
	return best
}

// Place creates and places a cluster. expected is the anticipated accessor
// group (site -> expected access weight); the naive policies ignore it.
func (m *Manager) Place(clusterID string, expected map[string]int) (string, error) {
	if len(m.nodes) == 0 {
		return "", ErrNoNodes
	}
	var node string
	switch m.policy {
	case Random:
		node = m.nodes[m.rng.Intn(len(m.nodes))]
	case GroupAware:
		if len(expected) > 0 {
			node = m.bestNode(expected)
		} else {
			node = m.nodes[0]
		}
	default: // FirstFit
		node = m.nodes[0]
	}
	cap := m.capsuleOn(node)
	cl := &Cluster{ID: clusterID, Capsule: cap.ID, usage: make(map[string]int)}
	for s, n := range expected {
		cl.usage[s] = n
	}
	m.clusters[clusterID] = cl
	return node, nil
}

// RecordAccess feeds the usage monitor: site accessed the cluster n times.
func (m *Manager) RecordAccess(clusterID, site string, n int) error {
	cl, ok := m.clusters[clusterID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownCluster, clusterID)
	}
	cl.usage[site] += n
	return nil
}

// ResetUsage clears a cluster's usage window (called after rebalancing so
// stale history does not pin old placements).
func (m *Manager) ResetUsage(clusterID string) {
	if cl, ok := m.clusters[clusterID]; ok {
		cl.usage = make(map[string]int)
	}
}

// Rebalance re-evaluates every cluster against its observed usage and
// migrates those whose worst-member RTT would improve by at least
// minGain. Only the GroupAware policy migrates; the baselines stay put
// (that is their pathology).
func (m *Manager) Rebalance(minGain time.Duration) []Migration {
	if m.policy != GroupAware {
		return nil
	}
	var out []Migration
	ids := make([]string, 0, len(m.clusters))
	for id := range m.clusters {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cl := m.clusters[id]
		if len(cl.usage) == 0 {
			continue
		}
		cur := m.capsules[cl.Capsule].Node
		curWorst, _ := m.GroupCost(cl.usage, cur)
		cand := m.bestNode(cl.usage)
		candWorst, _ := m.GroupCost(cl.usage, cand)
		if cand == cur || curWorst-candWorst < minGain {
			continue
		}
		cl.Capsule = m.capsuleOn(cand).ID
		mig := Migration{Cluster: id, From: cur, To: cand, At: m.sim.Now(), Gain: curWorst - candWorst}
		if m.OnMigrate != nil {
			m.OnMigrate(mig)
		}
		out = append(out, mig)
	}
	return out
}
