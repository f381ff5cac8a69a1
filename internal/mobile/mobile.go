// Package mobile implements disconnected operation for mobile CSCW workers
// (paper §3.3.3 and §4.2.2 "the impact of mobility"), following the Coda
// model the paper cites (Kistler & Satyanarayanan 1991):
//
//   - caching with an explicit *hoard* set prefetched while connected;
//   - a disconnected-operation log of updates made against the cache;
//   - *reintegration* on reconnection, replaying the log against the server
//     with version-based conflict detection;
//   - *bulk update* of stale cache entries when connectivity improves to a
//     high-speed link (the paper: "services will take advantage of higher
//     levels of connection to perform bulk updates, e.g. of cached data").
//
// Connection levels mirror netsim.ConnLevel (disconnected / partial / full).
// The package is cost-transparent: every remote interaction is counted so
// experiment E9 can price them per level.
package mobile

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/txn"
)

// Errors returned by the mobile client.
var (
	// ErrDisconnectedMiss reports a read of an unhoarded object while
	// disconnected — the availability failure hoarding exists to prevent.
	ErrDisconnectedMiss = errors.New("mobile: cache miss while disconnected")
)

// Stats counts the client's interactions for cost accounting.
type Stats struct {
	LocalHits    int // reads served from cache
	RemoteReads  int // reads served by the server
	RemoteWrites int // write-throughs
	LoggedWrites int // writes logged while disconnected
	Misses       int // disconnected misses
	Replayed     int // log records replayed at reintegration
	Conflicts    int // reintegration conflicts detected
	BulkFetched  int // entries refreshed by bulk update
}

// Resolution selects the conflict policy at reintegration.
type Resolution int

const (
	// ServerWins discards the client's conflicting update (it is surfaced
	// to the caller for manual repair, as Coda does).
	ServerWins Resolution = iota + 1
	// ClientWins overwrites the server with the client's update.
	ClientWins
)

// Conflict reports one reintegration conflict.
type Conflict struct {
	Key         string
	BaseVersion uint64 // version the client's update was based on
	ServerVer   uint64 // version found at the server
	ClientValue string
	ServerValue string
	At          time.Duration
}

// logRec is one disconnected update.
type logRec struct {
	key   string
	value string
	base  uint64 // cache version the update was made against
	at    time.Duration
}

type entry struct {
	value   string
	version uint64
	dirty   bool
	used    uint64 // recency stamp for LRU eviction
}

// Client is a mobile host's cache manager over a shared server store.
type Client struct {
	id     string
	server *txn.Store
	level  netsim.ConnLevel
	cache  map[string]*entry
	hoard  map[string]bool
	log    []logRec
	res    Resolution
	stats  Stats
	limit  int    // max cache entries; 0 = unbounded
	clock  uint64 // LRU recency counter

	// OnConflict observes reintegration conflicts (for the user's manual
	// repair queue).
	OnConflict func(c Conflict)
}

// NewClient creates a mobile client over server, initially fully connected.
func NewClient(id string, server *txn.Store, res Resolution) *Client {
	if res == 0 {
		res = ServerWins
	}
	return &Client{
		id:     id,
		server: server,
		level:  netsim.Full,
		cache:  make(map[string]*entry),
		hoard:  make(map[string]bool),
		res:    res,
	}
}

// SetCacheLimit bounds the cache to n entries with least-recently-used
// eviction (dirty entries are never evicted). Zero removes the bound. This
// models the small disks of 1993 portables; the hoard-policy ablation uses
// it.
func (c *Client) SetCacheLimit(n int) {
	c.limit = n
	c.evict()
}

// CacheLen returns the number of cached entries.
func (c *Client) CacheLen() int { return len(c.cache) }

// touch stamps an entry as recently used and triggers eviction.
func (c *Client) touch(key string, e *entry) {
	c.clock++
	e.used = c.clock
	c.evict()
}

func (c *Client) evict() {
	if c.limit <= 0 {
		return
	}
	for len(c.cache) > c.limit {
		victim := ""
		var oldest uint64
		for k, e := range c.cache {
			if e.dirty {
				continue
			}
			if victim == "" || e.used < oldest {
				victim, oldest = k, e.used
			}
		}
		if victim == "" {
			return // everything dirty; nothing evictable
		}
		delete(c.cache, victim)
	}
}

// Stats returns accumulated statistics.
func (c *Client) Stats() Stats { return c.stats }

// LogLen returns the number of pending disconnected updates.
func (c *Client) LogLen() int { return len(c.log) }

// Hoard adds keys to the hoard set and, if connected, prefetches them.
func (c *Client) Hoard(keys ...string) {
	for _, k := range keys {
		c.hoard[k] = true
	}
	if c.level != netsim.Disconnected {
		c.fetch(keys)
	}
}

func (c *Client) fetch(keys []string) {
	for _, k := range keys {
		v, ok := c.server.Get(k)
		if !ok {
			continue
		}
		c.stats.RemoteReads++
		e := &entry{value: v, version: c.server.Version(k)}
		c.cache[k] = e
		c.touch(k, e)
	}
}

// Read returns the value of key. Connected reads go to the server
// (refreshing the cache); disconnected reads are served from the cache or
// fail with ErrDisconnectedMiss.
func (c *Client) Read(key string, now time.Duration) (string, error) {
	if c.level == netsim.Disconnected {
		e, ok := c.cache[key]
		if !ok {
			c.stats.Misses++
			return "", fmt.Errorf("%w: %s", ErrDisconnectedMiss, key)
		}
		c.stats.LocalHits++
		c.touch(key, e)
		return e.value, nil
	}
	// Connected: dirty entries (not yet reintegrated) shadow the server.
	if e, ok := c.cache[key]; ok && e.dirty {
		c.stats.LocalHits++
		c.touch(key, e)
		return e.value, nil
	}
	v, ok := c.server.Get(key)
	if !ok {
		return "", fmt.Errorf("mobile: %s not found", key)
	}
	c.stats.RemoteReads++
	e := &entry{value: v, version: c.server.Version(key)}
	c.cache[key] = e
	c.touch(key, e)
	return v, nil
}

// Write updates key. Connected writes go straight through to the server;
// disconnected writes update the cache and append to the reintegration log.
func (c *Client) Write(key, value string, now time.Duration) error {
	if c.level == netsim.Disconnected {
		e, ok := c.cache[key]
		if !ok {
			e = &entry{}
			c.cache[key] = e
		}
		c.stats.LoggedWrites++
		e.value = value
		e.dirty = true
		// Log coalescing (as in Coda): successive disconnected writes to
		// one object collapse to the last, keeping the base version of the
		// first so reintegration compares against the state the whole
		// disconnected editing session started from.
		for i := range c.log {
			if c.log[i].key == key {
				c.log[i].value = value
				c.log[i].at = now
				return nil
			}
		}
		c.log = append(c.log, logRec{key: key, value: value, base: e.version, at: now})
		return nil
	}
	c.server.Set(key, value)
	c.stats.RemoteWrites++
	e := &entry{value: value, version: c.server.Version(key)}
	c.cache[key] = e
	c.touch(key, e)
	return nil
}

// SetLevel changes the connection level. An upward transition from
// Disconnected triggers reintegration; reaching Full additionally triggers
// a bulk refresh of the cache. It returns the conflicts found (if any).
func (c *Client) SetLevel(level netsim.ConnLevel, now time.Duration) []Conflict {
	old := c.level
	c.level = level
	var conflicts []Conflict
	if old == netsim.Disconnected && level != netsim.Disconnected {
		conflicts = c.Reintegrate(now)
	}
	if level == netsim.Full && old != netsim.Full {
		c.BulkUpdate(now)
	}
	return conflicts
}

// Reintegrate replays the disconnected log against the server. A record
// whose base version no longer matches the server's current version is a
// conflict, settled by the client's Resolution policy and reported.
func (c *Client) Reintegrate(now time.Duration) []Conflict {
	var conflicts []Conflict
	for _, r := range c.log {
		c.stats.Replayed++
		sv := c.server.Version(r.key)
		if sv != r.base {
			serverVal, _ := c.server.Get(r.key)
			cf := Conflict{
				Key: r.key, BaseVersion: r.base, ServerVer: sv,
				ClientValue: r.value, ServerValue: serverVal, At: now,
			}
			conflicts = append(conflicts, cf)
			c.stats.Conflicts++
			if c.OnConflict != nil {
				c.OnConflict(cf)
			}
			if c.res == ServerWins {
				// Drop our update; refresh the cache from the server.
				c.cache[r.key] = &entry{value: serverVal, version: sv}
				continue
			}
		}
		c.server.Set(r.key, r.value)
		c.stats.RemoteWrites++
		c.cache[r.key] = &entry{value: r.value, version: c.server.Version(r.key)}
	}
	c.log = nil
	for _, e := range c.cache {
		e.dirty = false
	}
	return conflicts
}

// BulkUpdate refreshes every stale cached or hoarded entry from the server
// — the cheap-bandwidth catch-up pass on reaching a high-speed link.
func (c *Client) BulkUpdate(now time.Duration) {
	keys := make(map[string]bool, len(c.cache)+len(c.hoard))
	for k := range c.cache {
		keys[k] = true
	}
	for k := range c.hoard {
		keys[k] = true
	}
	for k := range keys {
		sv := c.server.Version(k)
		e, ok := c.cache[k]
		if ok && e.version == sv {
			continue // fresh
		}
		v, exists := c.server.Get(k)
		if !exists {
			continue
		}
		c.stats.BulkFetched++
		c.cache[k] = &entry{value: v, version: sv}
	}
}
