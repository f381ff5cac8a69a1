package mobile

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/txn"
)

func newServer() *txn.Store {
	s := txn.NewStore()
	s.Set("job/1", "inspect transformer")
	s.Set("job/2", "replace fuse")
	s.Set("map/area7", "grid-data")
	return s
}

func TestConnectedReadWrite(t *testing.T) {
	srv := newServer()
	c := NewClient("eng1", srv, ServerWins)
	v, err := c.Read("job/1", 0)
	if err != nil || v != "inspect transformer" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	if err := c.Write("job/1", "done", 0); err != nil {
		t.Fatal(err)
	}
	if sv, _ := srv.Get("job/1"); sv != "done" {
		t.Errorf("server = %q, write-through expected", sv)
	}
	st := c.Stats()
	if st.RemoteReads != 1 || st.RemoteWrites != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStatsCountServerTouches walks one script through every operation
// class and checks which of them reach the server: a hoard fetch, a remote
// read and a remote write count once each, a disconnected write and a cache
// hit count nothing remote, and reconnection replays the logged write.
func TestStatsCountServerTouches(t *testing.T) {
	store := txn.NewStore()
	store.Set("doc", "v1")
	store.Set("aux", "v1")
	c := NewClient("mob", store, ServerWins)
	step := func(name string, want Stats) {
		t.Helper()
		if got := c.Stats(); got != want {
			t.Errorf("after %s: stats = %+v, want %+v", name, got, want)
		}
	}

	c.Hoard("doc")
	step("hoard fetch", Stats{RemoteReads: 1})
	if _, err := c.Read("aux", 0); err != nil {
		t.Fatal(err)
	}
	step("remote read", Stats{RemoteReads: 2})
	if err := c.Write("doc", "v2", 0); err != nil {
		t.Fatal(err)
	}
	step("remote write", Stats{RemoteReads: 2, RemoteWrites: 1})
	c.SetLevel(netsim.Disconnected, 0)
	if err := c.Write("doc", "v3", 0); err != nil {
		t.Fatal(err)
	}
	step("disconnected write", Stats{RemoteReads: 2, RemoteWrites: 1, LoggedWrites: 1})
	if _, err := c.Read("doc", 0); err != nil {
		t.Fatal(err)
	}
	step("cache hit", Stats{LocalHits: 1, RemoteReads: 2, RemoteWrites: 1, LoggedWrites: 1})
	c.SetLevel(netsim.Full, 0)
	step("reconnect", Stats{LocalHits: 1, RemoteReads: 2, RemoteWrites: 2, LoggedWrites: 1, Replayed: 1})
	if v, _ := store.Get("doc"); v != "v3" || c.LogLen() != 0 {
		t.Errorf("after reconnect: server doc = %q, log = %d; want the replayed v3 and an empty log", v, c.LogLen())
	}
}

func TestDisconnectedMissAndHit(t *testing.T) {
	srv := newServer()
	c := NewClient("eng1", srv, ServerWins)
	c.Hoard("job/1")
	c.SetLevel(netsim.Disconnected, 0)
	if v, err := c.Read("job/1", 0); err != nil || v != "inspect transformer" {
		t.Errorf("hoarded read = %q, %v", v, err)
	}
	if _, err := c.Read("job/2", 0); !errors.Is(err, ErrDisconnectedMiss) {
		t.Errorf("unhoarded read = %v", err)
	}
	st := c.Stats()
	if st.LocalHits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHoardSet(t *testing.T) {
	srv := newServer()
	c := NewClient("e", srv, ServerWins)
	c.Hoard("job/2", "job/1")
	hs := c.HoardSet()
	if len(hs) != 2 || hs[0] != "job/1" {
		t.Errorf("HoardSet = %v", hs)
	}
}

func TestDisconnectedWriteLogsAndReintegrates(t *testing.T) {
	srv := newServer()
	c := NewClient("eng1", srv, ServerWins)
	c.Hoard("job/1")
	c.SetLevel(netsim.Disconnected, 0)
	c.Write("job/1", "in progress", time.Minute)
	c.Write("job/1", "done", 2*time.Minute)
	// Log coalescing: one record per object.
	if c.LogLen() != 1 {
		t.Fatalf("log = %d, want 1 (coalesced)", c.LogLen())
	}
	// Local read sees the disconnected update.
	if v, _ := c.Read("job/1", 3*time.Minute); v != "done" {
		t.Errorf("local read = %q", v)
	}
	// Reconnect (partial): reintegration replays the log.
	conflicts := c.SetLevel(netsim.Partial, 10*time.Minute)
	if len(conflicts) != 0 {
		t.Fatalf("unexpected conflicts: %+v", conflicts)
	}
	if sv, _ := srv.Get("job/1"); sv != "done" {
		t.Errorf("server after reintegration = %q", sv)
	}
	if c.LogLen() != 0 {
		t.Errorf("log not drained: %d", c.LogLen())
	}
	if c.Stats().Replayed != 1 {
		t.Errorf("replayed = %d", c.Stats().Replayed)
	}
	if c.Stats().LoggedWrites != 2 {
		t.Errorf("logged writes = %d", c.Stats().LoggedWrites)
	}
}

func TestReintegrationConflictServerWins(t *testing.T) {
	srv := newServer()
	c := NewClient("eng1", srv, ServerWins)
	c.Hoard("job/1")
	c.SetLevel(netsim.Disconnected, 0)
	c.Write("job/1", "client version", time.Minute)
	// Meanwhile the office updates the same job.
	srv.Set("job/1", "office version")
	var seen []Conflict
	c.OnConflict = func(cf Conflict) { seen = append(seen, cf) }
	conflicts := c.SetLevel(netsim.Partial, 10*time.Minute)
	if len(conflicts) != 1 || len(seen) != 1 {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	cf := conflicts[0]
	if cf.Key != "job/1" || cf.ClientValue != "client version" || cf.ServerValue != "office version" {
		t.Errorf("conflict = %+v", cf)
	}
	// Server wins: office version survives, client cache refreshed.
	if sv, _ := srv.Get("job/1"); sv != "office version" {
		t.Errorf("server = %q", sv)
	}
	if v, _ := c.Read("job/1", 11*time.Minute); v != "office version" {
		t.Errorf("client read = %q", v)
	}
}

func TestReintegrationConflictClientWins(t *testing.T) {
	srv := newServer()
	c := NewClient("eng1", srv, ClientWins)
	c.Hoard("job/1")
	c.SetLevel(netsim.Disconnected, 0)
	c.Write("job/1", "client version", time.Minute)
	srv.Set("job/1", "office version")
	conflicts := c.SetLevel(netsim.Partial, 10*time.Minute)
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	if sv, _ := srv.Get("job/1"); sv != "client version" {
		t.Errorf("server = %q, client should win", sv)
	}
}

func TestNoConflictWhenDifferentKeys(t *testing.T) {
	srv := newServer()
	c := NewClient("eng1", srv, ServerWins)
	c.Hoard("job/1", "job/2")
	c.SetLevel(netsim.Disconnected, 0)
	c.Write("job/1", "mine", 0)
	srv.Set("job/2", "theirs")
	if cs := c.SetLevel(netsim.Full, time.Minute); len(cs) != 0 {
		t.Errorf("conflicts = %+v", cs)
	}
}

func TestBulkUpdateOnFullConnection(t *testing.T) {
	srv := newServer()
	c := NewClient("eng1", srv, ServerWins)
	c.Hoard("job/1", "job/2", "map/area7")
	c.SetLevel(netsim.Disconnected, 0)
	// The office updates two objects while we are away.
	srv.Set("job/2", "reassigned")
	srv.Set("map/area7", "new-grid")
	// Partial reconnection reintegrates but does not bulk-refresh.
	c.SetLevel(netsim.Partial, time.Minute)
	if c.Stats().BulkFetched != 0 {
		t.Fatalf("partial should not bulk update, fetched %d", c.Stats().BulkFetched)
	}
	// Stale reads at partial level go to the server anyway; but a
	// disconnected read of job/2 would be stale. Upgrade to full: bulk.
	c.SetLevel(netsim.Full, 2*time.Minute)
	if c.Stats().BulkFetched != 2 {
		t.Fatalf("bulk fetched %d, want 2 stale entries", c.Stats().BulkFetched)
	}
	c.SetLevel(netsim.Disconnected, 3*time.Minute)
	if v, _ := c.Read("job/2", 4*time.Minute); v != "reassigned" {
		t.Errorf("post-bulk disconnected read = %q", v)
	}
}

func TestDirtyEntryShadowsServerWhileConnected(t *testing.T) {
	// A client that reconnects at Partial but has not yet been asked to
	// reintegrate mid-operation keeps serving its own dirty value. (The
	// SetLevel path reintegrates automatically; this covers the read path's
	// dirty check with a manually constructed state.)
	srv := newServer()
	c := NewClient("eng1", srv, ServerWins)
	c.Hoard("job/1")
	c.SetLevel(netsim.Disconnected, 0)
	c.Write("job/1", "dirty", 0)
	// Read back through the disconnected path.
	if v, _ := c.Read("job/1", 0); v != "dirty" {
		t.Errorf("read = %q", v)
	}
}

func TestAvailabilityVsHoardCoverage(t *testing.T) {
	// The E9 claim in miniature: availability while disconnected equals
	// hoard coverage of the working set.
	srv := txn.NewStore()
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = string(rune('a' + i))
		srv.Set(keys[i], "v")
	}
	c := NewClient("e", srv, ServerWins)
	c.Hoard(keys[:10]...) // hoard half
	c.SetLevel(netsim.Disconnected, 0)
	hits := 0
	for _, k := range keys {
		if _, err := c.Read(k, 0); err == nil {
			hits++
		}
	}
	if hits != 10 {
		t.Errorf("hits = %d, want exactly the hoarded half", hits)
	}
}

func TestCacheLimitLRU(t *testing.T) {
	srv := txn.NewStore()
	for i := 0; i < 6; i++ {
		srv.Set(string(rune('a'+i)), "v")
	}
	c := NewClient("e", srv, ServerWins)
	c.SetCacheLimit(3)
	// Read a..f; only the last three survive.
	for i := 0; i < 6; i++ {
		if _, err := c.Read(string(rune('a'+i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.CacheLen() != 3 {
		t.Fatalf("cache = %d", c.CacheLen())
	}
	c.SetLevel(netsim.Disconnected, 0)
	for i, want := range []bool{false, false, false, true, true, true} {
		_, err := c.Read(string(rune('a'+i)), 0)
		if (err == nil) != want {
			t.Errorf("key %c cached=%v want %v", 'a'+i, err == nil, want)
		}
	}
}

func TestCacheLimitSparesDirty(t *testing.T) {
	// Dirty (unreintegrated) entries must never be evicted: losing one
	// would lose the user's disconnected work.
	srv := txn.NewStore()
	c := NewClient("e", srv, ServerWins)
	c.SetCacheLimit(2)
	c.SetLevel(netsim.Disconnected, 0)
	c.Write("a", "wa", 0)
	c.Write("b", "wb", 0)
	c.Write("c", "wc", 0) // over the cap, but everything is dirty
	if c.CacheLen() != 3 {
		t.Fatalf("cache = %d; dirty entries must all survive", c.CacheLen())
	}
	for _, k := range []string{"a", "b", "c"} {
		if v, err := c.Read(k, 1); err != nil || v != "w"+k {
			t.Errorf("read %s = %q, %v", k, v, err)
		}
	}
	if c.LogLen() != 3 {
		t.Errorf("log = %d", c.LogLen())
	}
}

func TestLRURecencyOrder(t *testing.T) {
	srv := txn.NewStore()
	for _, k := range []string{"x", "y", "z"} {
		srv.Set(k, "v")
	}
	c := NewClient("e", srv, ServerWins)
	c.SetCacheLimit(2)
	c.Read("x", 0)
	c.Read("y", 0)
	c.Read("x", 0) // x is now more recent than y
	c.Read("z", 0) // evicts y
	c.SetLevel(netsim.Disconnected, 0)
	if _, err := c.Read("x", 0); err != nil {
		t.Error("x should have survived (recently used)")
	}
	if _, err := c.Read("y", 0); err == nil {
		t.Error("y should have been evicted")
	}
}

func BenchmarkDisconnectedWriteReintegrate(b *testing.B) {
	srv := txn.NewStore()
	srv.Set("k", "v")
	c := NewClient("e", srv, ServerWins)
	c.Hoard("k")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.SetLevel(netsim.Disconnected, 0)
		c.Write("k", "x", 0)
		c.SetLevel(netsim.Full, 0)
	}
}
