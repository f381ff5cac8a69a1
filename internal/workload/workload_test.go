package workload

import (
	"math/rand"
	"testing"
	"time"
)

// editProfile is a moderately contended co-authoring session.
func editProfile(users []string) EditProfile {
	return EditProfile{
		Users:      users,
		DocLen:     8000,
		Sections:   8,
		Locality:   0.7,
		ReadRatio:  0.3,
		DeleteRate: 0.25,
		MeanThink:  2 * time.Second,
		OpsPerUser: 50,
	}
}

func TestGenerateEditsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := editProfile([]string{"alice", "bob", "carol"})
	ops := GenerateEdits(rng, p)
	if len(ops) != 3 {
		t.Fatalf("users = %d", len(ops))
	}
	for user, list := range ops {
		if len(list) != p.OpsPerUser {
			t.Errorf("%s ops = %d, want %d", user, len(list), p.OpsPerUser)
		}
		for _, op := range list {
			if op.Pos < 0 || op.Pos >= p.DocLen {
				t.Fatalf("pos %d out of range", op.Pos)
			}
			if op.Section < 0 || op.Section >= p.Sections {
				t.Fatalf("section %d out of range", op.Section)
			}
			if op.Kind == OpInsert && op.Text == "" {
				t.Fatal("insert without text")
			}
			if op.User != user {
				t.Fatalf("op user %q under key %q", op.User, user)
			}
		}
	}
}

func TestGenerateEditsLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := editProfile([]string{"u0", "u1"})
	p.Locality = 1.0
	p.Sections = 2
	p.OpsPerUser = 100
	ops := GenerateEdits(rng, p)
	for _, op := range ops["u0"] {
		if op.Section != 0 {
			t.Fatalf("u0 with locality 1.0 hit section %d", op.Section)
		}
	}
	for _, op := range ops["u1"] {
		if op.Section != 1 {
			t.Fatalf("u1 with locality 1.0 hit section %d", op.Section)
		}
	}
}

func TestGenerateEditsDeterministic(t *testing.T) {
	p := editProfile([]string{"a", "b"})
	g1 := GenerateEdits(rand.New(rand.NewSource(9)), p)
	g2 := GenerateEdits(rand.New(rand.NewSource(9)), p)
	for user := range g1 {
		for i := range g1[user] {
			if g1[user][i] != g2[user][i] {
				t.Fatalf("nondeterministic at %s[%d]", user, i)
			}
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const lambda = 4.0
	total := 0
	const n = 5000
	for i := 0; i < n; i++ {
		total += Poisson(rng, lambda)
	}
	mean := float64(total) / n
	if mean < 3.7 || mean > 4.3 {
		t.Errorf("Poisson mean = %.2f, want ~4", mean)
	}
}

func TestGenerateFlights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	flights := GenerateFlights(rng, 30*time.Minute, 2.0, 4)
	if len(flights) < 30 {
		t.Fatalf("flights = %d, expected roughly 60", len(flights))
	}
	seen := make(map[string]bool)
	for _, f := range flights {
		if seen[f.Callsign] {
			t.Fatalf("duplicate callsign %s", f.Callsign)
		}
		seen[f.Callsign] = true
		if f.Arrive > 31*time.Minute {
			t.Fatalf("arrival %v beyond horizon", f.Arrive)
		}
		if len(f.Sectors) == 0 {
			t.Fatal("flight with no sectors")
		}
		for _, s := range f.Sectors {
			if s < 0 || s >= 4 {
				t.Fatalf("sector %d out of range", s)
			}
		}
		if f.Updates < 2 {
			t.Fatalf("updates = %d", f.Updates)
		}
	}
}

func TestGenerateFloorRequestsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	reqs := GenerateFloorRequests(rng, []string{"a", "b", "c"}, 10*time.Minute, 30*time.Second, 15*time.Second)
	if len(reqs) < 10 {
		t.Fatalf("requests = %d", len(reqs))
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].At < reqs[i-1].At {
			t.Fatalf("unsorted at %d", i)
		}
	}
	users := make(map[string]bool)
	for _, r := range reqs {
		users[r.User] = true
		if r.At >= 10*time.Minute {
			t.Fatalf("request at %v beyond horizon", r.At)
		}
	}
	if len(users) != 3 {
		t.Errorf("users seen = %d", len(users))
	}
}

func TestOpKindString(t *testing.T) {
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" || OpRead.String() != "read" {
		t.Error("OpKind names wrong")
	}
}

func TestUsers(t *testing.T) {
	got := Users("u", 3)
	if len(got) != 3 || got[0] != "u0" || got[2] != "u2" {
		t.Fatalf("Users(u,3) = %v", got)
	}
	big := Users("spk", 1000)
	if big[0] != "spk000" || big[999] != "spk999" {
		t.Fatalf("Users(spk,1000) endpoints = %q..%q", big[0], big[999])
	}
	for i := 1; i < len(big); i++ {
		if big[i-1] >= big[i] {
			t.Fatalf("IDs not strictly increasing at %d: %q >= %q", i, big[i-1], big[i])
		}
	}
}

func TestGenerateFloorStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	users := Users("u", 200)
	reqs := GenerateFloorStorm(rng, users, 20*time.Millisecond, 5*time.Millisecond)
	if len(reqs) != len(users) {
		t.Fatalf("storm has %d requests, want one per user (%d)", len(reqs), len(users))
	}
	seen := make(map[string]bool)
	for i, r := range reqs {
		if r.At < 0 || r.At >= 20*time.Millisecond {
			t.Fatalf("request %d lands at %v, outside the window", i, r.At)
		}
		if i > 0 && reqs[i-1].At > r.At {
			t.Fatalf("trace not sorted at %d", i)
		}
		if seen[r.User] {
			t.Fatalf("user %s requested twice", r.User)
		}
		seen[r.User] = true
	}
}

func TestGenerateFlashCrowd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	users := Users("c", 100)
	evs := GenerateFlashCrowd(rng, users, 10*time.Millisecond, 100*time.Millisecond,
		20*time.Millisecond, 15*time.Millisecond)
	joined := make(map[string]bool)
	last := time.Duration(-1)
	firstJoin := make(map[string]bool)
	for _, e := range evs {
		if e.At < last {
			t.Fatalf("trace not sorted: %v after %v", e.At, last)
		}
		last = e.At
		if e.Join == joined[e.User] {
			t.Fatalf("user %s %v twice in a row", e.User, e.Join)
		}
		joined[e.User] = e.Join
		if !firstJoin[e.User] {
			if !e.Join {
				t.Fatalf("user %s leaves before joining", e.User)
			}
			if e.At >= 10*time.Millisecond {
				t.Fatalf("user %s first joins at %v, after the ramp", e.User, e.At)
			}
			firstJoin[e.User] = true
		}
	}
	if len(firstJoin) != len(users) {
		t.Fatalf("only %d of %d users ever joined", len(firstJoin), len(users))
	}
}

func TestGenerateFlashCrowdDeterministic(t *testing.T) {
	a := GenerateFlashCrowd(rand.New(rand.NewSource(5)), Users("c", 50),
		10*time.Millisecond, 80*time.Millisecond, 20*time.Millisecond, 10*time.Millisecond)
	b := GenerateFlashCrowd(rand.New(rand.NewSource(5)), Users("c", 50),
		10*time.Millisecond, 80*time.Millisecond, 20*time.Millisecond, 10*time.Millisecond)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
