// Package workload generates the synthetic cooperative-work traces that
// substitute for the paper's human subjects (co-authors, air-traffic
// controllers, conference participants). Every generator is driven by a
// caller-supplied seeded RNG so experiments are reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// OpKind is the type of a generated editing operation.
type OpKind int

const (
	// OpInsert inserts text at a position.
	OpInsert OpKind = iota + 1
	// OpDelete deletes a run of text at a position.
	OpDelete
	// OpRead is a read-only inspection of a region.
	OpRead
)

// String returns the op kind name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpRead:
		return "read"
	default:
		return "unknown"
	}
}

// EditOp is one generated editing action by one user.
type EditOp struct {
	User    string
	Kind    OpKind
	Pos     int           // character position within the document
	Len     int           // inserted/deleted length
	Text    string        // inserted text
	Think   time.Duration // pause before this op (think time)
	Section int           // coarse region index, for granularity studies
}

// EditProfile parametrizes an editing session generator.
type EditProfile struct {
	Users      []string
	DocLen     int           // starting logical document length
	Sections   int           // number of coarse regions
	Locality   float64       // 0 = uniform positions, 1 = each user pinned to own region
	ReadRatio  float64       // fraction of ops that are reads
	DeleteRate float64       // fraction of write ops that are deletes
	MeanThink  time.Duration // mean think time between a user's ops
	OpsPerUser int
}

// GenerateEdits produces a per-user slice of editing operations. Positions
// follow the locality model: with probability Locality the op lands in the
// user's home section, otherwise uniformly anywhere.
func GenerateEdits(rng *rand.Rand, p EditProfile) map[string][]EditOp {
	if p.Sections <= 0 {
		p.Sections = 1
	}
	if p.DocLen <= 0 {
		p.DocLen = 1000
	}
	secLen := p.DocLen / p.Sections
	out := make(map[string][]EditOp, len(p.Users))
	for ui, user := range p.Users {
		home := ui % p.Sections
		ops := make([]EditOp, 0, p.OpsPerUser)
		for i := 0; i < p.OpsPerUser; i++ {
			sec := home
			if rng.Float64() >= p.Locality {
				sec = rng.Intn(p.Sections)
			}
			pos := sec*secLen + rng.Intn(maxInt(secLen, 1))
			op := EditOp{
				User:    user,
				Pos:     pos,
				Section: sec,
				Think:   expDuration(rng, p.MeanThink),
			}
			switch {
			case rng.Float64() < p.ReadRatio:
				op.Kind = OpRead
				op.Len = 40 + rng.Intn(200)
			case rng.Float64() < p.DeleteRate:
				op.Kind = OpDelete
				op.Len = 1 + rng.Intn(12)
			default:
				op.Kind = OpInsert
				op.Text = randText(rng, 1+rng.Intn(20))
				op.Len = len(op.Text)
			}
			ops = append(ops, op)
		}
		out[user] = ops
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// expDuration samples an exponential distribution with the given mean.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

const letters = "abcdefghijklmnopqrstuvwxyz ETAOIN"

func randText(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// Poisson samples event counts for a Poisson process (Knuth's method; fine
// for the small lambdas used in flight arrival modelling).
func Poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// FlightStrip is one synthetic flight for the ATC scenario: it appears at
// Arrive, needs Updates amendments, and is handed between Sectors.
type FlightStrip struct {
	Callsign string
	Arrive   time.Duration
	Updates  int
	Sectors  []int
}

// GenerateFlights produces a flight arrival trace over the given horizon
// with the given mean arrivals per minute across nSectors.
func GenerateFlights(rng *rand.Rand, horizon time.Duration, perMinute float64, nSectors int) []FlightStrip {
	if nSectors < 1 {
		nSectors = 1
	}
	var out []FlightStrip
	minutes := int(horizon / time.Minute)
	n := 0
	for m := 0; m <= minutes; m++ {
		k := Poisson(rng, perMinute)
		for i := 0; i < k; i++ {
			arrive := time.Duration(m)*time.Minute + time.Duration(rng.Int63n(int64(time.Minute)))
			first := rng.Intn(nSectors)
			sectors := []int{first}
			for rng.Float64() < 0.5 && len(sectors) < nSectors {
				sectors = append(sectors, (sectors[len(sectors)-1]+1)%nSectors)
			}
			out = append(out, FlightStrip{
				Callsign: fmt.Sprintf("BA%03d", 100+n),
				Arrive:   arrive,
				Updates:  2 + rng.Intn(6),
				Sectors:  sectors,
			})
			n++
		}
	}
	return out
}

// FloorRequest is one conference participant's request to speak.
type FloorRequest struct {
	User string
	At   time.Duration
	Hold time.Duration // how long they keep the floor once granted
}

// GenerateFloorRequests produces a trace of floor requests across users over
// the horizon; requests arrive per user as a Poisson-ish renewal process
// with exponential gaps of the given mean.
func GenerateFloorRequests(rng *rand.Rand, users []string, horizon, meanGap, meanHold time.Duration) []FloorRequest {
	var out []FloorRequest
	for _, u := range users {
		at := expDuration(rng, meanGap)
		for at < horizon {
			out = append(out, FloorRequest{User: u, At: at, Hold: expDuration(rng, meanHold)})
			at += expDuration(rng, meanGap)
		}
	}
	sortFloorRequests(out)
	return out
}

// Users generates n prefix-numbered user IDs ("u000", "u001", ...), the
// naming scheme the scale scenarios share with the topology builder. The
// width grows with n so IDs always sort in creation order.
func Users(prefix string, n int) []string {
	width := 1
	for lim := 10; lim < n; lim *= 10 {
		width++
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%0*d", prefix, width, i)
	}
	return out
}

// GenerateFloorStorm produces one floor request per user, all landing
// inside the window — the conference-opening storm where everyone asks to
// speak at once. Holds are exponential with the given mean. Requests come
// back sorted by time.
func GenerateFloorStorm(rng *rand.Rand, users []string, window, meanHold time.Duration) []FloorRequest {
	out := make([]FloorRequest, 0, len(users))
	for _, u := range users {
		out = append(out, FloorRequest{
			User: u,
			At:   time.Duration(rng.Int63n(int64(window))),
			Hold: expDuration(rng, meanHold),
		})
	}
	sortFloorRequests(out)
	return out
}

// sortFloorRequests orders a trace by arrival time using insertion sort
// (traces are small; keeps the package sort-free).
func sortFloorRequests(out []FloorRequest) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].At < out[j-1].At; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

// ChurnEvent is one membership change in a flash-crowd trace.
type ChurnEvent struct {
	User string
	At   time.Duration
	Join bool // true joins the group, false leaves it
}

// GenerateFlashCrowd produces a join/leave trace: every user joins inside
// the ramp window, then alternates leaving after an exponential stay and
// rejoining after an exponential absence, until the horizon. Each user's
// events are strictly ordered; the combined trace comes back sorted by
// time (ties keep per-user order, so a user's join always precedes their
// next leave).
func GenerateFlashCrowd(rng *rand.Rand, users []string, ramp, horizon, meanStay, meanAway time.Duration) []ChurnEvent {
	var out []ChurnEvent
	for _, u := range users {
		at := time.Duration(rng.Int63n(int64(ramp)))
		joined := false
		for at < horizon {
			out = append(out, ChurnEvent{User: u, At: at, Join: !joined})
			joined = !joined
			if joined {
				at += expDuration(rng, meanStay) + time.Microsecond
			} else {
				at += expDuration(rng, meanAway) + time.Microsecond
			}
		}
	}
	// Stable insertion sort by time: equal-time events keep generation
	// order, preserving each user's join/leave alternation.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].At < out[j-1].At; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
