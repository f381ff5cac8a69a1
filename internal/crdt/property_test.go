package crdt

import (
	"math/rand"
	"reflect"
	"testing"
)

// The property sweep: for each seed, a cluster of replicas generates random
// local ops while deliveries are reordered, duplicated and delayed
// arbitrarily; once every op has reached every replica, all replicas must
// hold identical state with empty hold-back queues. Run with -short to
// trim the sweep. propertySeeds keeps the full sweep above the 100
// permutations the acceptance bar asks for.
const propertySeeds = 120

func sweepSeeds(t *testing.T) int {
	if testing.Short() {
		return 20
	}
	return propertySeeds
}

type delivery struct {
	op Op
	to int
}

// scramble drives one randomized run: gen produces a local op at a random
// site, apply delivers one to a replica. Deliveries are picked in random
// order from the pending pool (reorder), occasionally re-sent from the log
// (duplication), and the tail flushes in shuffled order.
func scramble(r *rand.Rand, sites int, gen func(r *rand.Rand, site int) (Op, bool), apply func(site int, op Op)) {
	var pending []delivery
	var log []Op
	steps := 80 + r.Intn(120)
	for i := 0; i < steps; i++ {
		switch {
		case len(pending) > 0 && r.Intn(100) < 45:
			j := r.Intn(len(pending))
			d := pending[j]
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			apply(d.to, d.op)
		case len(log) > 0 && r.Intn(100) < 10:
			apply(r.Intn(sites), log[r.Intn(len(log))])
		default:
			site := r.Intn(sites)
			op, ok := gen(r, site)
			if !ok {
				continue
			}
			log = append(log, op)
			for to := 0; to < sites; to++ {
				if to != site {
					pending = append(pending, delivery{op, to})
				}
			}
		}
	}
	r.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	for _, d := range pending {
		apply(d.to, d.op)
	}
}

func TestSequenceConvergesUnderPermutations(t *testing.T) {
	for seed := 0; seed < sweepSeeds(t); seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(3)
		reps := make([]*Sequence, n)
		for i := range reps {
			reps[i] = NewSequence(string(rune('a' + i)))
		}
		scramble(r, n,
			func(r *rand.Rand, site int) (Op, bool) {
				s := reps[site]
				var op Op
				var err error
				if seqLen(s) == 0 || r.Intn(100) < 65 {
					op, err = s.Insert(r.Intn(seqLen(s)+1), rune('a'+r.Intn(26)))
				} else {
					op, err = s.Delete(r.Intn(seqLen(s)))
				}
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return op, true
			},
			func(site int, op Op) {
				if err := reps[site].Apply(op); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			})
		for i := 1; i < n; i++ {
			if reps[i].Text() != reps[0].Text() {
				t.Fatalf("seed %d: replica %d diverged: %q vs %q", seed, i, reps[i].Text(), reps[0].Text())
			}
			if !reflect.DeepEqual(reps[i].State(), reps[0].State()) {
				t.Fatalf("seed %d: replica %d full state diverged", seed, i)
			}
		}
		for i, s := range reps {
			if s.Held() != 0 {
				t.Fatalf("seed %d: replica %d still holds %d ops", seed, i, s.Held())
			}
		}
	}
}

// randomSequences builds independently edited replicas with partial op
// exchange — raw material for the merge-law tests.
func randomSequences(r *rand.Rand, n int) []*Sequence {
	reps := make([]*Sequence, n)
	for i := range reps {
		reps[i] = NewSequence(string(rune('a' + i)))
	}
	var log []Op
	for step := 0; step < 40; step++ {
		site := r.Intn(n)
		s := reps[site]
		var op Op
		if seqLen(s) == 0 || r.Intn(100) < 70 {
			op, _ = s.Insert(r.Intn(seqLen(s)+1), rune('a'+r.Intn(26)))
		} else {
			op, _ = s.Delete(r.Intn(seqLen(s)))
		}
		log = append(log, op)
		// Partial delivery: each other site hears about it half the time.
		// Skipping an op can leave later FIFO ops held — that is the point:
		// merge must still converge from ragged states.
		for to := 0; to < n; to++ {
			if to != site && r.Intn(2) == 0 {
				_ = reps[to].Apply(log[len(log)-1])
			}
		}
	}
	return reps
}

func mergedSeq(t *testing.T, states ...*SeqState) *SeqState {
	acc := NewSequence("merge")
	for _, st := range states {
		if err := acc.MergeState(st); err != nil {
			t.Fatal(err)
		}
	}
	return acc.State()
}

func TestSequenceMergeLaws(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		r := rand.New(rand.NewSource(int64(1000 + seed)))
		reps := randomSequences(r, 3)
		a, b, c := reps[0].State(), reps[1].State(), reps[2].State()

		// Idempotence: x ⊔ x = x.
		if !reflect.DeepEqual(mergedSeq(t, a, a), mergedSeq(t, a)) {
			t.Fatalf("seed %d: sequence merge not idempotent", seed)
		}
		// Commutativity: a ⊔ b = b ⊔ a.
		if !reflect.DeepEqual(mergedSeq(t, a, b), mergedSeq(t, b, a)) {
			t.Fatalf("seed %d: sequence merge not commutative", seed)
		}
		// Associativity: (a ⊔ b) ⊔ c = a ⊔ (b ⊔ c).
		left := mergedSeq(t, mergedSeq(t, a, b), c)
		right := mergedSeq(t, a, mergedSeq(t, b, c))
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("seed %d: sequence merge not associative", seed)
		}
	}
}

// seqLen is the number of visible elements of s.
func seqLen(s *Sequence) int { return s.visible }
