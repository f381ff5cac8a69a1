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

func TestSetConvergesUnderPermutations(t *testing.T) {
	universe := []string{"alpha", "beta", "gamma", "delta"}
	for seed := 0; seed < sweepSeeds(t); seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(3)
		reps := make([]*Set, n)
		for i := range reps {
			reps[i] = NewSet(string(rune('a' + i)))
		}
		scramble(r, n,
			func(r *rand.Rand, site int) (Op, bool) {
				elem := universe[r.Intn(len(universe))]
				if r.Intn(100) < 60 {
					return reps[site].Add(elem), true
				}
				return reps[site].Remove(elem), true
			},
			func(site int, op Op) {
				if err := reps[site].Apply(op); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			})
		for i := 1; i < n; i++ {
			if !reflect.DeepEqual(reps[i].Elements(), reps[0].Elements()) {
				t.Fatalf("seed %d: replica %d diverged: %v vs %v", seed, i, reps[i].Elements(), reps[0].Elements())
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

func TestCounterConvergesUnderPermutations(t *testing.T) {
	for seed := 0; seed < sweepSeeds(t); seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(3)
		reps := make([]*Counter, n)
		for i := range reps {
			reps[i] = NewCounter(string(rune('a' + i)))
		}
		var want int64
		scramble(r, n,
			func(r *rand.Rand, site int) (Op, bool) {
				delta := int64(r.Intn(41) - 20)
				want += delta
				return reps[site].Add(delta), true
			},
			func(site int, op Op) {
				if err := reps[site].Apply(op); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			})
		for i, c := range reps {
			if c.Value() != want {
				t.Fatalf("seed %d: replica %d value %d want %d", seed, i, c.Value(), want)
			}
			if c.Held() != 0 {
				t.Fatalf("seed %d: replica %d still holds %d ops", seed, i, c.Held())
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

func TestSetAndCounterMergeLaws(t *testing.T) {
	universe := []string{"x", "y", "z"}
	mergedSet := func(states ...*SetState) *SetState {
		acc := NewSet("merge")
		for _, st := range states {
			acc.MergeState(st)
		}
		return acc.State()
	}
	mergedCtr := func(states ...*CtrState) *CtrState {
		acc := NewCounter("merge")
		for _, st := range states {
			acc.MergeState(st)
		}
		return acc.State()
	}
	for seed := 0; seed < 40; seed++ {
		r := rand.New(rand.NewSource(int64(2000 + seed)))
		sets := make([]*Set, 3)
		ctrs := make([]*Counter, 3)
		for i := range sets {
			sets[i] = NewSet(string(rune('a' + i)))
			ctrs[i] = NewCounter(string(rune('a' + i)))
		}
		for step := 0; step < 30; step++ {
			i := r.Intn(3)
			elem := universe[r.Intn(len(universe))]
			var op Op
			if r.Intn(2) == 0 {
				op = sets[i].Add(elem)
			} else {
				op = sets[i].Remove(elem)
			}
			cop := ctrs[i].Add(int64(r.Intn(21) - 10))
			for to := 0; to < 3; to++ {
				if to != i && r.Intn(2) == 0 {
					_ = sets[to].Apply(op)
					_ = ctrs[to].Apply(cop)
				}
			}
		}
		sa, sb, sc := sets[0].State(), sets[1].State(), sets[2].State()
		ca, cb, cc := ctrs[0].State(), ctrs[1].State(), ctrs[2].State()
		if !reflect.DeepEqual(mergedSet(sa, sa), mergedSet(sa)) {
			t.Fatalf("seed %d: set merge not idempotent", seed)
		}
		if !reflect.DeepEqual(mergedSet(sa, sb), mergedSet(sb, sa)) {
			t.Fatalf("seed %d: set merge not commutative", seed)
		}
		if !reflect.DeepEqual(mergedSet(mergedSet(sa, sb), sc), mergedSet(sa, mergedSet(sb, sc))) {
			t.Fatalf("seed %d: set merge not associative", seed)
		}
		if !reflect.DeepEqual(mergedCtr(ca, ca), mergedCtr(ca)) {
			t.Fatalf("seed %d: counter merge not idempotent", seed)
		}
		if !reflect.DeepEqual(mergedCtr(ca, cb), mergedCtr(cb, ca)) {
			t.Fatalf("seed %d: counter merge not commutative", seed)
		}
		if !reflect.DeepEqual(mergedCtr(mergedCtr(ca, cb), cc), mergedCtr(ca, mergedCtr(cb, cc))) {
			t.Fatalf("seed %d: counter merge not associative", seed)
		}
	}
}

// seqLen is the number of visible elements of s.
func seqLen(s *Sequence) int { return s.visible }
