// Package chansubst exercises the $param substitution edge cases of the
// concurrency call graph: constructor-returned channels (direct and through
// a wrapping composite literal), helper closes attributed to the caller's
// concrete channel, method values, and mutually recursive chains whose
// summaries must still converge. callgraph_test.go asserts the summaries
// directly; the one `// want` below is the observable diagnostic.
package chansubst

// hop is a package-level channel: its class is the qualified var name.
var hop = make(chan int)

func newOut() chan int {
	return make(chan int)
}

type relay struct {
	out chan int
}

// newRelay builds the channel through a constructor call inside a composite
// literal; the retMake fixpoint still classifies relay.out as unbuffered.
func newRelay() *relay {
	return &relay{out: newOut()}
}

func (r *relay) produce(v int) {
	r.out <- v
}

// closeIt closes whatever channel it is handed: a close|$param:0 fact.
func closeIt(c chan int) {
	close(c)
}

// badStop closes the relay's channel from the consuming side through the
// helper: substitution resolves $param:0 to relay.out at this call site,
// and the ownership check still sees produce sending.
func (r *relay) badStop() {
	for range r.out {
	}
	closeIt(r.out) // want "chan-proto.*close of chansubst.relay.out .via closeIt. on the receiving side: produce still sends on it"
}

// pingA and pingB are mutually recursive; their summaries reference each
// other and the ops fixpoint must converge rather than chase the cycle.
func pingA(c chan int, n int) {
	if n == 0 {
		close(c)
		return
	}
	pingB(c, n-1)
}

func pingB(c chan int, n int) {
	pingA(c, n)
}

type echo struct {
	stop chan int
}

// pipe is self-recursive and closes its field channel through the $param
// helper: the summary carries close|echo.stop without diverging.
func (e *echo) pipe(n int) {
	if n == 0 {
		closeIt(e.stop)
		return
	}
	e.pipe(n - 1)
}

// methodValue hands produce around as a value; the graph must tolerate
// method values (no call site to substitute at).
func methodValue(r *relay) func(int) {
	return r.produce
}

func feedHop(v int) {
	hop <- v
}

type deep struct {
	in chan int
}

// newDeep fills deep.in through a six-deep constructor chain declared
// callers-first, so a pass over them in source order classifies one link
// per round: a loop stopped after a fixed number of rounds leaves mk1
// unclassified and deep.in neither buffered nor unbuffered.
func newDeep() *deep {
	return &deep{in: mk1()}
}

func mk1() chan int { return mk2() }
func mk2() chan int { return mk3() }
func mk3() chan int { return mk4() }
func mk4() chan int { return mk5() }
func mk5() chan int { return mk6() }
func mk6() chan int { return make(chan int) }
