package chaos

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/session"
)

// sortedKeys returns the map's keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkSameSequences asserts that every participant observed the identical
// ordered sequence — the agreement invariant for totally-ordered delivery.
func checkSameSequences(w *World, invariant string, got map[string][]string) {
	ids := sortedKeys(got)
	if len(ids) < 2 {
		return
	}
	ref := got[ids[0]]
	for _, id := range ids[1:] {
		seq := got[id]
		if len(seq) != len(ref) {
			w.Violatef(invariant, "%s observed %d events, %s observed %d",
				ids[0], len(ref), id, len(seq))
			return
		}
		for i := range ref {
			if seq[i] != ref[i] {
				w.Violatef(invariant, "divergence at index %d: %s saw %q, %s saw %q",
					i, ids[0], ref[i], id, seq[i])
				return
			}
		}
	}
}

// checkSameSets asserts that every participant observed the identical
// multiset of events, order aside — the convergence invariant for delivery
// guarantees weaker than total order.
func checkSameSets(w *World, invariant string, got map[string][]string) {
	ids := sortedKeys(got)
	if len(ids) < 2 {
		return
	}
	canon := func(s []string) []string {
		c := append([]string(nil), s...)
		sort.Strings(c)
		return c
	}
	ref := canon(got[ids[0]])
	for _, id := range ids[1:] {
		set := canon(got[id])
		if d := firstDiff(ref, set); d != "" {
			w.Violatef(invariant, "%s and %s delivered different sets: %s", ids[0], id, d)
			return
		}
	}
}

// checkCompleteSet asserts one participant's observed multiset equals the
// expected multiset.
func checkCompleteSet(w *World, invariant, who string, got, want []string) {
	g := append([]string(nil), got...)
	wv := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(wv)
	if d := firstDiff(wv, g); d != "" {
		w.Violatef(invariant, "%s incomplete: %s", who, d)
	}
}

// firstDiff describes the first difference between two sorted slices, or
// returns "" when equal.
func firstDiff(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(want):
			return fmt.Sprintf("unexpected %q (got %d, want %d items)", got[i], len(got), len(want))
		case i >= len(got):
			return fmt.Sprintf("missing %q (got %d, want %d items)", want[i], len(got), len(want))
		case want[i] != got[i]:
			return fmt.Sprintf("at %d want %q, got %q", i, want[i], got[i])
		}
	}
	return ""
}

// sessionLog records a session scenario's ground truth: the host's log, as
// its OnItem sees each item, and what each client was pushed, as its OnItem
// sees it.
type sessionLog struct {
	host []session.Item
	got  map[string][]string
}

// recordSession installs the recorders on host and on the clients ids.
func recordSession(host *session.Host, cls map[string]*session.Client, ids []string) *sessionLog {
	l := &sessionLog{got: make(map[string][]string, len(ids))}
	host.OnItem = func(_ string, it session.Item) { l.host = append(l.host, it) }
	for _, id := range ids {
		cls[id].OnItem = func(it session.Item) { l.got[id] = append(l.got[id], fmtItem(it)) }
	}
	return l
}

func fmtItem(it session.Item) string {
	return fmt.Sprintf("%03d:%s:%s", it.Seq, it.From, it.Body)
}

// check is the session-completeness invariant: each client heard the host
// log minus its own items, in order, up to its high-water mark, and a
// client present at the end heard up to the last item someone else posted
// (its own items never advance its cursor). A client that left stops
// hearing, so present says who must be caught up. Past three, violations
// are counted in one line.
func (l *sessionLog) check(w *World, cls map[string]*session.Client, ids []string, present func(id string) bool) {
	bad := 0
	for _, id := range ids {
		var want []string
		var maxOther uint64
		for _, it := range l.host {
			if it.From == id {
				continue
			}
			maxOther = it.Seq
			if it.Seq <= cls[id].LastSeq() {
				want = append(want, fmtItem(it))
			}
		}
		if slices.Equal(l.got[id], want) && (!present(id) || cls[id].LastSeq() == maxOther) {
			continue
		}
		if bad++; bad <= 3 {
			w.Violatef("session-completeness", "%s: log %d items vs %d expected (lastSeq %d, last foreign seq %d, present=%v)",
				id, len(l.got[id]), len(want), cls[id].LastSeq(), maxOther, present(id))
		}
	}
	if bad > 3 {
		w.Violatef("session-completeness", "... and %d more inconsistent client logs", bad-3)
	}
}
