// Package other is outside the sim-critical set: Aggregate functions
// here are not auto-checked, but an explicit //pfsim:mergeall
// annotation still binds.
package other

type tally struct {
	hits   int
	misses int
}

// Aggregate outside the critical set: not auto-checked even though it
// forgets misses.
func Aggregate(ts []tally) tally {
	var t tally
	for _, x := range ts {
		t.hits += x.hits
	}
	return t
}

// foldTally opts in via the directive and is held to it.
//
//pfsim:mergeall tally
func foldTally(dst, src *tally) { // want `annotated fold "foldTally" does not touch field\(s\) misses of other.tally`
	dst.hits += src.hits
}
