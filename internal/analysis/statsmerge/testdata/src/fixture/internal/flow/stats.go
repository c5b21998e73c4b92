// Package flow is a statsmerge fixture shaped like the real solver
// package: a counter struct that folds in other packages must cover.
package flow

// Stats counts solver work.
type Stats struct {
	Solves  int64
	Rounds  int64
	HeapOps int64
	scratch int //pfsim:nomerge — per-solve scratch, reset not folded
}
