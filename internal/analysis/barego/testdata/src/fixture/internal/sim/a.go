// Package sim is a barego fixture: the engine owns no goroutines — tasks
// run inline on the event loop — so a go statement here is flagged like
// anywhere else outside the pool.
package sim

func resume(k func()) {
	go k() // want `bare go statement outside internal/pool escapes pool ownership`
}
