// Package cold has no //pfsim:hotpath root: naming it on its own checks
// nothing, so pfsim-escape must refuse it as a usage error.
package cold

// Sum is ordinary, unannotated code.
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
