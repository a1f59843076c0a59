// Package vector held the morsel-driven vectorized engine, which is gone:
// the adaptive controller's ladder is the paper's, bytecode → native
// machine code. What is left is the one name the benchmark module still
// calls.
package vector

import (
	"errors"

	"aqe/internal/codegen"
)

// Compile always fails: there is no vectorized engine to compile for.
//
// Deprecated: the vectorized engine was removed.
func Compile(*codegen.VecSpec) (any, error) {
	return nil, errors.New("vector: the vectorized engine was removed")
}
