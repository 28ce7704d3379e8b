// Package query sits below the server layer: fresh root contexts are
// violations here.
package query

import "context"

func freshRoot() context.Context {
	return context.Background() // want ctxflow "below the server layer"
}

func todoRoot() context.Context {
	return context.TODO() // want ctxflow "below the server layer"
}

// suppressed is the audited escape hatch.
func suppressed() context.Context {
	//lint:ignore ctxflow fixture-sanctioned root context for the suppression test.
	return context.Background()
}

var (
	_ = freshRoot
	_ = todoRoot
	_ = suppressed
)
