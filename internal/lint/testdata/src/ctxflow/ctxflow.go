// Package ctxflow exercises the ctxflow analyzer: functions that
// receive a context must thread it — no fresh roots, no calls to the
// context-free variant of an API whose *Context sibling exists.
package ctxflow

import "context"

func step(ctx context.Context) error { return ctx.Err() }

func badBackground(ctx context.Context) error {
	return step(context.Background()) // want `context\.Background inside a function that receives a ctx`
}

func badTODO(ctx context.Context) error {
	return step(context.TODO()) // want `context\.TODO inside a function that receives a ctx`
}

func goodThread(ctx context.Context) error {
	return step(ctx)
}

// root has no ctx parameter: it is a legitimate place to mint one.
func root() error {
	return step(context.Background())
}

type engine struct{}

func (e *engine) Run(n int) error                             { return nil }
func (e *engine) RunContext(ctx context.Context, n int) error { _ = ctx; return nil }

func badSibling(ctx context.Context, e *engine) error {
	return e.Run(1) // want `Run has a context-threading variant RunContext`
}

func goodSibling(ctx context.Context, e *engine) error {
	return e.RunContext(ctx, 1)
}

func load(n int) int                         { return n }
func loadCtx(ctx context.Context, n int) int { _ = ctx; return n }
func sweep(n int) int                        { return n }

func badPkgSibling(ctx context.Context) int {
	return load(1) // want `load has a context-threading variant loadCtx`
}

// goodNoSibling: sweep has no *Context/*Ctx variant, so calling it from
// a ctx-receiving function is fine.
func goodNoSibling(ctx context.Context) int {
	return sweep(2)
}

func allowedDrain(ctx context.Context) context.Context {
	//lint:allow ctxflow drain deadline must outlive the cancelled serve ctx
	return context.Background()
}
