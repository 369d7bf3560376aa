// Package api is a fixture for the ctxcheck analyzer.
package api

import "context"

// Queue is an exported blocking surface.
type Queue struct {
	ch chan int
}

// Pop blocks on the channel with no context parameter.
func (q *Queue) Pop() int { // want ctxcheck:"blocks on a channel but takes no context.Context"
	return <-q.ch
}

// Push takes its context in the wrong position.
func (q *Queue) Push(v int, ctx context.Context) error { // want ctxcheck:"the context parameter comes first"
	q.ch <- v
	return ctx.Err()
}

// Get is the correct shape: context first, so no finding.
func (q *Queue) Get(ctx context.Context) (int, error) {
	select {
	case v := <-q.ch:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Request blocks only inside the unexported call loop it delegates to.
func (q *Queue) Request(v int) int { // want ctxcheck:"blocks on a channel but takes no context.Context"
	return q.call(v)
}

// Peek calls only a helper that never blocks: no finding.
func (q *Queue) Peek() int { return q.size() }

func (q *Queue) call(v int) int {
	q.ch <- v
	return <-q.ch
}

func (q *Queue) size() int { return len(q.ch) }

// Close blocks but is a conventional shutdown entry point, which the
// analyzer exempts by name.
func (q *Queue) Close() { <-q.ch }

// Wait blocks deliberately; the annotation records the lifecycle.
//
//wwlint:allow ctxcheck fixture: lifecycle-managed by Close, mirrors the transport pump
func (q *Queue) Wait() { <-q.ch }

// Drain mints a root context instead of propagating the caller's.
func (q *Queue) Drain() {
	ctx := context.Background() // want ctxcheck:"propagate the caller's ctx"
	_ = ctx
}

// Detach launches genuinely detached fixture work under a suppression.
func Detach() {
	go work(context.Background()) //wwlint:allow ctxcheck fixture: detached task with process lifetime
}

func work(ctx context.Context) { _ = ctx }
