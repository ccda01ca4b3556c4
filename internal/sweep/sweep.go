// Package sweep is the shared parallel evaluation engine every scenario
// fan-out in this repository routes through: the UPS-rating sweep and
// technique-variant races in internal/core, the Monte-Carlo year and
// configuration fan-outs in internal/availability, figure regeneration in
// internal/experiments, and section design in internal/portfolio.
//
// The engine is deliberately small: a bounded-width ordered parallel map
// (Map) plus a content-keyed memoizing cache (Cache). Determinism is the
// contract — Map returns results in input order regardless of completion
// order, and callers fold those results serially, so a parallel run
// produces byte-identical output to a serial one. The pool width travels
// on the context (WithWidth), so a single -parallel flag at the top of
// cmd/experiments reaches every nested fan-out without threading an extra
// parameter through the stack.
package sweep

import (
	"context"
	"runtime"
	"sync"
)

type widthKey struct{}

// WithWidth returns a context that asks every sweep.Map beneath it to use
// a worker pool of n goroutines. n < 1 is ignored (the default applies).
func WithWidth(ctx context.Context, n int) context.Context {
	if n < 1 {
		return ctx
	}
	return context.WithValue(ctx, widthKey{}, n)
}

// Width reports the pool width the context carries, defaulting to
// GOMAXPROCS. It is always at least 1.
func Width(ctx context.Context) int {
	if n, ok := ctx.Value(widthKey{}).(int); ok && n >= 1 {
		return n
	}
	if n := runtime.GOMAXPROCS(0); n >= 1 {
		return n
	}
	return 1
}

// Map applies fn to every item over a bounded worker pool and returns the
// results in input order. The first error to occur cancels the remaining
// work (fn observes the cancellation through its context) and is returned;
// cancellation of the parent context is likewise propagated. With width 1
// (or a single item) Map degenerates to a plain serial loop — no
// goroutines — which is the reference behavior parallel runs must match.
func Map[T, R any](ctx context.Context, items []T, fn func(context.Context, T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	width := Width(ctx)
	if width > len(items) {
		width = len(items)
	}
	if width <= 1 {
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, it)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		firstOnce sync.Once
		firstErr  error
		wg        sync.WaitGroup
	)
	fail := func(err error) {
		firstOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	idx := make(chan int)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r, err := fn(inner, items[i])
				if err != nil {
					fail(err)
					continue
				}
				out[i] = r
			}
		}()
	}
feed:
	for i := range items {
		select {
		case idx <- i:
		case <-inner.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Parent cancellation outranks any error a worker saw as a
		// consequence of it.
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
