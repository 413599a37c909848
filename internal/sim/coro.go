//go:build go1.23

package sim

import "iter"

// start turns p into a coroutine that runs body, then done. Stopping it
// while suspended makes suspend panic with unwind, which runs the body's
// deferred calls and is recovered here, releasing the coroutine.
func (p *Proc) start(body, done func(*Proc)) {
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if v := recover(); v != nil && !Unwinding(v) {
				panic(v)
			}
		}()
		p.coYield = yield
		body(p)
		done(p)
	})
}

// suspend hands control back to whoever resumed the thread.
func (p *Proc) suspend() {
	if !p.coYield(struct{}{}) {
		panic(unwind{})
	}
}

// unwind is the panic that tears down a suspended thread body after
// another thread of its region panicked.
type unwind struct{}

// Unwinding reports whether a recovered panic value is that teardown;
// recover handlers in thread bodies must re-panic it.
func Unwinding(v any) bool {
	_, ok := v.(unwind)
	return ok
}
