package sim

// Barrier synchronises n simulated threads. When the last thread arrives,
// every waiter's clock is advanced to the latest arriver's clock (waiting
// costs wall time) and all are released.
type Barrier struct {
	n       int
	waiting []*Proc
}

// NewBarrier returns a barrier for n threads.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	return &Barrier{n: n}
}

// Wait blocks p until n threads have arrived.
func (b *Barrier) Wait(p *Proc) {
	if p.ShardActive() {
		// Arrivals are ordered at epoch boundaries: the waiting list is
		// shared, so each arriver parks an exclusive op that registers
		// it (or, for the last arriver, releases everyone at the max
		// clock). One closure per wait is fine — barriers are region-
		// level, not per-op.
		p.Exclusive(func() { b.arriveShard(p) })
		return
	}
	p.preOp()
	if len(b.waiting)+1 < b.n {
		b.waiting = append(b.waiting, p)
		p.block()
		return
	}
	// Last arriver: release everyone at the max clock.
	maxClock := p.clock
	for _, w := range b.waiting {
		if w.clock > maxClock {
			maxClock = w.clock
		}
	}
	for _, w := range b.waiting {
		w.clock = maxClock
		p.eng.push(w) // runnable again
	}
	b.waiting = b.waiting[:0]
	p.clock = maxClock
	p.yield()
}

// arriveShard runs at an epoch boundary (inside p's Exclusive op). The
// non-last arrivers convert their park into a blocked state; the last
// arriver releases everyone at the latest arrival clock.
func (b *Barrier) arriveShard(p *Proc) {
	if p.PreOp != nil {
		p.PreOp()
	}
	if len(b.waiting)+1 < b.n {
		b.waiting = append(b.waiting, p)
		p.shardBlock()
		return
	}
	maxClock := p.clock
	for _, w := range b.waiting {
		if w.clock > maxClock {
			maxClock = w.clock
		}
	}
	for _, w := range b.waiting {
		w.shardUnblock(maxClock)
	}
	b.waiting = b.waiting[:0]
	p.clock = maxClock
}
