package sim

import "sync"

// Group starts tasks on a Runtime and waits for all of them: the join
// protocol code needs to fan a step out and continue when every branch
// is back. A sync.WaitGroup cannot do that under *Sim — it would park
// the one runnable task's goroutine with the scheduler none the wiser,
// for ever — so under *Sim the join is a Promise, and under any other
// Runtime it is a WaitGroup (hand it the *Sim itself, not a wrapper such
// as SkewedRuntime). One task calls Go and then Wait; a Group is not
// reused after Wait returns.
type Group struct {
	rt   Runtime
	wg   sync.WaitGroup
	left int      // virtual time only: tasks not yet finished
	done *Promise // virtual time only: set by a Wait that has to park
}

// NewGroup returns an empty group whose tasks run on rt.
func NewGroup(rt Runtime) *Group { return &Group{rt: rt} }

// Go starts fn as a task of the group.
func (g *Group) Go(fn func()) {
	if _, virtual := g.rt.(*Sim); !virtual {
		g.wg.Add(1)
		g.rt.Spawn(func() {
			defer g.wg.Done()
			fn()
		})
		return
	}
	// Single-token execution: left and done need no lock.
	g.left++
	g.rt.Spawn(func() {
		fn()
		if g.left--; g.left == 0 && g.done != nil {
			g.done.Resolve(nil)
		}
	})
}

// Wait blocks until every task started with Go has returned. In virtual
// time it also returns when the simulation stops.
func (g *Group) Wait() {
	s, virtual := g.rt.(*Sim)
	if !virtual {
		g.wg.Wait()
		return
	}
	if g.left > 0 {
		g.done = s.NewPromise()
		g.done.Future().Await()
	}
}
