package sim

import "fmt"

// Resource is a counted resource with a FIFO wait queue — used for servers
// that admit a bounded number of concurrent operations (e.g. the Lustre
// metadata server).
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	queue    []waiter
}

// NewResource creates a resource admitting capacity concurrent holders.
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Release frees a slot, waking the head of the queue if any. The slot
// transfers directly to the woken waiter, preserving FIFO fairness.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name)) //pfsim:allocok crash path: the formatted panic message never allocates on a live run
	}
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.eng.unblock(next.t)
		next.wake(r.eng)
		return // slot stays accounted to the woken waiter
	}
	r.inUse--
}

// InUse reports the number of held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of waiting tasks.
func (r *Resource) QueueLen() int { return len(r.queue) }
