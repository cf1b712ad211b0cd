package jobs

import "sync"

// Notifier fans a job's updates out to its watchers; a node's Job and the
// coordinator's record of a fleet job both notify through one. The zero
// value is ready to use.
type Notifier struct {
	mu   sync.Mutex
	subs map[chan struct{}]struct{}
}

// Subscribe registers a watcher, whose channel receives a notification
// after each Notify; notifications it has not read yet coalesce into one.
// The release function MUST be called when the watcher goes away (client
// disconnect, handler return), or an abandoned watch holds job resources
// forever. Release is idempotent.
func (n *Notifier) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	n.mu.Lock()
	if n.subs == nil {
		n.subs = make(map[chan struct{}]struct{})
	}
	n.subs[ch] = struct{}{}
	n.mu.Unlock()
	return ch, func() {
		n.mu.Lock()
		delete(n.subs, ch)
		n.mu.Unlock()
	}
}

// Notify wakes every watcher. It never blocks: a watcher that holds a
// pending notification keeps that one.
func (n *Notifier) Notify() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for ch := range n.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Watchers reports the number of live subscriptions.
func (n *Notifier) Watchers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.subs)
}
