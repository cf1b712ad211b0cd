package jobs

import "testing"

// TestNotifier: Notify never blocks, notifications a watcher has not read
// coalesce into one, and release is idempotent and stops notifications.
func TestNotifier(t *testing.T) {
	var n Notifier
	n.Notify() // no watchers yet
	a, releaseA := n.Subscribe()
	b, releaseB := n.Subscribe()
	if got := n.Watchers(); got != 2 {
		t.Fatalf("watchers %d, want 2", got)
	}
	n.Notify()
	n.Notify()
	for name, ch := range map[string]<-chan struct{}{"a": a, "b": b} {
		if got := len(ch); got != 1 {
			t.Errorf("watcher %s holds %d notifications, want 1", name, got)
		}
	}
	<-a
	releaseA()
	releaseA()
	if got := n.Watchers(); got != 1 {
		t.Fatalf("watchers %d after releasing a twice, want 1", got)
	}
	n.Notify()
	if len(a) != 0 {
		t.Error("released watcher notified")
	}
	releaseB()
	if got := n.Watchers(); got != 0 {
		t.Fatalf("watchers %d after releasing both, want 0", got)
	}
}
