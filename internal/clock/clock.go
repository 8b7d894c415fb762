// Package clock provides an injectable time source.
//
// Promise durations and expiry (paper §2: "Promises do not last forever")
// are defined relative to a Clock. Production code uses the system clock;
// tests and benchmarks use a manually advanced fake so that expiry behaviour
// is deterministic.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for promise expiry.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
}

// Alarmer is implemented by clocks that can run a function when an instant
// is reached. The expiry heap uses it to fire promise expirations at their
// deadlines instead of at the next request. Both System and Fake implement
// it; a Clock that does not leaves expiry to the request path.
type Alarmer interface {
	// AfterFunc arranges for f to run once the clock reaches t and returns
	// a stop function cancelling the alarm (a no-op once fired). System
	// runs f on its own goroutine; Fake runs due alarms synchronously
	// inside Advance and Set, so a test that advances past a deadline
	// observes its effects before Advance returns. An alarm set at or
	// before the current instant fires asynchronously, immediately.
	AfterFunc(t time.Time, f func()) (stop func())
}

// System is a Clock backed by the wall clock.
type System struct{}

// Now implements Clock.
func (System) Now() time.Time { return time.Now() }

// AfterFunc implements Alarmer over time.AfterFunc.
func (System) AfterFunc(t time.Time, f func()) (stop func()) {
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	timer := time.AfterFunc(d, f)
	return func() { timer.Stop() }
}

// fakeAlarm is one pending Fake alarm.
type fakeAlarm struct {
	id int
	at time.Time
	f  func()
}

// Fake is a manually controlled Clock. The zero value starts at the Unix
// epoch. Fake is safe for concurrent use.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	nextID int
	alarms []*fakeAlarm
}

// NewFake returns a Fake clock set to start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the clock forward by d, firing any alarms whose instant is
// reached, in instant order, before returning. Advancing by a negative
// duration moves it backwards (firing nothing); tests use that to probe
// clock-skew handling.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	due := f.collectDueLocked()
	f.mu.Unlock()
	for _, a := range due {
		a.f()
	}
}

// Set jumps the clock to t, firing any alarms t reaches before returning.
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	f.now = t
	due := f.collectDueLocked()
	f.mu.Unlock()
	for _, a := range due {
		a.f()
	}
}

// collectDueLocked removes and returns every alarm at or before now, in
// (instant, registration) order. Callers run them after releasing mu, so an
// alarm callback can read the clock or register new alarms.
func (f *Fake) collectDueLocked() []*fakeAlarm {
	var due []*fakeAlarm
	kept := f.alarms[:0]
	for _, a := range f.alarms {
		if !a.at.After(f.now) {
			due = append(due, a)
		} else {
			kept = append(kept, a)
		}
	}
	f.alarms = kept
	sort.SliceStable(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	return due
}

// AfterFunc implements Alarmer. Alarms set at or before the current instant
// fire immediately on their own goroutine (matching System, whose timer
// also fires asynchronously); future alarms fire inside the Advance or Set
// call that reaches them.
func (f *Fake) AfterFunc(t time.Time, fn func()) (stop func()) {
	f.mu.Lock()
	if !t.After(f.now) {
		f.mu.Unlock()
		go fn()
		return func() {}
	}
	a := &fakeAlarm{id: f.nextID, at: t, f: fn}
	f.nextID++
	f.alarms = append(f.alarms, a)
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i, p := range f.alarms {
			if p.id == a.id {
				f.alarms = append(f.alarms[:i], f.alarms[i+1:]...)
				return
			}
		}
	}
}
