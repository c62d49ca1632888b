package sat

import "unsafe"

// Backing returns the backing array of every slice a clone reserves
// room in, by name, so a test can tell whether adding to the clone
// reallocated one of them.
func Backing(s *Solver) map[string]unsafe.Pointer {
	return map[string]unsafe.Pointer{
		"vals":       unsafe.Pointer(unsafe.SliceData(s.vals)),
		"level":      unsafe.Pointer(unsafe.SliceData(s.level)),
		"reason":     unsafe.Pointer(unsafe.SliceData(s.reason)),
		"trail":      unsafe.Pointer(unsafe.SliceData(s.trail)),
		"activity":   unsafe.Pointer(unsafe.SliceData(s.activity)),
		"polarity":   unsafe.Pointer(unsafe.SliceData(s.polarity)),
		"seen":       unsafe.Pointer(unsafe.SliceData(s.seen)),
		"frozen":     unsafe.Pointer(unsafe.SliceData(s.frozen)),
		"eliminated": unsafe.Pointer(unsafe.SliceData(s.eliminated)),
		"heap":       unsafe.Pointer(unsafe.SliceData(s.order.heap)),
		"heap pos":   unsafe.Pointer(unsafe.SliceData(s.order.pos)),
		"lists":      unsafe.Pointer(unsafe.SliceData(s.wl)),
		"clauses":    unsafe.Pointer(unsafe.SliceData(s.clauses)),
		"arena":      unsafe.Pointer(unsafe.SliceData(s.ca.mem)),
		"pool":       unsafe.Pointer(unsafe.SliceData(s.wpool)),
	}
}
