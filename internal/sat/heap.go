package sat

// activityHeap is a binary max-heap of variables ordered by VSIDS activity.
// It maintains a position index so that arbitrary variables can be updated
// or removed in O(log n).
type activityHeap struct {
	heap []Var // heap of variables
	pos  []int // var -> index in heap, -1 if absent
	act  *[]float64
}

func newActivityHeap(act *[]float64) *activityHeap {
	return &activityHeap{act: act}
}

// resetOrder rebuilds the decision heap over s's activity, pushing every
// unassigned, uneliminated variable in index order into arrays sized
// once, with room for vcap variables.
func (s *Solver) resetOrder(vcap int) {
	nv := len(s.level)
	h := &activityHeap{act: &s.activity, heap: make([]Var, 0, vcap), pos: make([]int, nv, vcap)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	s.order = h
	for v := Var(0); int(v) < nv; v++ {
		if s.vals[PosLit(v)] == Unknown && !s.eliminated[v] {
			h.push(v)
		}
	}
}

func (h *activityHeap) grow(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
	}
}

func (h *activityHeap) less(i, j int) bool {
	return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]]
}

func (h *activityHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *activityHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *activityHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *activityHeap) contains(v Var) bool {
	return int(v) < len(h.pos) && h.pos[v] >= 0
}

func (h *activityHeap) push(v Var) {
	h.grow(int(v) + 1)
	if h.contains(v) {
		return
	}
	h.pos[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.pos[v])
}

func (h *activityHeap) pop() Var {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *activityHeap) empty() bool { return len(h.heap) == 0 }

// update restores heap order after v's activity increased.
func (h *activityHeap) update(v Var) {
	if h.contains(v) {
		h.up(h.pos[v])
	}
}

// rebuild re-heapifies after a global activity rescale.
func (h *activityHeap) rebuild() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
