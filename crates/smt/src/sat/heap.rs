//! Indexed binary max-heap keyed by VSIDS activity.
//!
//! The classic MiniSat order heap: supports `insert`, `pop_max`, and
//! `update` (increase-key) in O(log n), with a position index so membership
//! checks are O(1).

/// Max-heap over `usize` element ids with `f64` priorities.
pub struct ActivityHeap {
    /// Heap array of element ids.
    heap: Vec<usize>,
    /// Position of each element in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
    /// Priority of each element.
    prio: Vec<f64>,
}

const ABSENT: usize = usize::MAX;

impl Default for ActivityHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl ActivityHeap {
    /// Empty heap.
    pub fn new() -> Self {
        ActivityHeap { heap: Vec::new(), pos: Vec::new(), prio: Vec::new() }
    }

    fn ensure(&mut self, id: usize) {
        if id >= self.pos.len() {
            self.pos.resize(id + 1, ABSENT);
            self.prio.resize(id + 1, 0.0);
        }
    }

    /// True iff `id` is currently in the heap.
    pub fn contains(&self, id: usize) -> bool {
        id < self.pos.len() && self.pos[id] != ABSENT
    }

    /// Insert `id` with the given priority; no-op if already present (but
    /// the priority is still updated upward).
    pub fn insert(&mut self, id: usize, priority: f64) {
        self.ensure(id);
        if self.contains(id) {
            self.update(id, priority);
            return;
        }
        self.prio[id] = priority;
        self.pos[id] = self.heap.len();
        self.heap.push(id);
        self.sift_up(self.heap.len() - 1);
    }

    /// Raise the priority of `id` (ignored if the new priority is lower and
    /// the element is in the heap — VSIDS activities only grow between
    /// rescales).
    pub fn update(&mut self, id: usize, priority: f64) {
        self.ensure(id);
        self.prio[id] = priority;
        if self.contains(id) {
            self.sift_up(self.pos[id]);
            self.sift_down(self.pos[id]);
        }
    }

    /// Remove and return the element with the highest priority.
    pub fn pop_max(&mut self) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().unwrap();
        self.pos[top] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Rebuild all priorities (used after a global activity rescale).
    pub fn rebuild(&mut self, priorities: &[f64]) {
        for (id, &p) in priorities.iter().enumerate() {
            self.ensure(id);
            self.prio[id] = p;
        }
        let members = self.heap.clone();
        self.heap.clear();
        for &id in &members {
            self.pos[id] = ABSENT;
        }
        for id in members {
            self.pos[id] = self.heap.len();
            self.heap.push(id);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Drop every element with id ≥ `bound` (used when popping an assertion
    /// scope discards the variables created inside it). Survivors keep
    /// their priorities; the heap property is restored bottom-up.
    pub fn truncate_ids(&mut self, bound: usize) {
        self.heap.retain(|&id| id < bound);
        for id in bound..self.pos.len() {
            self.pos[id] = ABSENT;
        }
        self.pos.truncate(bound);
        self.prio.truncate(bound);
        for i in 0..self.heap.len() {
            self.pos[self.heap[i]] = i;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Number of elements currently in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.prio[self.heap[i]] <= self.prio[self.heap[parent]] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.prio[self.heap[l]] > self.prio[self.heap[best]] {
                best = l;
            }
            if r < self.heap.len() && self.prio[self.heap[r]] > self.prio[self.heap[best]] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = i;
        self.pos[self.heap[j]] = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut h = ActivityHeap::new();
        h.insert(0, 1.0);
        h.insert(1, 5.0);
        h.insert(2, 3.0);
        assert_eq!(h.pop_max(), Some(1));
        assert_eq!(h.pop_max(), Some(2));
        assert_eq!(h.pop_max(), Some(0));
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn update_raises() {
        let mut h = ActivityHeap::new();
        h.insert(0, 1.0);
        h.insert(1, 2.0);
        h.update(0, 10.0);
        assert_eq!(h.pop_max(), Some(0));
    }

    #[test]
    fn reinsert_after_pop() {
        let mut h = ActivityHeap::new();
        h.insert(0, 1.0);
        assert_eq!(h.pop_max(), Some(0));
        assert!(!h.contains(0));
        h.insert(0, 2.0);
        assert!(h.contains(0));
        assert_eq!(h.pop_max(), Some(0));
    }

    #[test]
    fn rebuild_preserves_membership() {
        let mut h = ActivityHeap::new();
        for i in 0..10 {
            h.insert(i, i as f64);
        }
        let _ = h.pop_max();
        let prios: Vec<f64> = (0..10).map(|i| 10.0 - i as f64).collect();
        h.rebuild(&prios);
        assert_eq!(h.len(), 9);
        // Element 9 was popped; the new max priority among members is 0 (prio 10)...
        // element 0 has priority 10.0 now.
        assert_eq!(h.pop_max(), Some(0));
    }

    #[test]
    fn truncate_ids_drops_high_ids_and_keeps_order() {
        let mut h = ActivityHeap::new();
        for i in 0..20 {
            h.insert(i, (i * 7 % 13) as f64);
        }
        h.truncate_ids(10);
        assert_eq!(h.len(), 10);
        assert!(!h.contains(15));
        let mut popped = Vec::new();
        while let Some(x) = h.pop_max() {
            popped.push(x);
        }
        let mut expect: Vec<usize> = (0..10).collect();
        expect.sort_by_key(|&a| std::cmp::Reverse(a * 7 % 13));
        assert_eq!(popped, expect);
    }

    #[test]
    fn random_heap_matches_sort() {
        use ccmatic_num::SmallRng;
        let mut rng = SmallRng::seed_from_u64(42);
        let mut h = ActivityHeap::new();
        let prios: Vec<f64> = (0..100).map(|_| rng.next_f64() * 100.0).collect();
        for (i, &p) in prios.iter().enumerate() {
            h.insert(i, p);
        }
        let mut popped = Vec::new();
        while let Some(x) = h.pop_max() {
            popped.push(x);
        }
        let mut expect: Vec<usize> = (0..100).collect();
        expect.sort_by(|&a, &b| prios[b].partial_cmp(&prios[a]).unwrap());
        assert_eq!(popped, expect);
    }
}
