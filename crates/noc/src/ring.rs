//! Fixed-capacity struct-of-arrays ring buffers for port×VC queues.
//!
//! A [`RingBank`] packs every queue of a router or NI into one contiguous
//! slot array indexed by `(queue, offset)`, with per-queue head/len cursors.
//! Capacity is fixed at construction (sized from `NocConfig` buffer depths),
//! so steady-state enqueue/dequeue never touches the allocator — overflow is
//! a protocol violation and surfaces as a hard error at the call site.

/// A bank of `queues` fixed-capacity FIFO rings backed by one contiguous
/// slot array.
#[derive(Debug, Clone)]
pub struct RingBank<T: Copy> {
    slots: Box<[T]>,
    head: Box<[u32]>,
    len: Box<[u32]>,
    cap: u32,
    occupied: usize,
}

impl<T: Copy> RingBank<T> {
    /// A bank of `queues` rings, each holding up to `cap` entries, with
    /// slots initialized to `fill` (never read before being overwritten by
    /// a push).
    ///
    /// # Panics
    /// If `cap` is zero — `NocConfig::validate` rejects zero-depth buffers
    /// before any ring is built, so this indicates a config that bypassed
    /// validation.
    pub fn new(queues: usize, cap: usize, fill: T) -> Self {
        assert!(
            cap > 0,
            "ring capacity must be positive (zero-depth VC buffers are rejected by NocConfig::validate)"
        );
        let cap = u32::try_from(cap).expect("ring capacity exceeds u32");
        Self {
            slots: vec![fill; queues * cap as usize].into_boxed_slice(),
            head: vec![0; queues].into_boxed_slice(),
            len: vec![0; queues].into_boxed_slice(),
            cap,
            occupied: 0,
        }
    }

    /// Number of queues in the bank.
    #[inline]
    pub fn queues(&self) -> usize {
        self.head.len()
    }

    /// Per-queue capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// `head + i` wrapped into `0..cap`. Both operands are at most `cap`, so
    /// one compare-and-subtract replaces the division a `%` by the run-time
    /// capacity would cost on every flit.
    #[inline]
    fn wrap(&self, head: u32, i: u32) -> u32 {
        debug_assert!(head < self.cap && i <= self.cap);
        let off = head + i;
        if off >= self.cap {
            off - self.cap
        } else {
            off
        }
    }

    #[inline]
    fn slot(&self, q: usize, i: u32) -> usize {
        debug_assert!(i < self.len[q]);
        q * self.cap as usize + self.wrap(self.head[q], i) as usize
    }

    /// Appends `v` to queue `q`; returns `Err(v)` if the queue is full.
    #[inline]
    pub fn push_back(&mut self, q: usize, v: T) -> Result<(), T> {
        if self.len[q] == self.cap {
            return Err(v);
        }
        let off = self.wrap(self.head[q], self.len[q]);
        self.slots[q * self.cap as usize + off as usize] = v;
        self.len[q] += 1;
        self.occupied += 1;
        Ok(())
    }

    /// Removes and returns the front of queue `q`.
    #[inline]
    pub fn pop_front(&mut self, q: usize) -> Option<T> {
        if self.len[q] == 0 {
            return None;
        }
        let v = self.slots[q * self.cap as usize + self.head[q] as usize];
        self.head[q] = self.wrap(self.head[q], 1);
        self.len[q] -= 1;
        self.occupied -= 1;
        Some(v)
    }

    /// The front of queue `q`, if any.
    #[inline]
    pub fn front(&self, q: usize) -> Option<&T> {
        if self.len[q] == 0 {
            None
        } else {
            Some(&self.slots[q * self.cap as usize + self.head[q] as usize])
        }
    }

    /// The `i`-th entry (front is 0) of queue `q`.
    #[inline]
    pub fn get(&self, q: usize, i: usize) -> Option<&T> {
        if i >= self.len[q] as usize {
            None
        } else {
            Some(&self.slots[self.slot(q, i as u32)])
        }
    }

    /// Mutable access to the `i`-th entry of queue `q`.
    #[inline]
    pub fn get_mut(&mut self, q: usize, i: usize) -> Option<&mut T> {
        if i >= self.len[q] as usize {
            None
        } else {
            let s = self.slot(q, i as u32);
            Some(&mut self.slots[s])
        }
    }

    /// Iterates queue `q` front-to-back.
    pub fn iter(&self, q: usize) -> impl Iterator<Item = &T> + '_ {
        (0..self.len[q] as usize).map(move |i| &self.slots[self.slot(q, i as u32)])
    }

    /// Occupancy of queue `q`.
    #[inline]
    pub fn len(&self, q: usize) -> usize {
        self.len[q] as usize
    }

    /// True if queue `q` is empty.
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.len[q] == 0
    }

    /// True if any queue in the bank holds an entry.
    #[inline]
    pub fn any_nonempty(&self) -> bool {
        self.occupied > 0
    }

    /// Total entries across all queues.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.occupied
    }

    /// Exact heap bytes of the bank's backing storage.
    pub fn mem_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<T>()
            + self.head.len() * std::mem::size_of::<u32>()
            + self.len.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_with_wraparound() {
        let mut b = RingBank::new(2, 3, 0u64);
        for round in 0..5u64 {
            for i in 0..3 {
                b.push_back(1, round * 10 + i).unwrap();
            }
            assert_eq!(b.len(1), 3);
            assert_eq!(b.front(1), Some(&(round * 10)));
            assert_eq!(b.get(1, 2), Some(&(round * 10 + 2)));
            let drained: Vec<u64> = (0..3).map(|_| b.pop_front(1).unwrap()).collect();
            assert_eq!(drained, vec![round * 10, round * 10 + 1, round * 10 + 2]);
        }
        assert!(b.is_empty(1));
        assert!(!b.any_nonempty());
        assert_eq!(b.pop_front(1), None);
    }

    proptest::proptest! {
        /// Any push/pop interleaving behaves like a bounded `VecDeque` per
        /// queue: the compare-and-subtract wrap-around visits the slots a
        /// `% cap` would, for capacities around and off the powers of two.
        #[test]
        fn matches_a_bounded_vecdeque_model(
            cap in 1usize..7,
            ops in proptest::collection::vec((proptest::bool::ANY, 0usize..3), 1..200),
        ) {
            let mut bank = RingBank::new(3, cap, 0u32);
            let mut model = vec![std::collections::VecDeque::new(); 3];
            for (i, (push, q)) in ops.into_iter().enumerate() {
                let v = i as u32;
                if push {
                    let full = model[q].len() == cap;
                    proptest::prop_assert_eq!(bank.push_back(q, v), if full { Err(v) } else { Ok(()) });
                    if !full {
                        model[q].push_back(v);
                    }
                } else {
                    proptest::prop_assert_eq!(bank.pop_front(q), model[q].pop_front());
                }
                for (q, m) in model.iter().enumerate() {
                    proptest::prop_assert_eq!(bank.iter(q).copied().collect::<Vec<_>>(), Vec::from(m.clone()));
                    proptest::prop_assert_eq!(bank.is_empty(q), m.is_empty());
                }
                proptest::prop_assert_eq!(bank.total_len(), model.iter().map(|m| m.len()).sum::<usize>());
            }
        }
    }

    #[test]
    fn overflow_is_reported_not_silently_dropped() {
        let mut b = RingBank::new(1, 2, 0u32);
        b.push_back(0, 1).unwrap();
        b.push_back(0, 2).unwrap();
        assert_eq!(b.push_back(0, 3), Err(3));
        assert_eq!(b.len(0), 2);
    }

    #[test]
    fn queues_are_independent() {
        let mut b = RingBank::new(3, 2, 0u32);
        b.push_back(0, 7).unwrap();
        b.push_back(2, 9).unwrap();
        assert!(b.any_nonempty());
        assert_eq!(b.total_len(), 2);
        assert!(b.is_empty(1));
        assert_eq!(b.pop_front(2), Some(9));
        assert_eq!(b.pop_front(0), Some(7));
        assert_eq!(b.total_len(), 0);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut b = RingBank::new(1, 4, 0u32);
        b.push_back(0, 1).unwrap();
        b.push_back(0, 2).unwrap();
        *b.get_mut(0, 1).unwrap() = 20;
        assert_eq!(b.iter(0).copied().collect::<Vec<_>>(), vec![1, 20]);
        assert!(b.get_mut(0, 2).is_none());
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = RingBank::new(1, 0, 0u32);
    }

    #[test]
    fn mem_bytes_counts_backing_storage() {
        let b = RingBank::new(2, 4, 0u64);
        assert_eq!(b.mem_bytes(), 2 * 4 * 8 + 2 * 4 + 2 * 4);
    }
}
