//! Sets of small indices packed 64 to a `u64` word, and the one bit-walk
//! every such word in the kernel is read with: a router's per-port VC
//! occupancy words and the scheduler's wake sets over node indices.

/// Bits per word.
const WORD: usize = u64::BITS as usize;

/// The indices of a word's set bits, ascending.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetBits(pub(crate) u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// A set over the indices `0..len`, sized once at construction.
///
/// There is no iterator that borrows the set: a walk takes one word at a
/// time by value and reads its members off the copy,
///
/// ```text
/// for w in 0..set.word_count() {
///     for i in WakeSet::members(w, set.word(w)) { /* may change `set` */ }
/// }
/// ```
///
/// so it is ascending and its body may insert or remove the index it is
/// visiting (or any index behind it) without being shown it again before
/// the next walk. An index inserted ahead of the cursor is visited in this
/// walk when it falls in a later word and in the next one when it falls in
/// the word being walked; no caller depends on either.
#[derive(Debug, Clone)]
pub(crate) struct WakeSet {
    words: Vec<u64>,
    len: usize,
}

impl WakeSet {
    /// The empty set over `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD)],
            len,
        }
    }

    /// Adds `i`; true when it was not a member.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "index {i} outside 0..{}", self.len);
        let (word, bit) = (&mut self.words[i / WORD], 1 << (i % WORD));
        let added = *word & bit == 0;
        *word |= bit;
        added
    }

    /// Drops `i` (a no-op when it is not a member).
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / WORD] &= !(1 << (i % WORD));
    }

    /// Whether `i` is a member.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / WORD] >> (i % WORD) & 1 == 1
    }

    /// Whether the set has no member.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Makes every index of `0..len` a member.
    pub(crate) fn fill(&mut self) {
        for w in 0..self.words.len() {
            self.words[w] = self.full_word(w);
        }
    }

    /// Number of words a walk covers.
    #[inline]
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Word `w` as it is now.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Word `w` as it is now, leaving it empty.
    #[inline]
    pub(crate) fn take_word(&mut self, w: usize) -> u64 {
        std::mem::take(&mut self.words[w])
    }

    /// Word `w` of the full set: all ones except in the last word, where
    /// the bits at and past `len` stay clear — a set never holds an index
    /// it was not sized for, so [`WakeSet::is_empty`] cannot be fooled by
    /// what a [`WakeSet::fill`] left in the tail.
    #[inline]
    pub(crate) fn full_word(&self, w: usize) -> u64 {
        let in_word = (self.len - w * WORD).min(WORD);
        u64::MAX >> (WORD - in_word)
    }

    /// The indices that `word`, read as word `w` of a set, holds, ascending.
    #[inline]
    pub(crate) fn members(w: usize, word: u64) -> impl Iterator<Item = usize> {
        SetBits(word).map(move |b| w * WORD + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One walk of `set`, collecting what it visits; `body` may change the
    /// set as the scheduler's loops do.
    fn walk(set: &mut WakeSet, mut body: impl FnMut(&mut WakeSet, usize)) -> Vec<usize> {
        let mut visited = Vec::new();
        for w in 0..set.word_count() {
            for i in WakeSet::members(w, set.word(w)) {
                visited.push(i);
                body(set, i);
            }
        }
        visited
    }

    /// One word, just under / at / just over it, the 3x3 grid (two words
    /// and 52 bits) and the 8x8 grid (twenty whole words).
    const SIZES: [usize; 7] = [0, 1, 63, 64, 65, 180, 1_280];

    #[test]
    fn a_filled_set_holds_its_indices_and_no_ghost_in_the_tail_word() {
        for n in SIZES {
            let mut set = WakeSet::new(n);
            assert!(set.is_empty(), "new set of {n}");
            assert_eq!(set.word_count(), n.div_ceil(64));
            set.fill();
            assert_eq!(set.is_empty(), n == 0);
            assert_eq!(walk(&mut set, |_, _| ()), (0..n).collect::<Vec<_>>());
            // Removing exactly the `n` indices empties it: `fill` set no
            // bit past `n` in the last word.
            for i in 0..n {
                assert!(set.contains(i));
                assert!(!set.is_empty(), "{i} of {n} still a member");
                set.remove(i);
                assert!(!set.contains(i));
            }
            assert!(set.is_empty(), "ghost bits past {n}");
        }
    }

    #[test]
    fn insert_reports_whether_the_index_is_new() {
        for n in SIZES.into_iter().filter(|&n| n > 0) {
            let mut set = WakeSet::new(n);
            for i in [0, n / 2, n - 1] {
                set.remove(i);
                assert!(set.insert(i));
                assert!(!set.insert(i));
                assert!(set.contains(i));
            }
        }
    }

    #[test]
    fn take_word_hands_the_members_over_and_leaves_none() {
        let mut set = WakeSet::new(180);
        for i in [3, 64, 130, 179] {
            set.insert(i);
        }
        let taken: Vec<usize> = (0..set.word_count())
            .flat_map(|w| WakeSet::members(w, set.take_word(w)))
            .collect();
        assert_eq!(taken, [3, 64, 130, 179]);
        assert!(set.is_empty());
    }

    #[test]
    fn a_walk_shows_an_index_put_back_behind_it_only_to_the_next_walk() {
        let mut set = WakeSet::new(180);
        for i in [5, 70, 71] {
            set.insert(i);
        }
        // A body may drop the index it is visiting and put it back.
        let first = walk(&mut set, |set, i| {
            set.remove(i);
            set.insert(i);
            if i == 70 {
                set.insert(2); // a word behind
                set.insert(69); // this word, behind
                set.insert(150); // a word ahead
            }
        });
        assert_eq!(first, [5, 70, 71, 150]);
        assert_eq!(walk(&mut set, |_, _| ()), [2, 5, 69, 70, 71, 150]);
    }

    #[test]
    fn a_walk_that_removes_what_it_visits_empties_the_set() {
        let mut set = WakeSet::new(1_280);
        set.fill();
        let visited = walk(&mut set, |set, i| set.remove(i));
        assert_eq!(visited.len(), 1_280);
        assert!(visited.windows(2).all(|p| p[0] < p[1]), "ascending");
        assert!(set.is_empty());
    }

    proptest::proptest! {
        /// Any sequence of inserts, removes, fills and walks (the walk
        /// removing every third index it visits, as the consume loop
        /// removes NIs that ran dry) agrees with a `Vec<bool>` — the
        /// representation the sets replaced.
        #[test]
        fn matches_a_vec_of_flags(
            n in 1usize..200,
            ops in proptest::collection::vec((0u8..8, 0usize..200), 1..300),
        ) {
            let mut set = WakeSet::new(n);
            let mut model = vec![false; n];
            for (op, i) in ops {
                let i = i % n;
                match op {
                    0..=2 => {
                        proptest::prop_assert_eq!(set.insert(i), !model[i]);
                        model[i] = true;
                    }
                    3..=5 => {
                        set.remove(i);
                        model[i] = false;
                    }
                    6 => {
                        let members: Vec<usize> = (0..n).filter(|&i| model[i]).collect();
                        let visited = walk(&mut set, |set, i| {
                            if i % 3 == 0 {
                                set.remove(i);
                            }
                        });
                        proptest::prop_assert_eq!(visited, members);
                        (0..n).step_by(3).for_each(|i| model[i] = false);
                    }
                    _ => {
                        set.fill();
                        model.fill(true);
                    }
                }
                proptest::prop_assert_eq!(set.contains(i), model[i]);
                proptest::prop_assert_eq!(set.is_empty(), !model.contains(&true));
            }
            let members: Vec<usize> = (0..n).filter(|&i| model[i]).collect();
            proptest::prop_assert_eq!(walk(&mut set, |_, _| ()), members);
        }
    }
}
