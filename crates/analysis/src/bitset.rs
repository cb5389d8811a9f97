//! A dense fixed-capacity bit set used by the dataflow solvers.

/// A dense bit set with a fixed universe size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Create an empty set over a universe of `len` elements.
    #[must_use]
    pub fn new(len: usize) -> BitSet {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Universe size.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Insert `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i` is outside the universe.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Remove `i`; returns `true` if it was present.
    ///
    /// # Panics
    /// Panics if `i` is outside the universe.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let nw = *a | *b;
            changed |= nw != *a;
            *a = nw;
        }
        changed
    }

    /// `self &= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let nw = *a & *b;
            changed |= nw != *a;
            *a = nw;
        }
        changed
    }

    /// `self -= other` (set difference).
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// `self = other`, reusing `self`'s storage.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of elements present.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn set_operations() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        a.insert(70);
        b.insert(70);
        b.insert(99);
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 70, 99]);
        assert!(!u.union_with(&b));
        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![70]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn iteration_order() {
        let mut s = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 63, 64, 65, 199]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(3);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }
}
