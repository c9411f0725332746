//! Fixed-capacity FIFO history buffer used for both the global history
//! buffer (GHB) and each table entry's local history buffer (LHB).

use std::collections::VecDeque;

/// A bounded FIFO of the most recent `capacity` items; pushing to a full
/// buffer evicts the oldest item.
///
/// A capacity of zero is legal and models the paper's GHB-0 configuration
/// (the table is indexed by the PC alone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryBuffer<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> HistoryBuffer<T> {
    /// Creates an empty buffer holding at most `capacity` items.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        HistoryBuffer {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of items currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Pushes `item`, evicting and returning the oldest item if full. With
    /// capacity zero the item is dropped and returned immediately.
    pub fn push(&mut self, item: T) -> Option<T> {
        if self.capacity == 0 {
            return Some(item);
        }
        let evicted = if self.items.len() == self.capacity {
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(item);
        evicted
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &T> + '_ {
        self.items.iter()
    }
}

impl<'a, T> IntoIterator for &'a HistoryBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T> Extend<T> for HistoryBuffer<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_when_full() {
        let mut buf = HistoryBuffer::new(3);
        assert_eq!(buf.push(1), None);
        assert_eq!(buf.push(2), None);
        assert_eq!(buf.push(3), None);
        assert_eq!(buf.push(4), Some(1));
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let mut buf = HistoryBuffer::new(0);
        assert_eq!(buf.push(42), Some(42));
        assert!(buf.is_empty());
    }

    #[test]
    fn extend_pushes_in_order() {
        let mut buf = HistoryBuffer::new(4);
        buf.extend(0..6);
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }
}
