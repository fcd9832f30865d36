//! The cyclic staging buffers of Algorithm 2, step 1 (paper, §IV.B).
//!
//! The paper stages each input of the segmented merge through a buffer of
//! `L` slots: every iteration refills exactly the slots the previous one
//! consumed ("overwriting the used elements of the respective arrays
//! (cyclic buffer)"), so every merge-phase access lands in one fixed
//! `3L`-element footprint. [`scenarios::spm_cyclic_shared`] walks Algorithm
//! 2 through two [`RingBuffer`]s and replays the exact trace.
//!
//! A [`RingView`] is a [`SortedView`], so the walk searches and merges it
//! with the library's own `co_rank_probed` and `merge_views_into_probed`.
//!
//! [`scenarios::spm_cyclic_shared`]: crate::scenarios::spm_cyclic_shared

use mergepath::view::SortedView;

/// A contiguous logical window over a ring buffer.
///
/// Index `i` of the view maps to physical slot `(head + i) % capacity` of
/// the backing buffer: elements are refilled in place of consumed ones, so
/// a logical window generally wraps around the physical end of the buffer.
#[derive(Debug)]
pub struct RingView<'a, T> {
    buf: &'a [T],
    head: usize,
    len: usize,
}

impl<'a, T> RingView<'a, T> {
    /// Creates a view of `len` elements starting at physical index `head`.
    ///
    /// # Panics
    /// Panics if `buf` is empty or `len > buf.len()`.
    pub fn new(buf: &'a [T], head: usize, len: usize) -> Self {
        assert!(
            len <= buf.len(),
            "RingView window {} exceeds buffer capacity {}",
            len,
            buf.len()
        );
        RingView {
            buf,
            head: head % buf.len(),
            len,
        }
    }

    /// The physical index backing logical index `i`.
    #[inline(always)]
    pub fn physical_index(&self, i: usize) -> usize {
        (self.head + i) % self.buf.len()
    }

    /// Returns the sub-view of logical range `start..end`.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> RingView<'a, T> {
        assert!(
            start <= end && end <= self.len,
            "invalid RingView slice {start}..{end} of length {}",
            self.len
        );
        RingView {
            buf: self.buf,
            head: self.physical_index(start),
            len: end - start,
        }
    }
}

impl<T> SortedView<T> for RingView<'_, T> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn get(&self, i: usize) -> &T {
        debug_assert!(
            i < self.len,
            "RingView index {i} out of bounds {}",
            self.len
        );
        &self.buf[self.physical_index(i)]
    }
}

/// A mutable ring buffer of exactly the capacity asked for: the staging
/// area for one input of the simulated cyclic segmented merge, whose
/// layout reserves `L` slots per ring.
///
/// The buffer tracks a `[head, head + len)` live window. Consuming elements
/// advances `head`; refilling appends at the tail, overwriting slots whose
/// elements were already consumed.
#[derive(Debug)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
}

impl<T: Clone + Default> RingBuffer<T> {
    /// Creates a ring buffer of `capacity.max(1)` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        RingBuffer {
            buf: vec![T::default(); capacity.max(1)],
            head: 0,
            len: 0,
        }
    }

    /// Physical capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of live (unconsumed) elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no live elements remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots available for refill.
    pub fn free(&self) -> usize {
        self.capacity() - self.len
    }

    /// Appends `src` at the tail of the live window.
    ///
    /// # Panics
    /// Panics if `src.len() > self.free()`.
    pub fn refill(&mut self, src: &[T]) {
        assert!(
            src.len() <= self.free(),
            "refill of {} exceeds free space {}",
            src.len(),
            self.free()
        );
        for (k, item) in src.iter().enumerate() {
            let idx = (self.head + self.len + k) % self.capacity();
            self.buf[idx] = item.clone();
        }
        self.len += src.len();
    }

    /// Drops the first `n` live elements (they have been merged out).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn consume(&mut self, n: usize) {
        assert!(
            n <= self.len,
            "cannot consume {} of {} elements",
            n,
            self.len
        );
        self.head = (self.head + n) % self.capacity();
        self.len -= n;
    }

    /// A read-only view of the live window.
    pub fn view(&self) -> RingView<'_, T> {
        RingView::new(&self.buf, self.head, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergepath::merge::sequential::merge_views_into_probed;
    use mergepath::probe::NoProbe;

    #[test]
    fn ring_view_wraps_around() {
        // Physical buffer [4, 5, 6, 7, 0, 1, 2, 3], logical window of 6
        // starting at head = 4 → logical [0, 1, 2, 3, 4, 5].
        let buf = [4, 5, 6, 7, 0, 1, 2, 3];
        let v = RingView::new(&buf, 4, 6);
        let logical: Vec<i32> = (0..v.len).map(|i| *SortedView::get(&v, i)).collect();
        assert_eq!(logical, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer capacity")]
    fn ring_view_rejects_oversized_window() {
        let buf = [1, 2, 3, 4];
        let _ = RingView::new(&buf, 0, 5);
    }

    #[test]
    fn ring_buffer_refill_consume_cycle() {
        // Exactly the slots asked for: the layout reserves no more.
        let mut rb: RingBuffer<u32> = RingBuffer::with_capacity(5);
        assert_eq!(rb.capacity(), 5);
        rb.refill(&[1, 2, 3, 4, 5]);
        assert_eq!(rb.len(), 5);
        rb.consume(3);
        assert_eq!(rb.len(), 2);
        rb.refill(&[6, 7, 8]); // wraps physically at slot 5
        assert_eq!(rb.len(), 5);
        assert_eq!(rb.free(), 0);
        let v = rb.view();
        let logical: Vec<u32> = (0..v.len()).map(|i| *v.get(i)).collect();
        assert_eq!(logical, [4, 5, 6, 7, 8]);
        let slots: Vec<usize> = (0..v.len()).map(|i| v.physical_index(i)).collect();
        assert_eq!(slots, [3, 4, 0, 1, 2]);
    }

    #[test]
    fn ring_buffer_many_cycles_preserve_fifo() {
        let mut rb: RingBuffer<u64> = RingBuffer::with_capacity(16);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..100 {
            let n = (round % 7) + 1;
            let batch: Vec<u64> = (0..n).map(|k| next_in + k as u64).collect();
            if rb.free() >= batch.len() {
                next_in += batch.len() as u64;
                rb.refill(&batch);
            }
            let take = (round % 5).min(rb.len());
            let v = rb.view();
            for i in 0..take {
                assert_eq!(*v.get(i), next_out + i as u64);
            }
            rb.consume(take);
            next_out += take as u64;
        }
    }

    #[test]
    #[should_panic(expected = "exceeds free space")]
    fn ring_buffer_overfill_panics() {
        let mut rb: RingBuffer<u8> = RingBuffer::with_capacity(4);
        rb.refill(&[1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "cannot consume")]
    fn ring_buffer_overconsume_panics() {
        let mut rb: RingBuffer<u8> = RingBuffer::with_capacity(4);
        rb.refill(&[1]);
        rb.consume(2);
    }

    #[test]
    fn empty_ring_buffer_view_is_empty() {
        let rb: RingBuffer<u8> = RingBuffer::with_capacity(8);
        assert!(rb.view().is_empty());
        assert!(rb.is_empty());
    }

    #[test]
    fn view_merge_over_ring_buffers() {
        // The backing ring holds a sorted window that wraps physically.
        let buf_a = [30i64, 40, 50, 60, 0, 10, 20, 25];
        let va = RingView::new(&buf_a, 4, 7); // [0,10,20,25,30,40,50]
        let b = [5i64, 15, 45];
        let mut out = vec![0; 10];
        merge_views_into_probed(&va, b.as_slice(), &mut out, &|x, y| x.cmp(y), &mut NoProbe);
        assert_eq!(out, [0, 5, 10, 15, 20, 25, 30, 40, 45, 50]);
    }
}
