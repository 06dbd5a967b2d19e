//! Offline shim for `crossbeam`.
//!
//! Provides the two pieces of the real crate this workspace uses:
//! [`queue::ArrayQueue`], the fixed-capacity lock-free ring every worker
//! hand-off moves batches over (shard fleet and distributed VMs alike), and
//! [`utils::CachePadded`], the false-sharing guard its head/tail indices
//! sit behind. The APIs match the real crate's, so swapping it in means
//! deleting the shim entry in the root manifest's
//! `[workspace.dependencies]`.

pub mod utils {
    //! Shim of `crossbeam_utils`: currently just [`CachePadded`].

    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 64 bytes so two [`CachePadded`] fields
    /// of one struct never share a cache line. The producer bumps the
    /// ring's tail while the consumer bumps its head; without the padding
    /// every push invalidates the popper's line (and vice versa), which is
    /// precisely the coherence traffic an SPSC hand-off exists to avoid.
    ///
    /// 64 bytes covers x86-64 and most aarch64 parts; over-aligning on the
    /// few 128-byte-line parts costs nothing but bytes.
    #[derive(Debug, Default)]
    #[repr(align(64))]
    pub struct CachePadded<T>(T);

    impl<T> CachePadded<T> {
        /// Wraps `value` in its own cache line.
        pub const fn new(value: T) -> Self {
            Self(value)
        }

        /// Consumes the padding, returning the value.
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }
}

pub mod queue {
    //! Fixed-capacity lock-free queues, shimming `crossbeam::queue`.

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use crate::utils::CachePadded;

    /// One ring slot: a stamp that sequences ownership hand-offs and the
    /// value cell it guards.
    ///
    /// The stamp protocol (Vyukov's bounded MPMC queue): a slot at ring
    /// index `i` is writable for the push whose tail ticket is `t`
    /// (`t & mask == i`) exactly when `stamp == t`; the producer then
    /// stores the value and releases `stamp = t + 1`, which is the
    /// readable mark for the pop holding head ticket `t`. The consumer
    /// takes the value and releases `stamp = t + capacity`, re-arming the
    /// slot for the next lap. Tickets are monotone `usize` counters — at
    /// one hand-off per batch they cannot wrap within the lifetime of any
    /// realistic process.
    ///
    /// The value cell is a `Mutex<Option<T>>` rather than an `UnsafeCell`
    /// purely because this workspace denies `unsafe`; the stamp protocol
    /// already guarantees exclusive access, so every acquisition is an
    /// uncontended compare-and-swap — the synchronization point of the
    /// queue remains the acquire/release stamp pair, as in the real crate.
    #[derive(Debug)]
    struct Slot<T> {
        stamp: AtomicUsize,
        value: Mutex<Option<T>>,
    }

    /// A bounded lock-free MPMC ring buffer, shimming
    /// `crossbeam::queue::ArrayQueue`. The sharded ingest path uses it
    /// SPSC (one ingress producer, one worker consumer per shard), where
    /// every compare-and-swap succeeds first try and a hand-off costs two
    /// atomic RMWs plus two fences.
    ///
    /// Capacity is rounded up to the next power of two so ticket-to-index
    /// mapping is a mask; [`ArrayQueue::capacity`] reports the rounded
    /// value. Head and tail live on separate cache lines
    /// ([`CachePadded`]): the producer side only contends on `tail`, the
    /// consumer side on `head`.
    #[derive(Debug)]
    pub struct ArrayQueue<T> {
        head: CachePadded<AtomicUsize>,
        tail: CachePadded<AtomicUsize>,
        slots: Box<[Slot<T>]>,
        mask: usize,
        cap: usize,
    }

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at least `cap` elements (rounded up to
        /// a power of two, minimum 2: the stamp protocol tells an occupied
        /// slot (`stamp = t + 1`) from a re-armed one (`stamp = t + cap`)
        /// by those being different values, which needs `cap ≥ 2` — a
        /// 1-slot ring would let a push overwrite the occupied slot).
        ///
        /// # Panics
        ///
        /// Panics when `cap` is zero.
        #[must_use]
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "ArrayQueue capacity must be positive");
            let cap = cap.next_power_of_two().max(2);
            let slots = (0..cap)
                .map(|i| Slot {
                    stamp: AtomicUsize::new(i),
                    value: Mutex::new(None),
                })
                .collect();
            Self {
                head: CachePadded::new(AtomicUsize::new(0)),
                tail: CachePadded::new(AtomicUsize::new(0)),
                slots,
                mask: cap - 1,
                cap,
            }
        }

        /// Usable capacity (the possibly rounded-up power of two).
        #[must_use]
        pub fn capacity(&self) -> usize {
            self.cap
        }

        /// Attempts to push without blocking.
        ///
        /// # Errors
        ///
        /// Returns the value back when the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut tail = self.tail.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[tail & self.mask];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == tail {
                    // The slot is free for this ticket; claim the ticket.
                    match self.tail.compare_exchange_weak(
                        tail,
                        tail + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // Uncontended by the stamp protocol: no other
                            // thread may touch this slot until the store
                            // below publishes it.
                            *slot.value.lock().expect("slot never poisoned") = Some(value);
                            slot.stamp.store(tail + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(current) => tail = current,
                    }
                } else if stamp < tail {
                    // The slot still holds last lap's value. Full iff the
                    // head is a whole capacity behind this ticket.
                    let head = self.head.load(Ordering::Relaxed);
                    if head + self.cap <= tail {
                        return Err(value);
                    }
                    tail = self.tail.load(Ordering::Relaxed);
                } else {
                    // Another producer raced past; refresh the ticket.
                    tail = self.tail.load(Ordering::Relaxed);
                }
            }
        }

        /// Attempts to pop without blocking; `None` when the queue is
        /// observed empty.
        pub fn pop(&self) -> Option<T> {
            let mut head = self.head.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[head & self.mask];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == head + 1 {
                    match self.head.compare_exchange_weak(
                        head,
                        head + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let value = slot
                                .value
                                .lock()
                                .expect("slot never poisoned")
                                .take()
                                .expect("stamped slot always holds a value");
                            slot.stamp.store(head + self.cap, Ordering::Release);
                            return Some(value);
                        }
                        Err(current) => head = current,
                    }
                } else if stamp <= head {
                    // Not yet written for this lap; empty iff tail caught
                    // up with this ticket.
                    if self.tail.load(Ordering::Relaxed) == head {
                        return None;
                    }
                    head = self.head.load(Ordering::Relaxed);
                } else {
                    head = self.head.load(Ordering::Relaxed);
                }
            }
        }

        /// A racy snapshot of the element count (exact when no push/pop is
        /// in flight) — the occupancy diagnostic the sharded bench prints.
        #[must_use]
        pub fn len(&self) -> usize {
            let tail = self.tail.load(Ordering::Relaxed);
            let head = self.head.load(Ordering::Relaxed);
            tail.saturating_sub(head).min(self.cap)
        }

        /// Whether the queue is observed empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Whether the queue is observed full.
        #[must_use]
        pub fn is_full(&self) -> bool {
            self.len() >= self.cap
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::queue::ArrayQueue;
    use super::utils::CachePadded;

    #[test]
    fn cache_padded_is_line_aligned_and_transparent() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        let mut cell = CachePadded::new(41u32);
        *cell += 1;
        assert_eq!(*cell, 42);
        assert_eq!(cell.into_inner(), 42);
    }

    #[test]
    fn queue_capacity_rounds_up_to_power_of_two() {
        let q = ArrayQueue::<u8>::new(5);
        assert_eq!(q.capacity(), 8);
        assert_eq!(ArrayQueue::<u8>::new(16).capacity(), 16);
        // Floor of 2: a 1-slot ring cannot distinguish occupied from
        // re-armed stamps (t + 1 == t + cap when cap == 1).
        assert_eq!(ArrayQueue::<u8>::new(1).capacity(), 2);
    }

    #[test]
    fn queue_single_slot_request_still_round_trips() {
        let q = ArrayQueue::new(1);
        for lap in 0..5u32 {
            q.push(lap).unwrap();
            q.push(lap + 100).unwrap();
            assert_eq!(q.push(lap + 200), Err(lap + 200));
            assert_eq!(q.pop(), Some(lap));
            assert_eq!(q.pop(), Some(lap + 100));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn queue_zero_capacity_rejected() {
        let _ = ArrayQueue::<u8>::new(0);
    }

    #[test]
    fn queue_push_pop_fifo_with_wraparound() {
        let q = ArrayQueue::new(4);
        // Three full laps around the ring, interleaving pushes and pops.
        let mut next_pop = 0u32;
        for i in 0..12u32 {
            q.push(i).unwrap();
            if i % 2 == 1 {
                assert_eq!(q.pop(), Some(next_pop));
                assert_eq!(q.pop(), Some(next_pop + 1));
                next_pop += 2;
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_full_rejects_and_returns_value() {
        let q = ArrayQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.len(), 2);
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn queue_spsc_cross_thread_fifo_no_loss_no_dup() {
        const N: u64 = 50_000;
        let q = Arc::new(ArrayQueue::new(64));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match q.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut expected = 0u64;
        while expected < N {
            match q.pop() {
                Some(v) => {
                    assert_eq!(v, expected, "ring must preserve FIFO order");
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
    }
}
