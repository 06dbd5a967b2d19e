//! Batch hand-off plumbing for the shard fleet ([`crate::sharded`]): one
//! SPSC ring buffer per worker with bounded spin-then-park backpressure,
//! named worker-thread spawning, and the join that turns a dead worker
//! into [`MergeError::ShardFailed`].
//!
//! The unit of hand-off is a whole batch (a few thousand sampled entries),
//! so the per-packet ingest path never touches this module — it pushes
//! into a plain buffer and crosses threads once per batch. What this
//! module optimizes is that once-per-batch crossing: batches move over a
//! fixed-capacity lock-free ring ([`crossbeam::queue::ArrayQueue`]) where
//! the uncontended cost is two atomic read-modify-writes. The
//! single-threaded `VecDeque` model in `tests/ring_properties.rs` is the
//! ring's FIFO/no-loss oracle.
//!
//! A ring is full when its batches in flight — queued, plus the one the
//! worker is flushing — reach [`ring_slots`]: a fixed budget of the
//! packets they stand for, because a fresh answer must wait for all of
//! them.
//!
//! Backpressure is spin-then-park on both sides. A producer hitting a
//! full ring yields the CPU a bounded number of times (on the shared-core
//! CI box the consumer usually drains within a few yields), then parks in
//! bounded [`PARK_WAIT`] naps so a stalled worker costs sleep, not spin;
//! the worker wakes it as soon as it finishes a batch.
//! A worker finding the ring empty does the same with a parked-flag
//! handshake so the producer can wake it the moment a batch lands. Every
//! park and every full-ring encounter is counted in [`HandoffStats`] —
//! the occupancy diagnostics the bench prints per shard.
//!
//! Liveness is explicit: the consumer half holds an alive flag that drops
//! to `false` when the worker exits — including by panic, since the flag
//! clears in the receiver's `Drop` during unwind. A producer that finds
//! the flag down stops retrying immediately and reports the send as
//! dropped, so a dead worker can never wedge the ingress thread against a
//! full ring (`tests/failure_injection.rs` pins this).

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use crossbeam::queue::ArrayQueue;
use hhh_core::MergeError;

/// Bounded yields before a full/empty encounter escalates to parking.
const SPIN_YIELDS: u32 = 64;

/// One bounded nap while parked; re-checks liveness/closure after each.
const PARK_WAIT: Duration = Duration::from_micros(100);

/// Cap on the consumer's exponential park backoff while the ring stays
/// empty. An idle worker settles into ~5 ms naps (≈1% of a core) instead
/// of hot-spinning; the producer's `unpark` ends any nap early.
const PARK_WAIT_MAX: Duration = Duration::from_millis(5);

/// Packets a worker's hand-off may stand for in flight — the queued
/// batches plus the one being flushed, each sample standing for `V/(H·r)`
/// packets — before the ingress thread backpressures. A fresh answer
/// waits for the worker to flush all of them, so this bounds the wait,
/// while deeper rings absorb scheduling jitter when each batch is short.
/// It is what 16 batches of 4096 packets bounded before sampling moved to
/// the ingress.
const QUEUE_PACKETS: u64 = 65_536;

/// Ring slots for hand-offs of `batch` samples at `V = v_scale·H` and `r`
/// draws per packet: [`QUEUE_PACKETS`] worth, at least one and at most 16.
pub(crate) fn ring_slots(batch: usize, v_scale: u64, r: u32) -> usize {
    let per_batch = batch as u64 * v_scale;
    (QUEUE_PACKETS * u64::from(r) / per_batch).clamp(1, 16) as usize
}

/// Spawn-time knobs for the flat shard fleet, beyond the required
/// lattice/config/shards/batch arguments.
#[derive(Debug, Clone, Copy)]
pub struct SpawnOptions {
    /// Workers publish a fresh snapshot every this many batches (the
    /// windowed fleet publishes at every pane rotation instead). Lower is
    /// fresher but clones the per-shard summary more often.
    pub publish_every: u64,
}

impl Default for SpawnOptions {
    fn default() -> Self {
        Self { publish_every: 8 }
    }
}

/// A worker thread failed to spawn. Carries the thread's name and the OS
/// error instead of panicking the ingress path.
#[derive(Debug)]
pub struct SpawnError {
    /// Name of the thread that failed to start (e.g. `shard-3`).
    pub thread: String,
    /// The underlying OS error.
    pub source: io::Error,
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failed to spawn worker thread `{}`: {}",
            self.thread, self.source
        )
    }
}

impl std::error::Error for SpawnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Spawns a named worker thread, surfacing the OS error instead of
/// panicking (satellite of ISSUE 8; `std::thread::spawn` would abort the
/// process on failure).
pub(crate) fn spawn_named<F, T>(name: String, f: F) -> Result<JoinHandle<T>, SpawnError>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(f)
        .map_err(|source| SpawnError {
            thread: name,
            source,
        })
}

/// Extracts a human-readable message from a worker thread's panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Joins every worker — even after a failure, so no thread leaks — and
/// surfaces the first death as [`MergeError::ShardFailed`] naming the
/// worker's index (`shard i`, in spawn order) and its panic payload.
pub(crate) fn join_shards<T>(handles: Vec<JoinHandle<T>>) -> Result<Vec<T>, MergeError> {
    let mut workers = Vec::with_capacity(handles.len());
    let mut failure: Option<MergeError> = None;
    for (shard, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(worker) => workers.push(worker),
            Err(payload) => {
                failure.get_or_insert_with(|| {
                    MergeError::ShardFailed(format!(
                        "shard {shard}: {}",
                        panic_message(payload.as_ref())
                    ))
                });
            }
        }
    }
    match failure {
        Some(err) => Err(err),
        None => Ok(workers),
    }
}

/// Per-shard hand-off counters, accumulated on the ingress thread (sends)
/// and observed from the producer's view of the ring.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandoffStats {
    /// Batches handed to this shard (including dropped ones).
    pub sends: u64,
    /// Sum over sends of the ring occupancy observed just before the
    /// push; `occupancy_sum / sends` is the mean queue depth the producer
    /// sees.
    pub occupancy_sum: u64,
    /// Peak ring occupancy observed before a push.
    pub occupancy_max: u64,
    /// Sends that found the ring full at least once (backpressure
    /// events, not retry iterations).
    pub full_events: u64,
    /// Bounded parks the producer took while waiting out a full ring.
    pub park_events: u64,
    /// Sends abandoned because the worker was dead.
    pub dropped: u64,
}

impl HandoffStats {
    /// Mean ring occupancy observed at send time (0 when nothing was
    /// sent).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.sends == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.sends as f64
        }
    }
}

/// Shared state of one shard's ring: the queue plus the liveness and
/// wake-up handshake flags.
#[derive(Debug)]
struct RingCore<T> {
    queue: ArrayQueue<T>,
    /// Batches in flight the producer may leave, counting the one the
    /// worker is flushing (the queue itself rounds its capacity up to a
    /// power of two, at least 2).
    slots: usize,
    /// Consumer raises while it works on a popped batch.
    busy: AtomicBool,
    /// The producer while it naps on a full ring; the worker wakes it as
    /// soon as it finishes a batch and frees a slot.
    waiting: Mutex<Option<Thread>>,
    /// Producer raised: no further batches will arrive; drain and exit.
    closed: AtomicBool,
    /// Consumer holds this up; cleared in [`ShardRx`]'s `Drop` (which also
    /// runs during panic unwind), so the producer never retries against a
    /// dead worker.
    alive: AtomicBool,
    /// Consumer raises before parking so the producer knows an `unpark`
    /// is needed; bounded parks make a lost race cost one [`PARK_WAIT`].
    parked: AtomicBool,
}

impl<T> RingCore<T> {
    fn new(slots: usize) -> Self {
        Self {
            queue: ArrayQueue::new(slots),
            slots,
            busy: AtomicBool::new(false),
            waiting: Mutex::new(None),
            closed: AtomicBool::new(false),
            alive: AtomicBool::new(true),
            parked: AtomicBool::new(false),
        }
    }

    fn is_full(&self) -> bool {
        self.queue.len() + usize::from(self.busy.load(Ordering::Acquire)) >= self.slots
    }
}

/// Consumer half of a shard ring; owned by the worker thread.
#[derive(Debug)]
pub(crate) struct ShardRx<T> {
    core: Arc<RingCore<T>>,
}

impl<T> ShardRx<T> {
    /// Pops the next batch, spin-then-parking while the ring is empty;
    /// `None` once the producer closed the ring and everything in flight
    /// drained.
    ///
    /// Parks back off exponentially (100µs … [`PARK_WAIT_MAX`]) while the
    /// ring stays empty, so an idle worker costs ~1% of a core instead of
    /// spinning — and the producer's `unpark` on push means a long park
    /// never delays a batch by more than the wake-up itself.
    pub(crate) fn recv(&self) -> Option<T> {
        // The previous batch is done: its slot is free.
        self.core.busy.store(false, Ordering::Release);
        if let Some(producer) = &*self.core.waiting.lock().expect("no code panics holding it") {
            producer.unpark();
        }
        let mut idle_parks: u32 = 0;
        loop {
            if let Some(msg) = self.core.queue.pop() {
                self.core.busy.store(true, Ordering::Release);
                return Some(msg);
            }
            if self.core.closed.load(Ordering::Acquire) {
                // Close raced with the empty check; one more drain pass.
                return self.core.queue.pop();
            }
            for _ in 0..SPIN_YIELDS {
                std::thread::yield_now();
                if !self.core.queue.is_empty() {
                    break;
                }
            }
            if self.core.queue.is_empty() && !self.core.closed.load(Ordering::Acquire) {
                self.core.parked.store(true, Ordering::Release);
                // Re-check after raising the flag: a push landing between
                // the check and the park would otherwise sleep out the
                // whole timeout (bounded either way — no lost-wakeup
                // hang, because the producer unparks when it sees the
                // flag).
                if self.core.queue.is_empty() && !self.core.closed.load(Ordering::Acquire) {
                    let nap = PARK_WAIT * 2u32.pow(idle_parks.min(6));
                    std::thread::park_timeout(nap.min(PARK_WAIT_MAX));
                    idle_parks += 1;
                }
                self.core.parked.store(false, Ordering::Release);
            } else {
                idle_parks = 0;
            }
        }
    }
}

impl<T> Drop for ShardRx<T> {
    fn drop(&mut self) {
        // Runs on normal exit and on panic unwind: either way the
        // producer must stop waiting for this worker.
        self.core.alive.store(false, Ordering::Release);
    }
}

/// Sending half kept by the ingress thread. Dropping it closes the ring
/// (the worker drains and exits).
#[derive(Debug)]
pub(crate) struct ShardTx<T> {
    core: Arc<RingCore<T>>,
    /// The worker's thread handle, for unparking it out of an empty-ring
    /// nap.
    worker: Thread,
}

impl<T> ShardTx<T> {
    /// Hands one batch to the worker, blocking (bounded spins, then
    /// bounded parks) while the hand-off is full. Returns `false` — and
    /// counts the batch as dropped — when the worker is dead, so a
    /// failed shard never wedges the ingress thread.
    pub(crate) fn send(&self, mut msg: T, stats: &mut HandoffStats) -> bool {
        stats.sends += 1;
        let core = &self.core;
        let occupancy = core.queue.len() as u64;
        stats.occupancy_sum += occupancy;
        stats.occupancy_max = stats.occupancy_max.max(occupancy);
        let mut was_full = false;
        loop {
            if !core.alive.load(Ordering::Acquire) {
                stats.dropped += 1;
                return false;
            }
            if !core.is_full() {
                match core.queue.push(msg) {
                    Ok(()) => {
                        if core.parked.load(Ordering::Acquire) {
                            self.worker.unpark();
                        }
                        return true;
                    }
                    Err(back) => msg = back,
                }
            }
            if !was_full {
                was_full = true;
                stats.full_events += 1;
            }
            // Full: yield a bounded number of times (the worker usually
            // drains a slot quickly), then nap. Each lap re-checks
            // liveness, bounding the wait on a worker that died
            // mid-backlog.
            let mut drained = false;
            for _ in 0..SPIN_YIELDS {
                std::thread::yield_now();
                if !core.is_full() {
                    drained = true;
                    break;
                }
            }
            if !drained {
                stats.park_events += 1;
                *core.waiting.lock().expect("no code panics holding it") =
                    Some(std::thread::current());
                // Re-check after registering: a slot freed in between
                // would otherwise cost the whole nap.
                if core.is_full() {
                    std::thread::park_timeout(PARK_WAIT);
                }
                *core.waiting.lock().expect("no code panics holding it") = None;
            }
        }
    }
}

impl<T> Drop for ShardTx<T> {
    fn drop(&mut self) {
        self.core.closed.store(true, Ordering::Release);
        // The worker may be napping on an empty ring; wake it so it
        // observes the close promptly.
        self.worker.unpark();
    }
}

/// Builds one shard's ring of `slots` batches in flight. The consumer must be
/// moved into the worker before the producer half can be finalized (it
/// needs the worker's [`Thread`] for unparking), so this returns the
/// pieces rather than a finished [`ShardTx`].
pub(crate) fn conduit<T>(slots: usize) -> (ConduitTx<T>, ShardRx<T>) {
    let core = Arc::new(RingCore::new(slots));
    let rx = ShardRx {
        core: Arc::clone(&core),
    };
    (ConduitTx(core), rx)
}

/// Producer half of [`conduit`] before the worker thread exists.
pub(crate) struct ConduitTx<T>(Arc<RingCore<T>>);

impl<T> ConduitTx<T> {
    /// Finalizes the producer half with the spawned worker's handle.
    pub(crate) fn bind(self, worker: Thread) -> ShardTx<T> {
        ShardTx {
            core: self.0,
            worker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_send_recv_roundtrip_with_stats() {
        let (tx, rx) = conduit::<u32>(4);
        let worker = spawn_named("handoff-test".into(), move || {
            let mut got = Vec::new();
            while let Some(v) = rx.recv() {
                got.push(v);
            }
            got
        })
        .unwrap();
        let tx = tx.bind(worker.thread().clone());
        let mut stats = HandoffStats::default();
        for i in 0..1_000u32 {
            assert!(tx.send(i, &mut stats));
        }
        drop(tx);
        let got = worker.join().unwrap();
        assert_eq!(got, (0..1_000).collect::<Vec<_>>(), "FIFO, no loss");
        assert_eq!(stats.sends, 1_000);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn dead_ring_worker_fails_fast_instead_of_wedging() {
        let (tx, rx) = conduit::<u32>(2);
        let worker = spawn_named("handoff-dead".into(), move || {
            // Take one message then die without draining.
            let _ = rx.recv();
            panic!("simulated worker death");
        })
        .unwrap();
        let tx = tx.bind(worker.thread().clone());
        let mut stats = HandoffStats::default();
        assert!(tx.send(0, &mut stats));
        assert!(worker.join().is_err(), "worker dies by design");
        // The worker's ShardRx dropped during unwind, so even against a
        // capacity-2 ring the producer must fail fast, not spin forever.
        let mut saw_drop = false;
        for i in 1..100u32 {
            if !tx.send(i, &mut stats) {
                saw_drop = true;
                break;
            }
        }
        assert!(saw_drop, "producer must detect the dead worker");
        assert!(stats.dropped >= 1);
    }
}
