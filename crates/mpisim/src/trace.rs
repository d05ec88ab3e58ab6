//! The per-rank span tracer, owned by the fabric.
//!
//! A [`Span`] is an RAII guard marking one phase of work on one rank:
//! it records wall time (inclusive and exclusive of child spans) and
//! the communication the rank sent while the span was open, per
//! collective kind. Spans nest; a child's traffic and time are carved
//! out of its parent's *self* totals, so summing the self-deltas of all
//! spans partitions the rank's traffic exactly — no byte is
//! double-counted and (under a root span covering the whole rank
//! closure) none is orphaned.
//!
//! Recording state belongs to the [`Fabric`]: an arm flag and one slot
//! per world rank holding that rank's open-span stack, a bounded ring
//! of completed spans ([`DEFAULT_RING_CAPACITY`], oldest evicted first,
//! evictions counted) and the session's clock origin. [`span`] reaches
//! its rank's slot through the [`Comm`] it takes, so a session records
//! only its own universe: two universes traced — or one traced, one not
//! — on concurrent threads never see each other's spans.
//!
//! Tracing is **off by default** and near-zero-cost when off: [`span`]
//! performs one relaxed atomic load of the fabric's arm flag and
//! returns an inert guard — no allocation, no clock read, no counter
//! snapshot. [`TraceSession::start`] arms one universe;
//! [`TraceSession::finish`] disarms it and drains every slot. Everything
//! that runs on the universe meanwhile records into that session,
//! including concurrent jobs sharing one warm universe.

use crate::comm::Comm;
use crate::fabric::{Fabric, KindSnapshot};
use crate::universe::Universe;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Spans retained per rank and session; older ones are evicted.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One completed span: a phase of work on one rank, with exclusive
/// (self) and inclusive (gross) time and traffic.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// World rank the span ran on.
    pub rank: usize,
    /// Phase label (static: `"TTM"`, `"Gram"`, `"sweep"`, …).
    pub phase: &'static str,
    /// Tensor mode the phase worked on, when meaningful.
    pub mode: Option<usize>,
    /// Nesting depth (0 = top-level span on its rank).
    pub depth: usize,
    /// Start time, µs since the session started.
    pub t_start_us: u64,
    /// Inclusive duration, µs.
    pub dur_us: u64,
    /// Exclusive duration (child spans subtracted), µs.
    pub self_dur_us: u64,
    /// Exclusive per-kind traffic **sent by this rank** inside the span
    /// (child spans subtracted). Summing this field over all spans of a
    /// trace partitions the ranks' send totals.
    pub traffic: KindSnapshot,
    /// Inclusive bytes sent (children included).
    pub gross_bytes: u64,
    /// Inclusive messages sent (children included).
    pub gross_messages: u64,
    /// The rank's memory-ledger high-water mark (bytes) when the span
    /// closed — cumulative over the run, not span-local.
    pub mem_hwm_bytes: u64,
    /// The rank's live ledger-charged bytes when the span closed.
    pub mem_live_bytes: u64,
}

/// What an open span accumulates from its closed children, so it can
/// compute its own exclusive numbers.
#[derive(Default)]
struct ChildAcc {
    traffic: KindSnapshot,
    dur_us: u64,
}

/// One world rank's recording state.
struct Slot {
    origin: Instant,
    stack: Vec<ChildAcc>,
    ring: VecDeque<SpanEvent>,
    evicted: u64,
}

impl Slot {
    fn new(origin: Instant) -> Slot {
        Slot {
            origin,
            stack: Vec::new(),
            ring: VecDeque::new(),
            evicted: 0,
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

/// A fabric's span recorder: the arm flag every span site reads, and
/// one [`Slot`] per world rank (only that rank's threads lock it).
pub(crate) struct Tracer {
    armed: AtomicBool,
    slots: Vec<Mutex<Slot>>,
}

impl Tracer {
    pub(crate) fn new(p: usize) -> Tracer {
        let origin = Instant::now();
        Tracer {
            armed: AtomicBool::new(false),
            slots: (0..p).map(|_| Mutex::new(Slot::new(origin))).collect(),
        }
    }

    /// A poisoned slot is still consistent: every update under the lock
    /// (a push, a pop, a ring rotation) leaves it valid at every step.
    fn slot(&self, rank: usize) -> MutexGuard<'_, Slot> {
        self.slots[rank].lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// RAII span guard. Created by [`span`] / [`span_mode`]; the span closes
/// (and records its event) when the guard drops. Inert when the
/// universe is not traced.
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    fabric: &'a Fabric,
    rank: usize,
    phase: &'static str,
    mode: Option<usize>,
    t_start_us: u64,
    start: KindSnapshot,
}

/// Opens a span for `phase` on the calling rank (identified through
/// `comm`'s world-rank mapping). Near-zero-cost no-op unless a
/// [`TraceSession`] is open on `comm`'s universe.
#[inline]
pub fn span<'a>(comm: &'a Comm, phase: &'static str) -> Span<'a> {
    open(comm, phase, None)
}

/// [`span`] with a tensor-mode tag.
#[inline]
pub fn span_mode<'a>(comm: &'a Comm, phase: &'static str, mode: usize) -> Span<'a> {
    open(comm, phase, Some(mode))
}

#[inline]
fn open<'a>(comm: &'a Comm, phase: &'static str, mode: Option<usize>) -> Span<'a> {
    // Relaxed: the flag publishes nothing; the slot it guards is read
    // under the slot's mutex, which `TraceSession::start` reset first.
    if !comm.fabric.tracer.armed.load(Ordering::Relaxed) {
        return Span { inner: None };
    }
    open_armed(comm, phase, mode)
}

#[cold]
fn open_armed<'a>(comm: &'a Comm, phase: &'static str, mode: Option<usize>) -> Span<'a> {
    let fabric: &Fabric = &comm.fabric;
    let rank = comm.world_rank_of(comm.rank());
    let start = fabric.stats().kind_snapshot_for(rank);
    let mut slot = fabric.tracer.slot(rank);
    slot.stack.push(ChildAcc::default());
    let t_start_us = slot.now_us();
    drop(slot);
    Span {
        inner: Some(SpanInner {
            fabric,
            rank,
            phase,
            mode,
            t_start_us,
            start,
        }),
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let gross = inner
            .fabric
            .stats()
            .kind_snapshot_for(inner.rank)
            .since(&inner.start);
        let mem = ratucker_mem::stats();
        let mut slot = inner.fabric.tracer.slot(inner.rank);
        let dur_us = slot.now_us().saturating_sub(inner.t_start_us);
        let children = slot.stack.pop().unwrap_or_default();
        let event = SpanEvent {
            rank: inner.rank,
            phase: inner.phase,
            mode: inner.mode,
            depth: slot.stack.len(),
            t_start_us: inner.t_start_us,
            dur_us,
            self_dur_us: dur_us.saturating_sub(children.dur_us),
            traffic: gross.saturating_sub(&children.traffic),
            gross_bytes: gross.total_bytes(),
            gross_messages: gross.total_messages(),
            mem_hwm_bytes: mem.hwm,
            mem_live_bytes: mem.live,
        };
        if let Some(parent) = slot.stack.last_mut() {
            parent.traffic.merge(&gross);
            parent.dur_us += dur_us;
        }
        if slot.ring.len() >= DEFAULT_RING_CAPACITY {
            slot.ring.pop_front();
            slot.evicted += 1;
        }
        slot.ring.push_back(event);
    }
}

/// A completed trace: every span recorded during one [`TraceSession`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The recorded spans, grouped by rank in ascending order, each
    /// rank's in completion order.
    pub events: Vec<SpanEvent>,
    /// Spans evicted from full ring buffers (0 unless a rank outgrew
    /// [`DEFAULT_RING_CAPACITY`] — evictions break the partition
    /// property).
    pub evicted: u64,
}

impl Trace {
    /// Number of ranks that recorded at least one span (max rank + 1).
    pub fn ranks(&self) -> usize {
        self.events.iter().map(|e| e.rank + 1).max().unwrap_or(0)
    }

    /// Sum of per-span exclusive traffic over all events — under root
    /// spans this equals the traffic the universe moved during the
    /// session.
    pub fn totals(&self) -> KindSnapshot {
        let mut acc = KindSnapshot::default();
        for e in &self.events {
            acc.merge(&e.traffic);
        }
        acc
    }

    /// The spans recorded by `rank`, in completion order.
    pub fn events_of_rank(&self, rank: usize) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter().filter(move |e| e.rank == rank)
    }
}

/// Scoped tracing of one universe: [`start`](TraceSession::start) arms
/// its fabric, [`finish`](TraceSession::finish) disarms it and returns
/// the [`Trace`]. Dropping an unfinished session disarms too.
pub struct TraceSession {
    fabric: Arc<Fabric>,
}

impl TraceSession {
    /// Clears `universe`'s span slots, restarts their clock and arms
    /// them. Spans on any other universe are unaffected.
    ///
    /// # Panics
    /// If a session is already open on `universe`.
    pub fn start(universe: &Universe) -> TraceSession {
        let fabric = Arc::clone(universe.fabric());
        let tracer = &fabric.tracer;
        assert!(
            !tracer.armed.load(Ordering::SeqCst),
            "a trace session is already open on this universe"
        );
        let origin = Instant::now();
        for rank in 0..tracer.slots.len() {
            *tracer.slot(rank) = Slot::new(origin);
        }
        tracer.armed.store(true, Ordering::SeqCst);
        TraceSession { fabric }
    }

    /// Ends the session and returns everything it recorded. Call it
    /// after the traced runs returned (`Universe::run` joins its rank
    /// threads), so no span is still open.
    pub fn finish(self) -> Trace {
        let tracer = &self.fabric.tracer;
        tracer.armed.store(false, Ordering::SeqCst);
        let mut trace = Trace::default();
        for rank in 0..tracer.slots.len() {
            let mut slot = tracer.slot(rank);
            trace.events.extend(slot.ring.drain(..));
            trace.evicted += std::mem::take(&mut slot.evicted);
        }
        trace
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        self.fabric.tracer.armed.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sum_op, CollectiveKind};

    #[test]
    fn disabled_spans_are_inert() {
        let u = Universe::new(2);
        u.run(|c| {
            let _s = span_mode(&c, "noop", 0);
            let _ = c.allreduce(vec![1.0f64; 4], sum_op).unwrap();
        });
        for rank in 0..2 {
            let slot = u.fabric().tracer.slot(rank);
            assert!(
                slot.stack.is_empty() && slot.ring.is_empty(),
                "disabled spans must record nothing"
            );
        }
    }

    #[test]
    fn spans_attribute_traffic_and_nest_exclusively() {
        let u = Universe::new(4);
        let session = TraceSession::start(&u);
        u.run(|c| {
            let _root = span(&c, "run");
            {
                let _s = span_mode(&c, "TTM", 1);
                let _ = c.allreduce(vec![1.0f64; 16], sum_op).unwrap();
            }
            {
                let _outer = span(&c, "outer");
                let _ = c.allgatherv(vec![c.rank() as u64; 2]).unwrap();
                {
                    let _inner = span(&c, "inner");
                    let _ = c.allreduce(vec![0.5f64; 8], sum_op).unwrap();
                }
            }
        });
        let trace = session.finish();
        assert_eq!(trace.ranks(), 4);
        assert_eq!(trace.evicted, 0);
        // 4 spans per rank.
        for r in 0..4 {
            assert_eq!(trace.events_of_rank(r).count(), 4, "rank {r}");
        }
        // The partition property: summed self traffic == universe totals.
        let totals = trace.totals();
        let global = u.traffic().kind_totals();
        assert_eq!(totals, global);
        // The inner span's allreduce traffic is excluded from "outer".
        let outer: Vec<_> = trace.events.iter().filter(|e| e.phase == "outer").collect();
        for e in &outer {
            assert_eq!(e.traffic.bytes_of(CollectiveKind::Allreduce), 0);
            assert_eq!(e.depth, 1);
        }
        let ttm: Vec<_> = trace.events.iter().filter(|e| e.phase == "TTM").collect();
        assert_eq!(ttm.len(), 4);
        for e in &ttm {
            assert_eq!(e.mode, Some(1));
            assert_eq!(e.traffic.bytes_of(CollectiveKind::Allgatherv), 0);
        }
        // Root spans carry no exclusive allreduce traffic either
        // (everything happened inside children) but their gross includes
        // all of it.
        for e in trace.events.iter().filter(|e| e.phase == "run") {
            assert_eq!(e.depth, 0);
            assert_eq!(e.traffic.total_bytes(), 0);
            assert!(e.gross_bytes > 0 || e.rank == 0);
        }
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let u = Universe::new(1);
        let session = TraceSession::start(&u);
        u.run(|c| {
            for i in 0..DEFAULT_RING_CAPACITY + 3 {
                let _s = span_mode(&c, "tick", i);
            }
        });
        let trace = session.finish();
        assert_eq!(
            trace.events.len(),
            DEFAULT_RING_CAPACITY,
            "ring kept the newest spans"
        );
        assert_eq!(trace.evicted, 3);
        let modes: Vec<_> = trace.events.iter().map(|e| e.mode.unwrap()).collect();
        assert_eq!(modes, (3..DEFAULT_RING_CAPACITY + 3).collect::<Vec<_>>());
    }
}
