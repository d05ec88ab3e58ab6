//! Split-phase (nonblocking) communication: post now, complete later.
//!
//! A blocking collective serializes communication against local compute.
//! The pipelined TTM/SI kernels in the `dist` crate instead *post* an
//! operation, overlap the next slab's GEMM with the traffic in flight,
//! and *wait* just before combining — the classic split-phase pattern of
//! `MPI_Isend`/`MPI_Wait`. This module provides that shape over the same
//! fabric:
//!
//! - [`Comm::isend`] / [`Comm::irecv`] — point-to-point post/wait;
//! - [`Comm::ibcast`], [`Comm::iallreduce`], [`Comm::iallgatherv`],
//!   [`Comm::ireduce_scatter`] — split-phase collectives;
//! - [`Comm::ireduce_scatter_blocks`] — the zero-copy form: callers
//!   hand over one owned `Vec` per destination and each block *moves*
//!   into the fabric, skipping the contiguous staging buffer the
//!   MPI-style counted interface forces.
//!
//! The allreduce, allgatherv and reduce-scatter bodies live only here:
//! [`Comm::allreduce`], [`Comm::allgatherv`] and [`Comm::reduce_scatter`]
//! post and wait at once.
//!
//! # Execution model
//!
//! The simulator has no progress thread, so a request follows MPI's
//! weak-progress model: the **eager leg** of an operation executes at
//! post time (sends never block — links are unbounded FIFOs), and the
//! remainder — every leg that would have to wait on a peer — runs inside
//! [`Request::wait`] (or [`Request::test`] once its first inbound
//! message is observable). Concretely:
//!
//! - `isend` completes entirely at post;
//! - `ibcast` at the root completes at post (the root only sends);
//! - `iallreduce` on an odd rank posts its single reduce-leg send
//!   eagerly, deferring only the broadcast leg;
//! - `ireduce_scatter` uses a pairwise exchange: **all** `p-1`
//!   contribution sends post eagerly, so the whole payload is in flight
//!   during the overlap window and `wait` only receives and combines,
//!   in ring accumulation order;
//! - the ring `iallgatherv` posts its step-0 send eagerly, deferring
//!   the remaining ring steps (every later hop forwards received data,
//!   so nothing more can execute early).
//!
//! `ibcast` replays [`Comm::bcast`]'s per-link program order, so the two
//! are bit-identical. Any operation may be mixed with blocking ones on
//! the same communicator as long as at most one operation per
//! communicator is in flight at a time (the links are tagless FIFOs, the
//! usual single-channel MPI ordering contract).
//!
//! # Accounting, deadlines, faults
//!
//! Every leg goes through the same `send_k`/`recv_k` internals as the
//! other collectives, so traffic is charged to the operation's
//! [`CollectiveKind`] the moment each send is posted — eager-leg bytes
//! land on the ledger at post time — and the per-kind partition
//! invariant (`Σ kinds == global`) holds whenever no send is mid-way
//! through its accounting, even with requests in flight. Deadline
//! budgets, retry-with-backoff healing, and fault injection (drops,
//! corruption, crashes) apply unchanged; errors surface from
//! `wait`/`test` as typed [`CommError`]s.
//!
//! # Drop safety
//!
//! A `Request` dropped without `wait` (an early-return error path, say)
//! would otherwise strand its in-flight messages in the fabric
//! mailboxes, desynchronizing the *next* operation on those links. The
//! drop guard therefore drains the request — running its deferred legs
//! and discarding the result — unless the thread is already panicking
//! (a dying rank cannot be asked to communicate).

use crate::comm::{Comm, Elem};
use crate::fabric::CollectiveKind;
use crate::fault::CommError;

/// The deferred remainder of a split-phase operation.
type Continuation<R> = Box<dyn FnOnce(&Comm) -> Result<R, CommError> + Send>;

/// A readiness probe: would running the continuation complete without
/// blocking (or fail fast with a typed error)?
type ReadyProbe = Box<dyn Fn(&Comm) -> bool + Send>;

/// A handle to an in-flight split-phase operation (see the module docs
/// for the execution model). Obtain one from [`Comm::isend`],
/// [`Comm::irecv`], or the `i*` collectives; complete it with
/// [`Request::wait`] or poll it with [`Request::test`]. Dropping a
/// request without waiting drains it (see "Drop safety" above).
#[must_use = "a posted request should be completed with wait() or test()"]
pub struct Request<R> {
    comm: Comm,
    /// Deferred legs; `None` once completed (or if the operation
    /// finished entirely at post time).
    run: Option<Continuation<R>>,
    /// Nonblocking completability probe; `None` for multi-step deferred
    /// operations, whose completion requires a potentially-blocking
    /// `wait`.
    ready: Option<ReadyProbe>,
    /// Result of an operation that completed at post time (or via a
    /// failed eager leg), not yet claimed by `wait`/`test`.
    done: Option<Result<R, CommError>>,
}

impl<R: Send + 'static> Request<R> {
    /// A request that completed entirely at post time.
    fn completed(comm: &Comm, result: Result<R, CommError>) -> Request<R> {
        Request {
            comm: comm.clone(),
            run: None,
            ready: None,
            done: Some(result),
        }
    }

    /// A request whose remainder runs at `wait` time.
    fn deferred(
        comm: &Comm,
        run: impl FnOnce(&Comm) -> Result<R, CommError> + Send + 'static,
    ) -> Request<R> {
        Request {
            comm: comm.clone(),
            run: Some(Box::new(run)),
            ready: None,
            done: None,
        }
    }

    /// A deferred request with a nonblocking readiness probe, for
    /// operations whose remainder cannot block once `ready` is true.
    fn pollable(
        comm: &Comm,
        ready: impl Fn(&Comm) -> bool + Send + 'static,
        run: impl FnOnce(&Comm) -> Result<R, CommError> + Send + 'static,
    ) -> Request<R> {
        Request {
            comm: comm.clone(),
            run: Some(Box::new(run)),
            ready: Some(Box::new(ready)),
            done: None,
        }
    }

    /// Blocks until the operation completes and returns its result —
    /// `MPI_Wait`. Deferred legs execute here, under the same deadline,
    /// retry, and fault machinery as the blocking collectives.
    pub fn wait(mut self) -> Result<R, CommError> {
        if let Some(done) = self.done.take() {
            return done;
        }
        match self.run.take() {
            Some(run) => run(&self.comm),
            // Unreachable through the public API (wait consumes self,
            // test only completes by taking run/done), but be total.
            None => panic!("request already completed"),
        }
    }

    /// Nonblocking completion attempt — `MPI_Test`. Returns
    /// `Some(result)` if the operation is complete (claiming it: a later
    /// drop is a no-op), `None` if it cannot yet complete without
    /// blocking.
    ///
    /// Conservative by design: operations that finished at post time
    /// complete immediately; `irecv` (and a non-root `ibcast`) completes
    /// once its inbound message is observable, and `ireduce_scatter`
    /// once every peer's contribution is — which also surfaces
    /// revocation and dead-peer errors without blocking. The remaining
    /// multi-step collectives never complete via `test` — use
    /// [`Request::wait`].
    pub fn test(&mut self) -> Option<Result<R, CommError>> {
        if let Some(done) = self.done.take() {
            return Some(done);
        }
        if !self.ready.as_ref().is_some_and(|probe| probe(&self.comm)) {
            return None;
        }
        self.run.take().map(|run| run(&self.comm))
    }
}

impl<R> Drop for Request<R> {
    fn drop(&mut self) {
        if let Some(run) = self.run.take() {
            // Drain rather than leak: run the deferred legs so the
            // fabric mailboxes are left empty and peers' matching sends
            // stay paired. Errors are deliberately swallowed — the
            // caller chose not to observe this operation. A panicking
            // rank skips the drain (its peers see PeerClosed instead).
            if !std::thread::panicking() {
                let _ = run(&self.comm);
            }
        }
    }
}

impl Comm {
    /// Nonblocking point-to-point send to communicator rank `dst` —
    /// `MPI_Isend`. Links are unbounded, so the send executes (and its
    /// traffic is charged) entirely at post time; `wait` only reports
    /// the outcome.
    pub fn isend<T: Elem>(&self, dst: usize, data: Vec<T>) -> Request<()> {
        let result = self.send_k(dst, data, CollectiveKind::PointToPoint);
        Request::completed(self, result)
    }

    /// Nonblocking point-to-point receive from communicator rank `src`
    /// — `MPI_Irecv`. Completes via `wait`, or via `test` once the
    /// message has arrived.
    pub fn irecv<T: Elem>(&self, src: usize) -> Request<Vec<T>> {
        let (src_w, dst_w) = (self.group[src], self.group[self.rank]);
        Request::pollable(
            self,
            move |c: &Comm| c.fabric.has_message(src_w, dst_w),
            move |c: &Comm| c.recv_k(src, CollectiveKind::PointToPoint),
        )
    }

    /// Split-phase binomial broadcast (see [`Comm::bcast`]). The
    /// root's sends all execute at post time; a non-root rank defers its
    /// receive-and-forward, and its `test` succeeds once the parent's
    /// message has arrived (forwarding to children never blocks).
    pub fn ibcast<T: Elem>(&self, root: usize, data: Vec<T>) -> Request<Vec<T>> {
        let p = self.size();
        let vrank = (self.rank + p - root) % p;
        if p == 1 || vrank == 0 {
            let result = self.bcast_k(root, data, CollectiveKind::Bcast);
            return Request::completed(self, result);
        }
        // Parent in the binomial tree: clear my lowest set virtual bit.
        let lowest = vrank & vrank.wrapping_neg();
        let parent = ((vrank & !lowest) + root) % p;
        let (src_w, dst_w) = (self.group[parent], self.group[self.rank]);
        Request::pollable(
            self,
            move |c: &Comm| c.fabric.has_message(src_w, dst_w),
            move |c: &Comm| c.bcast_k(root, data, CollectiveKind::Bcast),
        )
    }

    /// Split-phase allreduce: reduce to rank 0 + broadcast. An odd rank's
    /// reduce leg is a single send, posted eagerly; even ranks (whose
    /// first action is a receive) defer the whole operation. Complete
    /// with [`Request::wait`].
    pub fn iallreduce<T: Elem>(
        &self,
        data: Vec<T>,
        op: impl Fn(&mut [T], &[T]) + Copy + Send + 'static,
    ) -> Request<Vec<T>> {
        let p = self.size();
        if p == 1 {
            return Request::completed(self, Ok(data));
        }
        // An allreduce's output length always equals its input length;
        // the broadcast leg otherwise accepts any payload, so a channel
        // desynced by a dropped message would surface downstream as an
        // untyped shape panic instead of a typed, recoverable error.
        let expected = data.len();
        let check = move |c: &Comm, out: Vec<T>| {
            if out.len() != expected {
                return Err(CommError::SizeMismatch {
                    src: c.group[0],
                    dst: c.group[c.rank],
                    expected,
                    got: out.len(),
                });
            }
            Ok(out)
        };
        if self.rank % 2 == 1 {
            // Entire reduce leg (root 0 ⇒ vrank == rank): one send to
            // the even partner, charged at post time.
            if let Err(e) = self.send_k(self.rank & !1, data, CollectiveKind::Allreduce) {
                return Request::completed(self, Err(e));
            }
            return Request::deferred(self, move |c: &Comm| {
                let out = c.bcast_k(0, Vec::new(), CollectiveKind::Allreduce)?;
                check(c, out)
            });
        }
        Request::deferred(self, move |c: &Comm| {
            let reduced = c.reduce_k(0, data, op, CollectiveKind::Allreduce)?;
            let out = c.bcast_k(0, reduced.unwrap_or_default(), CollectiveKind::Allreduce)?;
            check(c, out)
        })
    }

    /// Split-phase ring allgatherv: returns every rank's block, indexed
    /// by communicator rank. The step-0 send of this rank's own block is
    /// posted eagerly; the remaining ring steps run at `wait` time.
    pub fn iallgatherv<T: Elem>(&self, data: Vec<T>) -> Request<Vec<Vec<T>>> {
        let p = self.size();
        if p == 1 {
            return Request::completed(self, Ok(vec![data]));
        }
        let right = (self.rank + 1) % p;
        let left = (self.rank + p - 1) % p;
        let mut blocks: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        if let Err(e) = self.send_k(right, data.clone(), CollectiveKind::Allgatherv) {
            return Request::completed(self, Err(e));
        }
        blocks[self.rank] = Some(data);
        let rank = self.rank;
        Request::deferred(self, move |c: &Comm| {
            let mut blocks = blocks;
            for step in 0..p - 1 {
                let recv_idx = (rank + p - step - 1) % p;
                blocks[recv_idx] = Some(c.recv_k(left, CollectiveKind::Allgatherv)?);
                if step + 1 < p - 1 {
                    // Forward the block that just arrived: the next
                    // ring step's send.
                    let fwd = blocks[recv_idx].clone().expect("just stored");
                    c.send_k(right, fwd, CollectiveKind::Allgatherv)?;
                }
            }
            Ok(blocks
                .into_iter()
                .map(|b| b.expect("ring allgather gap"))
                .collect())
        })
    }

    /// Split-phase reduce-scatter (see [`Comm::reduce_scatter`] for the
    /// `counts` contract). Unlike a ring — whose every hop depends on the
    /// previous one, so nothing could execute before `wait` — this is a
    /// *pairwise exchange*: all `p − 1` contribution sends are posted
    /// (and charged) eagerly at post time, so the traffic is genuinely
    /// in flight while the caller computes, and `wait` only receives and
    /// combines. The combine follows ring accumulation order for chunk
    /// `r` — contributions folded in source order
    /// `r−1, r−2, …, r+1, r` (mod `p`) with the accumulator always the
    /// first `op` operand — and sends the same blocks a ring would, so
    /// per-kind bytes and messages match the ring's. `test` completes
    /// once every peer's contribution is observable.
    pub fn ireduce_scatter<T: Elem>(
        &self,
        mut data: Vec<T>,
        counts: &[usize],
        op: impl Fn(&mut [T], &[T]) + Copy + Send + 'static,
    ) -> Request<Vec<T>> {
        let p = self.size();
        assert_eq!(counts.len(), p, "reduce_scatter needs one count per rank");
        let total: usize = counts.iter().sum();
        assert_eq!(
            total,
            data.len(),
            "reduce_scatter counts must cover the buffer"
        );
        // Chunk the contiguous buffer back-to-front (split_off keeps
        // each chunk a cheap tail move) and run the block-owning form.
        let mut blocks: Vec<Vec<T>> = Vec::with_capacity(p);
        for q in (0..p).rev() {
            blocks.push(data.split_off(data.len() - counts[q]));
        }
        blocks.reverse();
        self.ireduce_scatter_blocks(blocks, op)
    }

    /// The zero-copy form of [`Comm::ireduce_scatter`]: the caller hands
    /// over one owned block per destination rank (`blocks[q]` is this
    /// rank's contribution to rank `q`'s chunk), and each block is moved
    /// straight into the fabric — no contiguous staging buffer, no chunk
    /// copies. This is the form the pipelined kernels use: producing
    /// per-destination blocks directly is free for them, and it deletes
    /// the full-buffer copy the MPI-style contiguous interface forces.
    /// Result and accumulation order are identical to
    /// [`Comm::ireduce_scatter`].
    pub fn ireduce_scatter_blocks<T: Elem>(
        &self,
        mut blocks: Vec<Vec<T>>,
        op: impl Fn(&mut [T], &[T]) + Copy + Send + 'static,
    ) -> Request<Vec<T>> {
        let p = self.size();
        assert_eq!(blocks.len(), p, "reduce_scatter needs one block per rank");
        if p == 1 {
            let only = blocks.pop().expect("one block");
            return Request::completed(self, Ok(only));
        }
        let rank = self.rank;
        // Eager leg: my contribution to every other rank's chunk, in
        // ascending ring distance (deterministic send order). Blocks are
        // moved, not copied; the slot left behind is an empty Vec.
        for d in 1..p {
            let dst = (rank + d) % p;
            let chunk = std::mem::take(&mut blocks[dst]);
            if let Err(e) = self.send_k(dst, chunk, CollectiveKind::ReduceScatter) {
                return Request::completed(self, Err(e));
            }
        }
        let mine = std::mem::take(&mut blocks[rank]);
        let expected = mine.len();
        let my_group = self.group.clone();
        let probe = move |c: &Comm| {
            (1..p).all(|d| {
                let src = (rank + p - d) % p;
                c.fabric.has_message(my_group[src], my_group[rank])
            })
        };
        Request::pollable(self, probe, move |c: &Comm| {
            let mut acc: Option<Vec<T>> = None;
            for d in 1..p {
                let src = (rank + p - d) % p;
                let incoming: Vec<T> = c.recv_k(src, CollectiveKind::ReduceScatter)?;
                if incoming.len() != expected {
                    return Err(CommError::SizeMismatch {
                        src: c.group[src],
                        dst: c.group[rank],
                        expected,
                        got: incoming.len(),
                    });
                }
                match &mut acc {
                    // The ring's chunk-r partial starts life as rank
                    // r−1's raw contribution…
                    None => acc = Some(incoming),
                    // …and accumulates each farther rank's contribution
                    // with the running partial as the first operand.
                    Some(acc) => op(acc, &incoming),
                }
            }
            let mut acc = acc.expect("p > 1: at least one contribution");
            // The ring's final hop: my own contribution folds in last.
            op(&mut acc, &mine);
            Ok(acc)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::sum_op;
    use crate::fabric::CollectiveKind;
    use crate::universe::Universe;

    #[test]
    fn isend_irecv_roundtrip_and_test_polling() {
        let out = Universe::launch(2, |c| {
            if c.rank() == 0 {
                let req = c.isend(1, vec![3.5f64, -1.0]);
                req.wait().unwrap();
                c.recv::<f64>(1).unwrap()
            } else {
                let mut req = c.irecv::<f64>(0);
                // Poll until the message lands; test() must complete it.
                let got = loop {
                    if let Some(res) = req.test() {
                        break res.unwrap();
                    }
                    std::thread::yield_now();
                };
                c.send(0, vec![got[0] * 2.0]).unwrap();
                got
            }
        });
        assert_eq!(out[0], vec![7.0]);
        assert_eq!(out[1], vec![3.5, -1.0]);
    }

    #[test]
    fn eager_leg_traffic_is_charged_at_post_time() {
        let u = Universe::new(2);
        u.run(|c| {
            if c.rank() == 0 {
                let scope = c.traffic_scope();
                let req = c.isend(1, vec![0.0f64; 100]);
                // Charged before wait: the full 800 bytes are on the
                // ledger while the request is still in flight.
                let delta = scope.delta();
                assert_eq!(delta.bytes_of(CollectiveKind::PointToPoint), 800);
                assert_eq!(delta.messages_of(CollectiveKind::PointToPoint), 1);
                req.wait().unwrap();
            } else {
                c.irecv::<f64>(0).wait().unwrap();
            }
        });
        u.traffic().check_kind_partition().unwrap();
        u.traffic()
            .check_invariant()
            .unwrap_or_else(|(a, d, x)| panic!("attempted {a} != delivered {d} + dropped {x}"));
    }

    #[test]
    fn dropped_request_does_not_leak_mailbox_slots() {
        // Modeled on `clear_fault_plan_disarms_before_next_run`: without
        // the drop guard, the un-received message would sit in the 0→1
        // mailbox and the follow-up collective on the same link would
        // pop it instead of its own traffic (a type-mismatch / wrong
        // answer), and the per-kind ledger would stay unbalanced.
        let u = Universe::new(2);
        let out = u.run(|c| {
            if c.rank() == 0 {
                c.isend(1, vec![123.0f64; 7]).wait().unwrap();
            } else {
                let req = c.irecv::<f64>(0);
                drop(req); // early-return path: never waited
            }
            // A dropped collective request drains too (all ranks drop).
            let rs = c.ireduce_scatter(vec![1.0f64; 2], &[1, 1], sum_op);
            drop(rs);
            // The links are clean: this must see its own traffic only.
            c.allreduce(vec![c.rank() as u64 + 1], sum_op).unwrap()
        });
        assert_eq!(out, vec![vec![3], vec![3]]);
        u.traffic().check_kind_partition().unwrap();
        u.traffic()
            .check_invariant()
            .unwrap_or_else(|(a, d, x)| panic!("attempted {a} != delivered {d} + dropped {x}"));
    }

    #[test]
    fn partition_invariant_holds_with_requests_in_flight() {
        let u = Universe::new(4);
        // Holds every rank between its post and its wait, off the fabric,
        // so the check reads counters no send is updating (the global and
        // per-kind counters are bumped one after the other).
        let posted = std::sync::Barrier::new(4);
        u.run(|c| {
            let data: Vec<f64> = (0..4).map(|i| (c.rank() + i) as f64).collect();
            let rs = c.ireduce_scatter(data, &[1, 1, 1, 1], sum_op);
            posted.wait();
            // In flight: every rank's eager contribution sends are
            // posted. Every charged byte must already be attributed to
            // a kind.
            c.traffic().check_kind_partition().unwrap();
            rs.wait().unwrap();
        });
        u.traffic().check_kind_partition().unwrap();
    }

    #[test]
    fn in_flight_request_surfaces_peer_death_as_typed_error() {
        use crate::fault::{CommError, FaultPlan};
        let u = Universe::with_fault_plan(2, FaultPlan::quiet(17).with_crash(0, 3));
        u.set_recv_timeout(std::time::Duration::from_secs(10));
        let out = u.try_run(|c| {
            if c.rank() == 1 {
                let req = c.irecv::<f64>(0);
                match req.wait() {
                    Err(CommError::PeerClosed { .. }) => "typed peer-closed",
                    Err(_) => "other error",
                    Ok(_) => "unexpected data",
                }
            } else {
                // Burn fabric ops (self-sends, so rank 1's mailbox from
                // us stays empty) until the injected crash fires.
                loop {
                    c.send(0, vec![0u8]).unwrap();
                }
            }
        });
        assert!(out[0].is_err(), "rank 0 must crash");
        assert_eq!(*out[1].as_ref().unwrap(), "typed peer-closed");
    }
}
