//! Endpoints: the receiving half of a fabric attachment.
//!
//! An endpoint has one queue and one receive discipline. [`Fabric`] files
//! every envelope, at send time, straight into the endpoint's *inbox*: a
//! min-heap keyed by per-sender-monotone effective delivery time, ties in
//! posting order. Messages leave it in **virtual-time order**, and the
//! earliest one is handed out only once it is provably final (no
//! lower-keyed message can still be sent) — so multi-sender receive order
//! is a pure function of virtual time + seed, never of host scheduling.
//!
//! The rule is one sentence: *a scheduler grant at `g` may consume anything
//! staged with effective time `<= g`*, whether the task had announced a
//! time or was woken from `Park`, because every grant is the global
//! minimum. It is two non-blocking calls — [`Endpoint::next_due`] (when
//! could the next message be final?) and [`Endpoint::poll`] (take it if a
//! grant at that time says it is). Inline service tasks are built directly
//! on the pair; the blocking [`Endpoint::recv`] / [`Endpoint::recv_deadline`]
//! that coroutine and thread tasks use are the same pair wrapped around
//! scheduler yields. An endpoint bound to no task has no clock to wait on:
//! its `recv` hands out the staged minimum, or fails at once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use samhita_sched::TaskRef;

use crate::error::SclError;
use crate::fabric::Fabric;
use crate::fault::SendFate;
use crate::stats::MsgClass;
use crate::time::SimTime;
use crate::topology::{EndpointId, NodeId};

/// A staged message, ordered by `(effective_time, posting_seq)`. The
/// effective time is the envelope's delivery time made monotone per sender,
/// so per-sender FIFO order (which the protocol's idempotency machinery
/// relies on) survives reordering.
struct DetItem<M> {
    eff: u64,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for DetItem<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.eff, self.seq) == (other.eff, other.seq)
    }
}
impl<M> Eq for DetItem<M> {}
impl<M> PartialOrd for DetItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for DetItem<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.eff, self.seq).cmp(&(other.eff, other.seq))
    }
}

/// An endpoint's inbox: everything sent to it and not yet received. Shared
/// by the endpoint (which pops) and its fabric slot (which pushes, through a
/// `Weak`, so a dropped endpoint frees the heap and turns sends into
/// [`SclError::Disconnected`]).
pub(crate) struct Staged<M> {
    heap: BinaryHeap<Reverse<DetItem<M>>>,
    /// Last effective time handed out per sender, indexed by endpoint id;
    /// effective times are `max(deliver_at, last_eff[src])` so one sender's
    /// messages never reorder against each other (an ordering key only —
    /// the envelope keeps its true delivery time).
    last_eff: Vec<u64>,
    /// Posting counter: ties at equal effective time resolve in the order
    /// the fabric filed them, which is deterministic under serialized
    /// execution.
    seq: u64,
}

impl<M> Staged<M> {
    pub(crate) fn new() -> Self {
        Staged { heap: BinaryHeap::new(), last_eff: Vec::new(), seq: 0 }
    }

    /// File one envelope under its `(effective time, posting order)` key.
    pub(crate) fn push(&mut self, env: Envelope<M>) {
        let src = env.src.0 as usize;
        if src >= self.last_eff.len() {
            self.last_eff.resize(src + 1, 0);
        }
        let eff = env.deliver_at.as_ns().max(self.last_eff[src]);
        self.last_eff[src] = eff;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(DetItem { eff, seq, env }));
    }
}

/// A message in flight (or just delivered).
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending endpoint.
    pub src: EndpointId,
    /// Virtual time at which the sender posted the message.
    pub sent_at: SimTime,
    /// Virtual time at which the message reaches the receiver. Receivers
    /// must advance their clock to at least this before acting on `msg`.
    pub deliver_at: SimTime,
    /// Set by fault injection: the message was lost on the wire. Receivers
    /// must discard the payload without acting on it; a lost *response*
    /// arriving is how a client's virtual-time retransmission timeout fires
    /// without any wall-clock timer.
    pub lost: bool,
    /// Application payload.
    pub msg: M,
}

/// One attachment point on the fabric. Owned by exactly one component;
/// cloneable senders live inside the fabric.
pub struct Endpoint<M> {
    id: EndpointId,
    node: NodeId,
    fabric: Arc<Fabric<M>>,
    /// The scheduler task that owns this endpoint, once bound.
    task: OnceLock<TaskRef>,
    inbox: Arc<Mutex<Staged<M>>>,
}

impl<M: Send + Clone + 'static> Endpoint<M> {
    pub(crate) fn new(
        id: EndpointId,
        node: NodeId,
        inbox: Arc<Mutex<Staged<M>>>,
        fabric: Arc<Fabric<M>>,
    ) -> Self {
        Endpoint { id, node, fabric, task: OnceLock::new(), inbox }
    }

    /// Give this endpoint its owner, scheduler task `task`: subsequent
    /// deliveries post virtual wake-ups to the task, and `recv` /
    /// `recv_deadline` wait on its clock for the staged minimum to be final.
    /// Call once at bring-up, before any traffic targets this endpoint.
    pub fn bind_task(&self, task: &TaskRef) {
        assert!(self.task.set(task.clone()).is_ok(), "endpoint bound to a task twice");
        self.fabric.bind_task(self.id, task.clone());
    }

    /// This endpoint's fabric id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The node this endpoint is placed on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fabric this endpoint is attached to.
    pub fn fabric(&self) -> &Arc<Fabric<M>> {
        &self.fabric
    }

    /// Send a message; see [`Fabric::send`].
    pub fn send(
        &self,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<SimTime, SclError> {
        self.fabric.send(self.id, dst, now, wire_bytes, class, msg)
    }

    /// Send a message and learn its injected fate; see
    /// [`Fabric::send_faulted`].
    pub fn send_faulted(
        &self,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<(SimTime, SendFate), SclError> {
        self.fabric.send_faulted(self.id, dst, now, wire_bytes, class, msg)
    }

    /// Send a message that bypasses fault injection; see
    /// [`Fabric::send_reliable`].
    pub fn send_reliable(
        &self,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<SimTime, SclError> {
        self.fabric.send_reliable(self.id, dst, now, wire_bytes, class, msg)
    }

    /// The earliest virtual time at which a staged message could be final;
    /// `None` when nothing is staged. The owning task announces this to the
    /// scheduler (yield, or [`samhita_sched::Next::At`]) and [`poll`]s with
    /// the grant.
    ///
    /// [`poll`]: Endpoint::poll
    pub fn next_due(&self) -> Option<u64> {
        let _prof = samhita_prof::enter(samhita_prof::Phase::ChannelRecv);
        self.inbox.lock().heap.peek().map(|Reverse(top)| top.eff)
    }

    /// Take the earliest staged message if it is *final*: the owning task
    /// was granted at virtual time `granted` and the heap minimum's
    /// effective time is `<= granted`, so no yet-unsent message can ever
    /// sort in front of it. `None` means the grant came in below the
    /// minimum (an earlier wake-up raced in and monotonization then lifted
    /// the message, or a deadline fired first): announce [`next_due`] again.
    ///
    /// [`next_due`]: Endpoint::next_due
    pub fn poll(&self, granted: u64) -> Option<Envelope<M>> {
        let _prof = samhita_prof::enter(samhita_prof::Phase::ChannelRecv);
        let mut st = self.inbox.lock();
        if st.heap.peek().is_none_or(|Reverse(top)| top.eff > granted) {
            return None;
        }
        Some(st.heap.pop().expect("peeked").0.env)
    }

    /// The one receive loop: give up the baton until the staged minimum
    /// could be final (or `deadline`, or, with neither, until a delivery
    /// wakes the task), then take whatever the grant made final. `None`
    /// means the deadline was granted with nothing due at or before it.
    fn wait(&self, task: &TaskRef, deadline: Option<u64>) -> Option<Envelope<M>> {
        loop {
            let granted = match self.next_due().into_iter().chain(deadline).min() {
                Some(at) => task.yield_until(at),
                None => task.park(),
            };
            if let Some(env) = self.poll(granted) {
                return Some(env);
            }
            if deadline.is_some_and(|dl| granted >= dl) {
                return None;
            }
        }
    }

    /// Block until a message is final and return it: messages come out in
    /// effective virtual-time order, and blocking is a scheduler yield, not
    /// an OS block. An endpoint bound to no task has no clock to wait on: it
    /// returns the staged minimum at once, or [`SclError::NothingStaged`].
    pub fn recv(&self) -> Result<Envelope<M>, SclError> {
        match self.task.get() {
            Some(task) => {
                Ok(self.wait(task, None).expect("a wait with no deadline ends in a message"))
            }
            None => self.try_recv().ok_or(SclError::NothingStaged),
        }
    }

    /// Block until a message arrives *or* virtual time reaches `deadline`,
    /// whichever is earlier; `None` means the deadline fired with no
    /// deliverable message at or before it. The wait is a scheduler yield,
    /// so the deadline is exact in virtual time — this is how a blocked
    /// client probes a silent manager without any wall-clock timer. A
    /// staged message due at or before the deadline always wins over the
    /// deadline itself.
    ///
    /// # Panics
    /// Panics on an unbound endpoint: there is no virtual clock to wait on.
    pub fn recv_deadline(&self, deadline: SimTime) -> Option<Envelope<M>> {
        let task = self.task.get().expect("recv_deadline needs a scheduler-bound endpoint");
        self.wait(task, Some(deadline.as_ns()))
    }

    /// Non-blocking receive: the staged minimum by effective time, without
    /// any finality wait — callers that mix it with `recv` on a bound
    /// endpoint must tolerate tentative order.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbox.lock().heap.pop().map(|Reverse(item)| item.env)
    }
}

impl<M> std::fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).field("node", &self.node).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn try_recv_is_non_blocking() {
        let fabric = Fabric::<u8>::new(Topology::single_node(1));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(0));
        assert!(b.try_recv().is_none());
        a.send(b.id(), SimTime::ZERO, 1, MsgClass::Control, 9).unwrap();
        assert_eq!(b.try_recv().unwrap().msg, 9);
    }

    #[test]
    fn recv_with_no_task_never_blocks() {
        let fabric = Fabric::<u8>::new(Topology::single_node(1));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(0));
        assert_eq!(b.recv().unwrap_err(), SclError::NothingStaged);
        // With no task there is no finality wait either: the staged minimum
        // by effective time comes out, not the first message posted.
        a.send(b.id(), SimTime::from_ns(900), 1, MsgClass::Control, 2).unwrap();
        b.send(b.id(), SimTime::from_ns(100), 1, MsgClass::Control, 1).unwrap();
        assert_eq!(b.recv().unwrap().msg, 1);
        assert_eq!(b.recv().unwrap().msg, 2);
        assert_eq!(b.recv().unwrap_err(), SclError::NothingStaged);
    }

    /// An inline service built on `next_due`/`poll` consumes messages in
    /// effective-time order, each exactly when a grant makes it final, and
    /// the whole exchange happens on the yielding thread.
    #[test]
    fn inline_service_polls_in_virtual_time_order() {
        use samhita_sched::{Next, Scheduler};
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let fabric = Fabric::<u8>::new(Topology::single_node(1));
        let (a, b) = (fabric.add_endpoint(NodeId(0)), fabric.add_endpoint(NodeId(0)));
        let svc = Arc::new(fabric.add_endpoint(NodeId(0)));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (ep, log) = (svc.clone(), seen.clone());
        let task = sched.register_service(Box::new(move |granted| {
            if let Some(env) = ep.poll(granted) {
                assert!(env.deliver_at.as_ns() <= granted, "consumed before final");
                log.lock().push(env.msg);
            }
            ep.next_due().map_or(Next::Park, Next::At)
        }));
        svc.bind_task(&task);
        // Posted latest-first; sender `a`'s second message is stamped
        // earlier than its first and must still follow it.
        b.send(svc.id(), SimTime::from_ns(900), 1, MsgClass::Control, 3).unwrap();
        a.send(svc.id(), SimTime::from_ns(500), 1, MsgClass::Control, 1).unwrap();
        a.send(svc.id(), SimTime::from_ns(100), 1, MsgClass::Control, 2).unwrap();
        host.yield_until(u64::MAX);
        assert_eq!(*seen.lock(), vec![1, 2, 3]);
        assert_eq!(sched.handoffs(), 0);
    }

    #[test]
    fn recv_deadline_is_exact_in_virtual_time_on_bound_endpoints() {
        use samhita_sched::Scheduler;
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let fabric = Fabric::<u8>::new(Topology::single_node(1));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(0));
        let task = sched.register_parked();
        b.bind_task(&task);
        let b_id = b.id();
        let h = std::thread::spawn(move || {
            task.start();
            // The message is already in flight, due no earlier than 1000 ns;
            // a 500 ns deadline fires first, with the message left staged.
            assert!(b.recv_deadline(SimTime::from_ns(500)).is_none());
            // With a late deadline the staged message wins over it.
            let env = b.recv_deadline(SimTime::from_ms(1)).expect("message due first");
            assert_eq!(env.msg, 7);
            assert!(env.deliver_at >= SimTime::from_ns(1000));
            task.exit();
        });
        a.send(b_id, SimTime::from_ns(1000), 8, MsgClass::Control, 7).unwrap();
        host.suspend();
        h.join().unwrap();
        host.resume();
    }

    #[test]
    fn endpoint_reports_placement() {
        let fabric = Fabric::<u8>::new(Topology::cluster(3, crate::profiles::ib_qdr()));
        let e = fabric.add_endpoint(NodeId(2));
        assert_eq!(e.node(), NodeId(2));
        assert_eq!(e.fabric().topology().len(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use crate::topology::Topology;

    /// The receive path this endpoint replaced, as the reference that
    /// licenses "nothing virtual moves": a send only appends to a FIFO
    /// queue, and it is the receiver's next `next_due` / `poll` that drains
    /// the queue into the ordered set, handing out effective times and
    /// arrival numbers then.
    #[derive(Default)]
    struct DrainAtReceive {
        /// `(src, deliver_at, msg)` in send order.
        queue: VecDeque<(usize, u64, usize)>,
        /// `(eff, seq, msg)`.
        staged: Vec<(u64, u64, usize)>,
        last_eff: Vec<u64>,
        seq: u64,
    }

    impl DrainAtReceive {
        fn drain(&mut self) {
            for (src, deliver_at, msg) in self.queue.drain(..) {
                if src >= self.last_eff.len() {
                    self.last_eff.resize(src + 1, 0);
                }
                let eff = deliver_at.max(self.last_eff[src]);
                self.last_eff[src] = eff;
                self.staged.push((eff, self.seq, msg));
                self.seq += 1;
            }
        }

        fn next_due(&mut self) -> Option<u64> {
            self.drain();
            self.staged.iter().min().map(|&(eff, ..)| eff)
        }

        fn poll(&mut self, granted: u64) -> Option<usize> {
            self.drain();
            let &min = self.staged.iter().min().filter(|&&(eff, ..)| eff <= granted)?;
            self.staged.retain(|&item| item != min);
            Some(min.2)
        }
    }

    proptest! {
        /// Filing at send time hands messages out in exactly the order
        /// draining at receive time did, wherever the receiver's
        /// `next_due` / `poll` calls fall between the sends.
        #[test]
        fn filing_at_send_time_matches_draining_at_receive_time(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..4, 0u64..4_000, 0usize..8_192),
                1..200,
            ),
        ) {
            // Two senders share the receiver's node and two sit across the
            // link, so one burst mixes cheap and dear routes: delivery times
            // tie across senders and run backwards within one.
            let fabric = Fabric::<usize>::new(Topology::cluster(2, crate::profiles::ib_qdr()));
            let dst = fabric.add_endpoint(NodeId(1));
            let srcs: Vec<_> = (0..4).map(|i| fabric.add_endpoint(NodeId(i % 2))).collect();
            let mut oracle = DrainAtReceive::default();
            for (i, &(kind, sender, t, bytes)) in ops.iter().enumerate() {
                match kind {
                    0 | 1 => {
                        let src = &srcs[sender];
                        let at = src.send(dst.id(), SimTime::from_ns(t), bytes, MsgClass::Data, i);
                        oracle.queue.push_back((src.id().0 as usize, at.unwrap().as_ns(), i));
                    }
                    2 => prop_assert_eq!(dst.next_due(), oracle.next_due()),
                    _ => prop_assert_eq!(dst.poll(t).map(|env| env.msg), oracle.poll(t)),
                }
            }
            loop {
                let (got, want) = (dst.poll(u64::MAX).map(|env| env.msg), oracle.poll(u64::MAX));
                prop_assert_eq!(got, want);
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
