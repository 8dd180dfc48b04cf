//! The fabric: endpoint registry + virtual-time message delivery.
//!
//! [`Fabric::send`] is the single point where communication cost is charged:
//! it looks up the route between the source and destination nodes, computes
//! the transfer time for the declared wire size, stamps the envelope with
//! `deliver_at = now + transfer`, and files it in the destination's inbox
//! under its virtual-time key. Physical delivery is immediate; *virtual*
//! delivery is what the receiver's clock advances to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use samhita_sched::TaskRef;

use crate::endpoint::{Endpoint, Envelope, Staged};
use crate::error::SclError;
use crate::fault::{FaultPlan, SendFate};
use crate::stats::{FabricStats, MsgClass};
use crate::time::SimTime;
use crate::topology::{EndpointId, NodeId, Topology};

struct Slot<M> {
    /// The endpoint's inbox; dead once the endpoint is dropped.
    inbox: Weak<Mutex<Staged<M>>>,
    node: NodeId,
    /// Per-source message sequence, feeding the fault plan's fate hash.
    /// Each endpoint is owned by exactly one component thread, so this
    /// sequence is deterministic across runs.
    seq: AtomicU64,
    /// Scheduler task behind this endpoint, once bound: every delivery then
    /// also posts a virtual wake-up at the envelope's delivery time.
    det_task: Option<TaskRef>,
}

/// Callback invoked on every [`Fabric::send`], for tracing. The final
/// argument is the injected-fault label ([`SendFate::label`]), `None` for a
/// cleanly delivered message.
pub type SendObserver = Box<
    dyn Fn(EndpointId, EndpointId, SimTime, usize, MsgClass, Option<&'static str>) + Send + Sync,
>;

/// The simulated interconnect connecting all DSM components.
pub struct Fabric<M> {
    topo: Topology,
    slots: RwLock<Vec<Slot<M>>>,
    stats: Mutex<FabricStats>,
    observer: RwLock<Option<SendObserver>>,
    fault: RwLock<FaultPlan>,
}

impl<M: Send + Clone + 'static> Fabric<M> {
    /// Create a fabric over the given topology.
    pub fn new(topo: Topology) -> Arc<Self> {
        Arc::new(Fabric {
            topo,
            slots: RwLock::new(Vec::new()),
            stats: Mutex::default(),
            observer: RwLock::new(None),
            fault: RwLock::new(FaultPlan::none()),
        })
    }

    /// Attach a new endpoint on `node` and return its receiving half.
    ///
    /// # Panics
    /// Panics if `node` is not part of the topology.
    pub fn add_endpoint(self: &Arc<Self>, node: NodeId) -> Endpoint<M> {
        assert!(self.topo.node(node).is_some(), "placement on unknown node {node:?}");
        let inbox = Arc::new(Mutex::new(Staged::new()));
        let mut slots = self.slots.write();
        let id = EndpointId(slots.len() as u32);
        let slot =
            Slot { inbox: Arc::downgrade(&inbox), node, seq: AtomicU64::new(0), det_task: None };
        slots.push(slot);
        drop(slots);
        Endpoint::new(id, node, inbox, Arc::clone(self))
    }

    /// Node an endpoint lives on.
    pub fn node_of(&self, ep: EndpointId) -> Option<NodeId> {
        self.slots.read().get(ep.0 as usize).map(|s| s.node)
    }

    /// Send `msg` from `src` (whose virtual clock reads `now`) to `dst`,
    /// declaring `wire_bytes` of payload on the wire. Returns the virtual
    /// delivery time at `dst`.
    ///
    /// The transfer cost is charged against the route between the endpoints'
    /// nodes; `wire_bytes` should be the *protocol* payload size (headers are
    /// covered by the per-message overhead term of the link model).
    pub fn send(
        &self,
        src: EndpointId,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<SimTime, SclError> {
        self.send_faulted(src, dst, now, wire_bytes, class, msg).map(|(t, _)| t)
    }

    /// [`Fabric::send`], additionally reporting the [`SendFate`] the fault
    /// plan chose. Senders that implement retransmission consult the fate
    /// (a dropped request is detected at send time, mirroring a virtual
    /// retransmission timeout); plain [`Fabric::send`] discards it.
    pub fn send_faulted(
        &self,
        src: EndpointId,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<(SimTime, SendFate), SclError> {
        self.post(src, dst, now, wire_bytes, class, msg, true)
    }

    /// [`Fabric::send`] bypassing fault injection entirely: used for the
    /// host control plane, which models the experimenter's out-of-band
    /// access and must reach even a "crashed" or partitioned endpoint.
    pub fn send_reliable(
        &self,
        src: EndpointId,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<SimTime, SclError> {
        self.post(src, dst, now, wire_bytes, class, msg, false).map(|(t, _)| t)
    }

    /// The one posting path: route, cost, stats, fate, observer, delivery,
    /// wake-up. `faultable` is whether the fault plan gets a say; a reliable
    /// send is a faultable one whose fate is fixed at `Delivered`.
    #[allow(clippy::too_many_arguments)]
    fn post(
        &self,
        src: EndpointId,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
        faultable: bool,
    ) -> Result<(SimTime, SendFate), SclError> {
        let _prof = samhita_prof::enter(samhita_prof::Phase::ChannelSend);
        let slots = self.slots.read();
        let src_slot = slots.get(src.0 as usize).ok_or(SclError::UnknownEndpoint(src))?;
        let dst_slot = slots.get(dst.0 as usize).ok_or(SclError::UnknownEndpoint(dst))?;
        let route = self.topo.route(src_slot.node, dst_slot.node);
        let deliver_at = now + route.transfer_ns(wire_bytes);
        // The fate decision sits after all cost accounting, so an empty plan
        // leaves every charge bit-identical to a fault-free fabric.
        let fate = {
            let plan = self.fault.read();
            if faultable && plan.is_active() {
                let seq = src_slot.seq.fetch_add(1, Ordering::Relaxed);
                plan.fate(src, dst, src_slot.node, dst_slot.node, now, seq)
            } else {
                SendFate::Delivered
            }
        };
        self.stats.lock().record(class, wire_bytes, fate.label());
        if let Some(observer) = self.observer.read().as_ref() {
            observer(src, dst, now, wire_bytes, class, fate.label());
        }
        let deliver = |deliver_at: SimTime, lost: bool, msg: M| {
            let inbox = dst_slot.inbox.upgrade().ok_or(SclError::Disconnected(dst))?;
            inbox.lock().push(Envelope { src, sent_at: now, deliver_at, lost, msg });
            // Lost envelopes wake the receiver too: that is how its virtual
            // retransmission timeout fires without a wall-clock timer.
            if let Some(task) = &dst_slot.det_task {
                task.wake_at(deliver_at.as_ns());
            }
            Ok(())
        };
        match fate {
            SendFate::Delivered => deliver(deliver_at, false, msg)?,
            // Lost messages still travel, marked lost, so that a receiver
            // waiting on its inbox wakes up and can fire its *virtual*
            // retransmission timeout deterministically.
            SendFate::Dropped(_) => deliver(deliver_at, true, msg)?,
            SendFate::Duplicated => {
                deliver(deliver_at, false, msg.clone())?;
                deliver(deliver_at, false, msg)?;
            }
            SendFate::Delayed(extra) => deliver(deliver_at + extra, false, msg)?,
        }
        Ok((deliver_at, fate))
    }

    /// Bind the deterministic-scheduler task that owns endpoint `ep`: every
    /// subsequent delivery to `ep` also posts a [`TaskRef::wake_at`] at the
    /// envelope's virtual delivery time. Installed once at bring-up, before
    /// any traffic targets the endpoint.
    pub fn bind_task(&self, ep: EndpointId, task: TaskRef) {
        let mut slots = self.slots.write();
        let slot = slots.get_mut(ep.0 as usize).expect("bind_task on unknown endpoint");
        slot.det_task = Some(task);
    }

    /// Install the fault plan consulted on every subsequent send. The
    /// default is [`FaultPlan::none`], under which `send_faulted` takes the
    /// exact same cost path as a fabric without fault injection.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault.write() = plan;
    }

    /// The topology this fabric simulates.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// A copy of the traffic counters.
    pub fn stats(&self) -> FabricStats {
        *self.stats.lock()
    }

    /// Install (or clear) an observer called on every send with
    /// `(src, dst, sent_at, wire_bytes, class, fault_label)`. Purely
    /// observational: the observer cannot alter delivery times or message
    /// contents, so tracing cannot perturb virtual clocks.
    pub fn set_observer(&self, observer: Option<SendObserver>) {
        *self.observer.write() = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn send_charges_route_cost() {
        let topo = Topology::cluster(2, profiles::ib_qdr());
        let fabric = Fabric::<&'static str>::new(topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));

        let now = SimTime::from_us(5);
        let t = a.send(b.id(), now, 4096, MsgClass::Data, "page").unwrap();
        let expected = now + profiles::ib_qdr().transfer_ns(4096);
        assert_eq!(t, expected);

        let env = b.recv().unwrap();
        assert_eq!(env.msg, "page");
        assert_eq!(env.src, a.id());
        assert_eq!(env.sent_at, now);
        assert_eq!(env.deliver_at, expected);
    }

    #[test]
    fn intra_node_cheaper_than_inter_node() {
        let topo = Topology::cluster(2, profiles::ib_qdr());
        let fabric = Fabric::<()>::new(topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(0));
        let c = fabric.add_endpoint(NodeId(1));
        let t_local = a.send(b.id(), SimTime::ZERO, 1024, MsgClass::Data, ()).unwrap();
        let t_remote = a.send(c.id(), SimTime::ZERO, 1024, MsgClass::Data, ()).unwrap();
        assert!(t_local < t_remote);
    }

    #[test]
    fn unknown_endpoint_is_an_error() {
        let fabric = Fabric::<()>::new(Topology::single_node(1));
        let a = fabric.add_endpoint(NodeId(0));
        let err = a.send(EndpointId(99), SimTime::ZERO, 0, MsgClass::Control, ());
        assert_eq!(err.unwrap_err(), SclError::UnknownEndpoint(EndpointId(99)));
    }

    #[test]
    fn disconnected_endpoint_is_an_error() {
        let fabric = Fabric::<()>::new(Topology::single_node(1));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(0));
        let b_id = b.id();
        drop(b);
        let err = a.send(b_id, SimTime::ZERO, 0, MsgClass::Control, ());
        assert_eq!(err.unwrap_err(), SclError::Disconnected(b_id));
    }

    #[test]
    fn stats_accumulate_by_class() {
        let fabric = Fabric::<u8>::new(Topology::single_node(1));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(0));
        a.send(b.id(), SimTime::ZERO, 100, MsgClass::Data, 1).unwrap();
        a.send(b.id(), SimTime::ZERO, 10, MsgClass::Sync, 2).unwrap();
        let s = fabric.stats();
        assert_eq!(s.msgs(MsgClass::Data), 1);
        assert_eq!(s.bytes(MsgClass::Data), 100);
        assert_eq!(s.msgs(MsgClass::Sync), 1);
    }

    #[test]
    fn endpoint_ids_are_dense() {
        let fabric = Fabric::<()>::new(Topology::single_node(4));
        let eps: Vec<_> = (0..5).map(|_| fabric.add_endpoint(NodeId(0))).collect();
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.id(), EndpointId(i as u32));
            assert_eq!(fabric.node_of(ep.id()), Some(NodeId(0)));
        }
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn placement_on_unknown_node_panics() {
        let fabric = Fabric::<()>::new(Topology::single_node(1));
        let _ = fabric.add_endpoint(NodeId(3));
    }

    #[test]
    fn observer_sees_sends_without_changing_delivery() {
        use std::sync::Mutex;
        let topo = Topology::cluster(2, profiles::ib_qdr());
        let fabric = Fabric::<&'static str>::new(topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        type Seen = Vec<(EndpointId, EndpointId, u64, usize, MsgClass, Option<&'static str>)>;
        let seen: Arc<Mutex<Seen>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        fabric.set_observer(Some(Box::new(move |src, dst, now, bytes, class, fault| {
            sink.lock().unwrap().push((src, dst, now.as_ns(), bytes, class, fault));
        })));
        let t_observed = a.send(b.id(), SimTime::from_ns(7), 256, MsgClass::Update, "x").unwrap();
        fabric.set_observer(None);
        let t_plain = a.send(b.id(), SimTime::from_ns(7), 256, MsgClass::Update, "y").unwrap();
        assert_eq!(t_observed, t_plain, "observing a send must not change its cost");
        let seen = seen.lock().unwrap();
        assert_eq!(*seen, vec![(a.id(), b.id(), 7, 256, MsgClass::Update, None)]);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let topo = Topology::cluster(2, profiles::ib_qdr());
        let fabric = Fabric::<u8>::new(topo);
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        fabric.set_fault_plan(crate::fault::FaultPlan::none());
        let now = SimTime::from_us(5);
        let (t, fate) = a.send_faulted(b.id(), now, 4096, MsgClass::Data, 1).unwrap();
        assert_eq!(fate, crate::fault::SendFate::Delivered);
        assert_eq!(t, now + profiles::ib_qdr().transfer_ns(4096));
        let env = b.recv().unwrap();
        assert!(!env.lost);
        assert_eq!(env.deliver_at, t);
        assert_eq!(fabric.stats().total_faults(), 0);
    }

    #[test]
    fn dropped_messages_travel_marked_lost_and_are_counted() {
        let fabric = Fabric::<u8>::new(Topology::cluster(2, profiles::ib_qdr()));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        fabric.set_fault_plan(crate::fault::FaultPlan::lossy(11, 1.0, 0.0, 0.0, SimTime::ZERO));
        let (t, fate) = a.send_faulted(b.id(), SimTime::ZERO, 64, MsgClass::Sync, 9).unwrap();
        assert!(fate.is_dropped());
        let env = b.recv().unwrap();
        assert!(env.lost, "a dropped message must still arrive physically, marked lost");
        assert_eq!(env.deliver_at, t);
        let s = fabric.stats();
        assert_eq!(s.total_drops(), 1);
        assert_eq!(s.total_faults(), 1);
        // Cost accounting is charged whether or not the message survives.
        assert_eq!(s.msgs(MsgClass::Sync), 1);
    }

    #[test]
    fn duplicated_messages_arrive_twice_cleanly() {
        let fabric = Fabric::<u8>::new(Topology::cluster(2, profiles::ib_qdr()));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        fabric.set_fault_plan(crate::fault::FaultPlan::lossy(11, 0.0, 1.0, 0.0, SimTime::ZERO));
        let (t, fate) = a.send_faulted(b.id(), SimTime::ZERO, 64, MsgClass::Update, 3).unwrap();
        assert_eq!(fate, crate::fault::SendFate::Duplicated);
        for _ in 0..2 {
            let env = b.recv().unwrap();
            assert!(!env.lost);
            assert_eq!(env.deliver_at, t);
            assert_eq!(env.msg, 3);
        }
        assert!(b.try_recv().is_none());
        assert_eq!(fabric.stats().total_dups(), 1);
    }

    #[test]
    fn delayed_messages_pay_the_spike() {
        let fabric = Fabric::<u8>::new(Topology::cluster(2, profiles::ib_qdr()));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        let spike = SimTime::from_us(30);
        fabric.set_fault_plan(crate::fault::FaultPlan::lossy(11, 0.0, 0.0, 1.0, spike));
        let (t, fate) = a.send_faulted(b.id(), SimTime::ZERO, 64, MsgClass::Data, 5).unwrap();
        assert_eq!(fate, crate::fault::SendFate::Delayed(spike));
        let env = b.recv().unwrap();
        assert!(!env.lost);
        assert_eq!(env.deliver_at, t + spike, "spike rides on top of the route cost");
        assert_eq!(fabric.stats().total_delays(), 1);
    }

    #[test]
    fn reliable_send_ignores_the_fault_plan() {
        let fabric = Fabric::<u8>::new(Topology::cluster(2, profiles::ib_qdr()));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(1));
        fabric.set_fault_plan(crate::fault::FaultPlan::lossy(11, 1.0, 0.0, 0.0, SimTime::ZERO));
        a.send_reliable(b.id(), SimTime::ZERO, 8, MsgClass::Control, 1).unwrap();
        let env = b.recv().unwrap();
        assert!(!env.lost, "control-plane sends must bypass injected faults");
        assert_eq!(fabric.stats().total_faults(), 0);
    }

    /// Senders on four OS threads race into one inbox: nothing is lost and
    /// each sender's messages come out in the order it sent them.
    #[test]
    fn concurrent_senders_keep_per_sender_fifo() {
        let fabric = Fabric::<(u32, u64)>::new(Topology::cluster(2, profiles::ib_qdr()));
        let dst = fabric.add_endpoint(NodeId(1));
        let srcs: Vec<_> = (0..4).map(|_| fabric.add_endpoint(NodeId(0))).collect();
        std::thread::scope(|scope| {
            for src in &srcs {
                let dst = dst.id();
                scope.spawn(move || {
                    // Send times run backwards, so only per-sender
                    // monotonization keeps the order.
                    for i in 0..100u64 {
                        let now = SimTime::from_ns(1_000 - i);
                        src.send(dst, now, 8, MsgClass::Data, (src.id().0, i)).unwrap();
                    }
                });
            }
        });
        let mut next = [0u64; 4];
        while let Ok(env) = dst.recv() {
            let (src, i) = env.msg;
            let slot = &mut next[(src - srcs[0].id().0) as usize];
            assert_eq!(i, *slot, "sender {src} reordered");
            *slot += 1;
        }
        assert_eq!(next, [100; 4]);
    }
}
