//! The typed RPC transport layer.
//!
//! Everything about *getting a request answered over a lossy fabric* lives
//! here, in one place, instead of being hand-rolled at each call site:
//!
//! * **token correlation** — every request carries a token from a private
//!   per-channel counter, so responses (replies, prefetch data) may arrive
//!   out of order and still be matched;
//! * **retry / timeout / backoff** — one loss rule, three primitives (below):
//!   send-time drops are retried eagerly with capped exponential backoff;
//!   in-flight losses surface as the lost copy's arrival (the deterministic
//!   analogue of a retransmission timeout);
//! * **idempotent request tokens** — manager retransmissions reuse their
//!   token so the manager's replay cache answers them; memory-server
//!   retransmissions resend the identical request, and the server's dedup
//!   cache answers a replayed fetch and absorbs a replayed update without
//!   re-applying it;
//! * **replica failover** — when a memory server exhausts its retry budget
//!   the channel re-homes its traffic to the write-through replica, stickily;
//! * **per-class cost accounting** — every send charges the configured send
//!   cost against the channel's virtual clock and tags the message with its
//!   [`MsgClass`] for the fabric's per-class counters;
//! * **event accounting** — every counted event of the thread, its own
//!   `Retry` / `Failover` events and those [`crate::thread::ThreadCtx`]
//!   passes it, is folded into the thread's statistics here
//!   (`Channel::note`) and kept in the trace ring when tracing is on;
//!   `FaultInjected` events are recorded by the fabric observer at the
//!   moment the fate is decided.
//!
//! # The loss rule
//!
//! Three private primitives hold everything the callers share; nothing else
//! in this module counts an attempt, sends a faultable message that is
//! retried, or waits for a token:
//!
//! * `spend(op, &mut budget, resume_at) -> bool` — one lost attempt: count
//!   it, and either note the retry (counter, clock to `resume_at`, `Retry`
//!   event) or report the budget (`RetryPolicy::max_attempts`) exhausted;
//! * `transmit(dst, wire, class, op, &mut budget, &msg) -> bool` — send,
//!   charge the send cost, and on a drop `spend` with `sent_at + delay(k)`
//!   and send again; `false` is exhaustion;
//! * `await_reply(token, deadline) -> Option<Envelope>` — receive until the
//!   token matches, `absorb`ing hints, prefetch data and duplicates on the
//!   way, and advance the clock to the delivery; a *lost* reply is returned
//!   like any other (the caller `spend`s with its `deliver_at`), `None` is
//!   the probe deadline.
//!
//! What is left in each caller is its policy:
//!
//! | caller | target | budget | token on fail-over | exhaustion |
//! |---|---|---|---|---|
//! | `rpc_mgr` | live manager | one for drops and lost replies | same token to the standby | `mgr_fail_over` (fatal with no standby), fresh budget |
//! | `send_mgr_oneway` | live manager | drops only | same token to the standby | as `rpc_mgr` |
//! | `rpc_mem` | effective server | one per server for drops and lost replies | fresh token and stamp per server | `fail_over` to the replica |
//! | `post_update` | primary or shadow copy | drops only, fresh per server | same token, stamped anew for the replica | a primary copy: `fail_over`; a shadow copy: abandoned |
//! | `try_prefetch` | effective server | none: a drop is not re-sent | — | the next request to that server names every need again |
//! | `await_prefetch` | — (never re-sent) | none | — | a lost reply is `None`; the caller fetches itself |
//! | `send_baton` | the hinted successor thread | one attempt | — | a drop reaches the successor as a lost reply: its `rpc_mgr` re-sends the same token to the manager, which answers from its log, relay included |
//! | successor hint (manager → queue tail) | — (filed by `absorb`, never awaited) | none | — | a lost or late hint is none: the holder releases through the manager |
//! | advance (manager → head or second waiter) | — (a part of the grant `rpc_mgr` assembles) | the request's | — | a lost advance leaves the rest unusable: a lost reply, as above |
//!
//! Memory requests carry a [`Stamp`]: the other writers' update batches the
//! server must apply before it answers, named once per server. A fetch the
//! server holds for them at a primary that then crashes is answered at the
//! crash, the reply lost with the server: `rpc_mem` fails over as above,
//! and the replica, which applies the shadow copies under the same numbers,
//! holds it again. Updates are one-way: the server answers only what its
//! requester blocks on, and a copy once under way is the thread's last
//! word on it.
//!
//! An update copy's exhaustion: a primary copy re-homes to the replica
//! (`fail_over`); a shadow copy is abandoned and its replica marked failed. One asymmetry
//! is a deliberate hold-over, pinned by the faulted-timeline tables in
//! `tests/chaos.rs` and `tests/recovery.rs`: a probe-deadline resend is
//! noted as a retry but spends no budget.
//!
//! [`Channel`] is the compute-thread transport (owned by
//! [`crate::thread::ThreadCtx`]); [`HostChannel`] is the host control
//! client's reliable, fault-exempt variant. Both speak [`Msg`].

use std::collections::HashSet;

use samhita_mem::{HomeMap, MemRequest, MemResponse, PageFrame};
use samhita_regc::{Marks, UpdateBatch};
use samhita_scl::{Endpoint, EndpointId, Envelope, IntMap, MsgClass, RetryPolicy, SimTime};
use samhita_trace::{EventKind, ThreadStats, TraceBuf};

use crate::msg::{MgrRequest, MgrResponse, Msg, Relay, Stamp, Successor};

/// A prefetch of a line: of a line not resident, the whole line; of a
/// resident one, the run of its pages refetched at a release.
pub(crate) enum Prefetch {
    /// Under way, by its request's token.
    InFlight(u64),
    /// Arrived: delivery instant, first page, pages.
    Ready(SimTime, u64, Vec<PageFrame>),
}

/// The lock hold the thread's last synchronization asked for, from the
/// request on: the one hold its release may hand over directly.
struct Hold {
    lock: u32,
    /// The token of the request the grant answers, which hints name.
    token: u64,
    /// What the hold's baton relays: what the manager's grant named, or the
    /// interval a baton brought, for a successor whose advance reached this
    /// grant's own.
    relay: Option<Relay>,
    /// Whether a baton completed the grant.
    baton: bool,
    /// The successor hint, which may arrive before the grant.
    hint: Option<Successor>,
}

/// A compute thread's typed transport channel: virtual clock, token counter,
/// retry/failover state, update order, and prefetch correlation.
pub struct Channel {
    ep: Endpoint<Msg>,
    mgr_ep: EndpointId,
    /// The hot-standby manager, when one is configured. Retry exhaustion
    /// against the primary re-homes all manager traffic here instead of
    /// panicking.
    standby_ep: Option<EndpointId>,
    /// Grant-liveness probe period (virtual ns), armed only with a
    /// standby. A *deferred* request (queued acquire, barrier arrival,
    /// condition wait) is answered much later
    /// than it is served, so a crash can destroy the only record of it:
    /// the request reached the primary, but the log ship of its serve died
    /// with the crash, and no response will ever come. A blocked client
    /// therefore re-sends its (idempotent, same-token) request every probe
    /// period: a live manager's replay cache ignores the duplicate, while
    /// a dead one lets the resend escalate through the normal
    /// retry/failover path and teach the standby about the queued request.
    probe_ns: Option<u64>,
    /// How long a holder granted by baton waits for a successor hint that
    /// may be on its way (see [`Channel::end_hold`]).
    grace: SimTime,
    mem_eps: Vec<EndpointId>,
    tid: u32,
    /// Per-send fixed cost, ns (from the configured cost model).
    send_ns: f64,
    replica_offset: u32,
    home_map: HomeMap,

    clock: SimTime,
    /// Sub-nanosecond cost accumulator (keeps tiny per-op charges exact).
    frac_ns: f64,

    next_token: u64,
    retry: RetryPolicy,
    /// Memory servers this channel has given up on (sticky: once a server
    /// is declared dead, all its traffic is re-homed to the replica).
    failed_servers: HashSet<u32>,
    /// Whether this channel has given up on the primary manager (sticky,
    /// like `failed_servers`): all manager traffic goes to the standby.
    mgr_failed: bool,
    /// Prefetches by line, at most one per line.
    prefetches: IntMap<u64, Prefetch>,
    /// The line of each prefetch in flight, by token; `None` when the line
    /// was invalidated or evicted meanwhile: the response is discarded.
    prefetch_lines: IntMap<u64, Option<u64>>,
    /// The hold a release may hand over, if any.
    hold: Option<Hold>,
    /// Update batches sent per home; a shadow copy shares its primary's
    /// number.
    batches: Vec<u32>,
    /// `need[home][writer]`: the batches of `writer` that requests to
    /// `home` must follow, raised by the notices this thread applies.
    need: Vec<Vec<u32>>,
    /// The part of `need[home]` already named to `server`, at
    /// `told[server * homes + home]`, and whether it still covers it.
    /// Per-sender order makes once enough: the server holds every later
    /// request of this thread behind it.
    told: Vec<(bool, Vec<u32>)>,

    /// The fold of every counted event of the thread ([`Channel::note`]).
    /// Boxed: a thread's context lives on its coroutine stack and is built
    /// by value, and 1.7 KB of histograms in each copy cost about a stack
    /// page per thread of peak RSS (1.2 MB at P = 256).
    pub(crate) stats: Box<ThreadStats>,
    /// Event ring for this channel's thread track; `None` when tracing is
    /// off. Strictly observational — never read back, never advances the
    /// clock.
    trace: Option<TraceBuf>,
}

impl Channel {
    /// Build a channel for thread `tid` over endpoint `ep`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        tid: u32,
        ep: Endpoint<Msg>,
        mgr_ep: EndpointId,
        standby_ep: Option<EndpointId>,
        probe_ns: Option<u64>,
        grace: SimTime,
        mem_eps: Vec<EndpointId>,
        send_ns: f64,
        replica_offset: u32,
        home_map: HomeMap,
        retry: RetryPolicy,
    ) -> Self {
        let homes = mem_eps.len();
        Channel {
            ep,
            mgr_ep,
            standby_ep,
            probe_ns,
            grace,
            mem_eps,
            tid,
            send_ns,
            replica_offset,
            home_map,
            clock: SimTime::ZERO,
            frac_ns: 0.0,
            next_token: 1,
            retry,
            failed_servers: HashSet::new(),
            mgr_failed: false,
            prefetches: IntMap::default(),
            prefetch_lines: IntMap::default(),
            hold: None,
            batches: vec![0; homes],
            need: vec![Vec::new(); homes],
            told: vec![(true, Vec::new()); homes * homes],
            stats: Box::new(ThreadStats { tid, ..ThreadStats::default() }),
            trace: None,
        }
    }

    // ------------------------------------------------------------------
    // Clock, trace, counters
    // ------------------------------------------------------------------

    /// The channel's virtual clock (the owning thread's timeline).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advance the clock to at least `t` (message deliveries, grants).
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
    }

    /// Charge `ns` (possibly fractional) of virtual time.
    pub(crate) fn charge(&mut self, ns: f64) {
        self.frac_ns += ns;
        if self.frac_ns >= 1.0 {
            let whole = self.frac_ns.floor();
            self.clock += SimTime::from_ns(whole as u64);
            self.frac_ns -= whole;
        }
    }

    /// Set the clock back to `start` and zero the retry counter:
    /// registration is setup, not application time, and it runs before the
    /// trace buffer is attached, so a retry it counted would be one no
    /// `Retry` event shows. (Fail-overs stay: they are sticky state, not
    /// events.) The fractional accumulator intentionally carries over: it
    /// is a cost remainder, not a timestamp.
    pub(crate) fn reset_clock(&mut self, start: SimTime) {
        self.clock = start;
        self.stats.retries = 0;
    }

    /// Record one counted protocol event at the current virtual time: fold
    /// it into the thread's statistics ([`ThreadStats::fold`], the one place
    /// a counter, histogram, wait sum or hotspot page is bumped) and keep it
    /// in the ring, if tracing.
    pub(crate) fn note(&mut self, kind: EventKind) {
        self.stats.fold(&kind);
        if let Some(buf) = self.trace.as_mut() {
            buf.push(self.clock, kind);
        }
    }

    /// Record one event no statistic counts at the current virtual time, if
    /// tracing.
    ///
    /// Takes a closure so the event is never *constructed* when tracing is
    /// off — some payloads are not free to build (`BatchFlush` walks the
    /// batch for its wire size), and the common production configuration
    /// runs untraced. Construction is pure, so skipping it cannot move
    /// virtual time; `tests/prof.rs` pins the byte-identity.
    #[inline]
    pub(crate) fn trace(&mut self, kind: impl FnOnce() -> EventKind) {
        if let Some(buf) = self.trace.as_mut() {
            buf.push(self.clock, kind());
        }
    }

    pub(crate) fn attach_trace(&mut self, buf: TraceBuf) {
        self.trace = Some(buf);
    }

    pub(crate) fn take_trace(&mut self) -> Option<TraceBuf> {
        self.trace.take()
    }

    /// Whether lock releases must be acknowledged. With a standby configured
    /// a fire-and-forget release could vanish with the crashed primary and
    /// leave the lock held forever, so the release path upgrades to a full
    /// RPC (whose retry/failover machinery lands it at whichever manager is
    /// alive).
    pub(crate) fn acked_releases(&self) -> bool {
        self.standby_ep.is_some()
    }

    fn fresh_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn token_of(env: &Envelope<Msg>) -> u64 {
        match &env.msg {
            Msg::MemResp { token, .. } | Msg::MgrResp { token, .. } => *token,
            other => panic!("compute thread received non-response message: {other:?}"),
        }
    }

    /// Record one retransmission: advance the clock to the backoff deadline
    /// (or the virtual-timeout instant), note it.
    fn note_retry(&mut self, op: &'static str, attempt: u32, resume_at: SimTime) {
        self.clock = self.clock.max(resume_at);
        self.note(EventKind::Retry { op, attempt });
    }

    // ------------------------------------------------------------------
    // The loss rule: spend, transmit, await_reply
    // ------------------------------------------------------------------

    /// Count one lost attempt of `op` against `budget` — the only place an
    /// attempt is counted and `max_attempts` is read. `true`: the retry is
    /// noted, the clock stands at `resume_at` (a drop's backoff deadline, a
    /// lost reply's arrival) and the caller sends again. `false`: the budget
    /// is spent and what happens next is the caller's exhaustion policy.
    fn spend(&mut self, op: &'static str, budget: &mut u32, resume_at: SimTime) -> bool {
        *budget += 1;
        if *budget >= self.retry.max_attempts {
            return false;
        }
        self.note_retry(op, *budget, resume_at);
        true
    }

    /// Put `msg` on the wire towards `dst`, riding out send-time drops with
    /// capped backoff from the send instant: `true` once a copy is under
    /// way, `false` when the drops exhausted `budget`. Every copy charges
    /// the send cost. The only faultable send besides the never-retried
    /// [`Channel::try_prefetch`].
    fn transmit(
        &mut self,
        dst: EndpointId,
        wire: usize,
        class: MsgClass,
        op: &'static str,
        budget: &mut u32,
        msg: &Msg,
    ) -> bool {
        loop {
            let sent_at = self.clock;
            let (_, fate) = self
                .ep
                .send_faulted(dst, sent_at, wire, class, msg.clone())
                .expect("destination endpoint closed");
            self.charge(self.send_ns);
            if !fate.is_dropped() {
                return true;
            }
            let resume_at = sent_at + self.retry.delay(*budget + 1);
            if !self.spend(op, budget, resume_at) {
                return false;
            }
        }
    }

    /// Block for the reply carrying `token`, filing whatever else arrives
    /// first (see [`Channel::absorb`]), and advance the clock to its
    /// delivery — the only receive loop that matches a token. A reply marked
    /// lost is returned like any other: its arrival is the deterministic
    /// analogue of a retransmission timeout firing, and what it costs is the
    /// caller's policy. `None`: `deadline` passed with no reply due by it
    /// (the clock stands at the deadline); without a deadline the wait
    /// always ends in a reply.
    fn await_reply(&mut self, token: u64, deadline: Option<SimTime>) -> Option<Envelope<Msg>> {
        loop {
            let env = match deadline {
                Some(at) => match self.ep.recv_deadline(at) {
                    Some(env) => env,
                    None => {
                        self.clock = self.clock.max(at);
                        return None;
                    }
                },
                None => self.ep.recv().expect("fabric closed while awaiting response"),
            };
            let t = Self::token_of(&env);
            // A hint carries the token of the hold it belongs to, which a
            // grant may still be on its way to.
            let hint = matches!(env.msg, Msg::MgrResp { resp: MgrResponse::Successor(_), .. });
            if t != token || hint {
                self.absorb(t, env);
                continue;
            }
            self.clock = self.clock.max(env.deliver_at);
            return Some(env);
        }
    }

    // ------------------------------------------------------------------
    // Failover topology
    // ------------------------------------------------------------------

    fn replica_of(&self, server: u32) -> Option<u32> {
        self.home_map.replica_of_server(server, self.replica_offset)
    }

    fn live_replica_of(&self, server: u32) -> Option<u32> {
        self.replica_of(server).filter(|r| !self.failed_servers.contains(r))
    }

    /// Where traffic homed on `home` actually goes: the primary while it is
    /// believed alive, its replica after a failover.
    pub(crate) fn effective_server(&self, home: u32) -> u32 {
        if self.failed_servers.contains(&home) {
            self.live_replica_of(home)
                .unwrap_or_else(|| panic!("memory server {home} failed with no live replica"))
        } else {
            home
        }
    }

    /// Declare `from` dead and re-home its traffic to the replica.
    fn fail_over(&mut self, from: u32) -> u32 {
        let to = self
            .live_replica_of(from)
            .unwrap_or_else(|| panic!("memory server {from} unreachable and no live replica"));
        if self.failed_servers.insert(from) {
            self.note(EventKind::Failover { from, to });
        }
        to
    }

    /// Where manager traffic goes: the primary while it is believed alive,
    /// the standby after a manager failover.
    fn mgr_target(&self) -> EndpointId {
        if self.mgr_failed {
            self.standby_ep.expect("mgr_failed set with no standby")
        } else {
            self.mgr_ep
        }
    }

    /// Declare the primary manager dead and re-home all manager traffic to
    /// the hot standby. With no standby (or with the standby also
    /// unreachable) exhaustion stays fatal, exactly as before.
    fn mgr_fail_over(&mut self, op: &'static str, what: &str, attempts: u32) {
        assert!(
            !self.mgr_failed && self.standby_ep.is_some(),
            "manager unreachable: {op} {what} {attempts} times"
        );
        self.mgr_failed = true;
        self.note(EventKind::MgrFailover { op });
    }

    // ------------------------------------------------------------------
    // Manager RPC
    // ------------------------------------------------------------------

    /// Transmit to whichever manager is believed alive. Exhaustion fails
    /// over to the hot standby — same token, fresh budget — or is fatal.
    fn transmit_mgr(
        &mut self,
        wire: usize,
        class: MsgClass,
        op: &'static str,
        budget: &mut u32,
        msg: &Msg,
    ) {
        while !self.transmit(self.mgr_target(), wire, class, op, budget, msg) {
            self.mgr_fail_over(op, "request dropped", *budget);
            *budget = 0;
        }
    }

    /// Synchronous manager RPC with retry and backoff: the answer, or, if
    /// the manager refused the request, a panic that fails the thread with
    /// the request's op and the typed error. Every retransmission
    /// reuses the request's token, so the manager's replay cache makes the
    /// request idempotent (a retried `Acquire` can never double-acquire).
    /// Retry exhaustion fails over to the hot standby when one is
    /// configured (resending the SAME token — the standby's replayed log
    /// reconstructed the primary's replay cache, so a request the primary
    /// already served is re-answered, never re-applied); with no standby,
    /// exhaustion is fatal.
    ///
    /// A lock request begins the thread's next hold, and a barrier ends
    /// it. A lock grant is returned whole, as a [`MgrResponse::Rest`] after
    /// the request's `last_seen`. It comes whole from the manager, or in two
    /// parts: an [`MgrResponse::Advance`] and either the manager's rest,
    /// which names the advance's watermark, or a holder's
    /// [`MgrResponse::Baton`], which needs an advance that reached the
    /// holder's watermark and whose interval the hold keeps to relay. A
    /// part whose partner was lost, or that was lost itself, is a lost
    /// reply: the manager answers the retransmission with the whole.
    pub(crate) fn rpc_mgr(&mut self, req: MgrRequest, class: MsgClass) -> MgrResponse {
        let op = req.label();
        let wire = req.wire_bytes();
        let last_seen = req.last_seen();
        let token = self.fresh_token();
        match req {
            MgrRequest::Acquire { lock, .. } | MgrRequest::CondWait { lock, .. } => {
                self.hold = Some(Hold { lock, token, relay: None, baton: false, hint: None });
            }
            MgrRequest::BarrierWait { .. } => self.hold = None,
            _ => {}
        }
        let msg = Msg::MgrReq { token, tid: self.tid, req };
        // One budget for drops and lost replies, fresh after a fail-over.
        let mut budget = 0u32;
        // The parts of a two-part grant received so far; `Err(())` is an
        // advance lost on the wire. The second part is the manager's rest
        // (`Ok`) or a holder's baton (`Err`).
        let (mut advance, mut rest) = (None, None);
        loop {
            self.transmit_mgr(wire, class, op, &mut budget, &msg);
            // Requests whose grant is legitimately deferred (queued
            // acquires, barrier arrivals, condition waits) keep blocking —
            // but with a standby configured they re-send the same token
            // every probe period (see `probe_ns`), so a grant that died
            // with the primary cannot block the run forever.
            let probe_at = self.probe_ns.map(|p| self.clock + SimTime::from_ns(p));
            let lost_at = loop {
                let Some(env) = self.await_reply(token, probe_at) else {
                    // Probe deadline: re-send the same token; a live
                    // manager's replay cache absorbs it. A retransmission
                    // like any other, so it is noted as one — but, kept as
                    // it was, it spends no budget: a slow grant is not a
                    // dead manager.
                    self.note_retry(op, budget, self.clock);
                    break None;
                };
                let at = env.deliver_at;
                match env.msg {
                    Msg::MgrResp { resp: MgrResponse::Advance { .. }, .. } if env.lost => {
                        advance = Some(Err(()));
                    }
                    _ if env.lost => break Some(at),
                    Msg::MgrResp { resp: MgrResponse::Advance { notices, watermark }, .. } => {
                        advance = Some(Ok((notices, watermark)));
                    }
                    Msg::MgrResp {
                        resp: MgrResponse::Rest { after, notices, watermark, relay },
                        ..
                    } if Some(after) == last_seen => {
                        self.granted(relay, false);
                        return MgrResponse::Rest { after, notices, watermark, relay: None };
                    }
                    Msg::MgrResp {
                        resp: MgrResponse::Rest { after, notices, watermark, relay },
                        ..
                    } => {
                        rest = Some((after, Ok((notices, watermark, relay)), at));
                    }
                    Msg::MgrResp { resp: MgrResponse::Baton { relay, interval }, .. } => {
                        rest = Some((relay.after, Err((relay, interval)), at));
                    }
                    Msg::MgrResp { resp: MgrResponse::Err(e), .. } => panic!("{op} failed: {e}"),
                    Msg::MgrResp { resp, .. } => return resp,
                    other => panic!("unexpected manager response: {other:?}"),
                }
                let (Some(first), Some((after, then, at))) = (&advance, &rest) else { continue };
                let Ok((first, ahead)) = first else { break Some(*at) };
                let (notices, watermark, relay, baton) = match then {
                    Ok((then, watermark, relay)) if ahead == after => {
                        (first.followed_by(then), (*watermark).max(*ahead), relay.clone(), false)
                    }
                    Err((relay, interval)) if ahead >= after => {
                        let notices = first.followed_by(&relay.notices).followed_by(interval);
                        let kept = Relay { notices: interval.clone(), ..Relay::none(*ahead) };
                        (notices, (*ahead).max(relay.upto), Some(kept), true)
                    }
                    _ => break Some(*at),
                };
                self.granted(relay, baton);
                let after = last_seen.unwrap_or(0);
                return MgrResponse::Rest { after, notices, watermark, relay: None };
            };
            if let Some(lost_at) = lost_at {
                (advance, rest) = (None, None);
                if !self.spend(op, &mut budget, lost_at) {
                    self.mgr_fail_over(op, "reply lost", budget);
                    budget = 0;
                }
            }
        }
    }

    /// Fire-and-forget manager send (lock releases): the manager orders the
    /// request before any subsequent grant; the sender only pays the send
    /// cost, plus backoff for retransmissions after send-time drops.
    pub(crate) fn send_mgr_oneway(&mut self, req: MgrRequest, class: MsgClass) {
        let op = req.label();
        let wire = req.wire_bytes();
        let msg = Msg::MgrReq { token: self.fresh_token(), tid: self.tid, req };
        let mut budget = 0u32;
        self.transmit_mgr(wire, class, op, &mut budget, &msg);
    }

    /// The hold's grant arrived: with what its baton is to `relay`, and
    /// whether a `baton` completed it.
    fn granted(&mut self, relay: Option<Relay>, baton: bool) {
        let hold = self.hold.as_mut().expect("only a lock request is granted a lock");
        (hold.relay, hold.baton) = (relay, baton);
    }

    /// End the thread's hold. If it is of `lock`, return its successor and
    /// what the baton relays first, when it can be handed over: the hint,
    /// received by now — receiving what is due by the clock until it is
    /// found — or, for a hold a baton granted, within the grace (a chain is
    /// live, and a successor's hint may be on its way, like an MCS
    /// releaser's wait for a successor that is linking itself in); and, for
    /// a hint that asks the baton to relay, what the grant gave the hold to
    /// relay — else nothing, to an advance that reached `last_seen`.
    pub(crate) fn end_hold(&mut self, lock: u32, last_seen: u64) -> Option<(Successor, Relay)> {
        self.hold.take_if(|h| h.lock != lock);
        let (token, baton) = self.hold.as_ref().map(|h| (h.token, h.baton))?;
        let until = if baton { self.clock + self.grace } else { self.clock };
        while self.hold.as_ref().is_some_and(|h| h.hint.is_none()) {
            let Some(env) = self.ep.recv_deadline(until) else {
                self.clock = self.clock.max(until);
                break;
            };
            let t = Self::token_of(&env);
            if t == token && matches!(env.msg, Msg::MgrResp { resp: MgrResponse::Successor(_), .. })
            {
                self.clock = self.clock.max(env.deliver_at);
            }
            self.absorb(t, env);
        }
        let hold = self.hold.take()?;
        let next = hold.hint.filter(|s| s.lock == lock)?;
        let relay = if next.relay { hold.relay? } else { Relay::none(last_seen) };
        Some((next, relay))
    }

    /// Grant the hinted successor its lock directly: `resp` under its own
    /// request token. Sent once — a drop reaches the successor as a lost
    /// reply, and it asks the manager, whose log has the grant.
    pub(crate) fn send_baton(&mut self, to: &Successor, resp: MgrResponse) {
        let wire = resp.wire_bytes();
        let msg = Msg::MgrResp { token: to.token, resp };
        let mut budget = self.retry.max_attempts.saturating_sub(1);
        self.transmit(to.ep, wire, MsgClass::Sync, "baton", &mut budget, &msg);
    }

    // ------------------------------------------------------------------
    // Memory-server RPC
    // ------------------------------------------------------------------

    /// Synchronous memory-server RPC with retry, timeout (played by the lost
    /// copy's arrival), backoff, and failover to the replica on exhaustion.
    pub(crate) fn rpc_mem(
        &mut self,
        home: u32,
        req: MemRequest,
        class: MsgClass,
    ) -> (MemResponse, SimTime) {
        let op = req.label();
        let mut server = self.effective_server(home);
        loop {
            // A fresh token per target server: a late reply from an
            // abandoned primary must never pass for the replica's answer.
            let token = self.fresh_token();
            let stamp = self.stamp(server, home, 0);
            let msg = Msg::MemReq { token, shadow: false, stamp, req: req.clone() };
            let wire = msg.wire_bytes();
            // One budget per server for drops and lost replies.
            let mut budget = 0u32;
            while self.transmit(self.mem_eps[server as usize], wire, class, op, &mut budget, &msg) {
                let env = self.await_reply(token, None).expect("no deadline, so a reply");
                if !env.lost {
                    match env.msg {
                        Msg::MemResp { resp, .. } => return (resp, env.deliver_at),
                        other => panic!("unexpected memory response: {other:?}"),
                    }
                }
                if !self.spend(op, &mut budget, env.deliver_at) {
                    break;
                }
            }
            server = self.fail_over(server);
        }
    }

    /// Ship one asynchronous update batch to its home, write-through to the
    /// replica when one is configured and the home is still the live
    /// primary. Both copies carry the batch's number, and nothing waits for
    /// either to be applied: a request that must see the batch names it
    /// ([`Stamp`]), and the server holds the request until then — so the
    /// replica applies the shadow copies in the primary's order, and a
    /// request that fails over to it is held there in the same way.
    pub(crate) fn send_update(&mut self, home: u32, batch: UpdateBatch) {
        self.batches[home as usize] += 1;
        let number = self.batches[home as usize];
        let req = MemRequest::UpdateBatch { batch };
        let primary = self.effective_server(home);
        if self.replica_offset == 0 {
            self.post_update(primary, home, number, req, false);
            return;
        }
        self.post_update(primary, home, number, req.clone(), false);
        // Re-check after the primary send: if it exhausted its retries and
        // failed over, the replica already received the (sole) live copy.
        if !self.failed_servers.contains(&home) {
            if let Some(r) = self.live_replica_of(home) {
                self.post_update(r, home, number, req, true);
            }
        }
    }

    /// Transmit one update copy, one-way. Send-time drops spend a budget of
    /// their own, fresh per target server; the token survives a primary's
    /// fail-over to the replica, which is told what the copy must follow
    /// afresh.
    fn post_update(
        &mut self,
        mut server: u32,
        home: u32,
        batch: u32,
        req: MemRequest,
        shadow: bool,
    ) {
        let token = self.fresh_token();
        let op = req.label();
        let mut msg = Msg::MemReq { token, shadow, stamp: self.stamp(server, home, batch), req };
        let mut budget = 0u32;
        loop {
            let dst = self.mem_eps[server as usize];
            if self.transmit(dst, msg.wire_bytes(), MsgClass::Update, op, &mut budget, &msg) {
                return;
            }
            // The path to the copy's server is dead. A shadow copy is
            // abandoned — the replica is marked failed (sticky) and the
            // primary copy stands alone; a primary copy re-homes to the
            // replica, which carries the write-through copy.
            if shadow {
                self.failed_servers.insert(server);
                return;
            }
            server = self.fail_over(server);
            if let Msg::MemReq { stamp, .. } = &mut msg {
                *stamp = self.stamp(server, home, batch);
            }
            budget = 0;
        }
    }

    /// File an out-of-band message: a successor hint, a refused release
    /// (which fails the thread), prefetch data, a lost copy signalling a
    /// retransmission timeout, or a suppressed duplicate of an
    /// already-handled reply (silently dropped — that is the idempotent-token
    /// half of duplicate suppression).
    fn absorb(&mut self, token: u64, env: Envelope<Msg>) {
        if let Msg::MgrResp { resp: MgrResponse::Successor(hint), .. } = &env.msg {
            // A lost hint is no hint: the holder releases through the
            // manager. So is one of an earlier hold: it went stale with it.
            if let Some(hold) = self.hold.as_mut().filter(|h| h.token == token && !env.lost) {
                hold.hint = Some(*hint);
            }
        } else if let Msg::MgrResp { resp: MgrResponse::Err(e), .. } = &env.msg {
            // Every awaited error fails its caller, so this one answers a
            // fire-and-forget release: the program released a lock it does
            // not hold, or one that does not exist.
            if !env.lost {
                panic!("release failed: {e}");
            }
        } else if let Some(line) = self.prefetch_lines.remove(&token) {
            // A stale prefetch overtaken by an invalidation is dropped, lost
            // or not — nobody waits on it.
            let Some(line) = line else { return };
            if env.lost {
                // Lost prefetch response: forget the prefetch entirely; a
                // later miss will demand-fetch the line.
                self.prefetches.remove(&line);
                return;
            }
            match env.msg {
                Msg::MemResp { resp: MemResponse::Line { first, pages }, .. } => {
                    self.prefetches.insert(line, Prefetch::Ready(env.deliver_at, first.0, pages));
                }
                other => panic!("unexpected prefetch response: {other:?}"),
            }
        }
    }

    // ------------------------------------------------------------------
    // Update order: marks and needs
    // ------------------------------------------------------------------

    /// How many update batches this thread sent to each home: what the
    /// interval it publishes next carries.
    pub(crate) fn batches(&self) -> Vec<u32> {
        self.batches.clone()
    }

    /// Applied notices carried `marks`: requests to their homes must follow
    /// those batches from now on. This thread's own need not: they reach a
    /// home before anything it sends there later.
    pub(crate) fn require(&mut self, marks: &Marks) {
        if marks.is_empty() {
            return;
        }
        marks.raise_into(&mut self.need);
        for (covers, _) in &mut self.told {
            *covers = false;
        }
        for own in self.need.iter_mut().filter_map(|by_writer| by_writer.get_mut(self.tid as usize))
        {
            *own = 0;
        }
    }

    /// The stamp of a request to `server` about `home`'s pages, update
    /// batch `batch` (0 for none): it names the batches it must follow
    /// that `server` has not been told of, and so tells it. A request that
    /// does not arrive is resent with its stamp or fails the server over,
    /// which is never asked again — but for a dropped prefetch.
    fn stamp(&mut self, server: u32, home: u32, batch: u32) -> Stamp {
        let (covers, told) = &mut self.told[server as usize * self.need.len() + home as usize];
        let mut by_home = Vec::new();
        if !std::mem::replace(covers, true) {
            let need = &self.need[home as usize];
            told.resize(told.len().max(need.len()), 0);
            by_home.resize(home as usize + 1, Vec::new());
            by_home[home as usize] = (need.iter().zip(told.iter_mut()))
                .map(|(&need, told)| {
                    if need > *told {
                        *told = need;
                        need
                    } else {
                        0
                    }
                })
                .collect();
        }
        Stamp { tid: self.tid, home, batch, needs: Marks::from_batches(by_home) }
    }

    // ------------------------------------------------------------------
    // Prefetch correlation
    // ------------------------------------------------------------------

    /// Issue an asynchronous prefetch of (pages of) `line` towards `home`'s
    /// effective server, stamped with what requests there must follow now.
    /// Returns `false` when the send was dropped — prefetch is
    /// opportunistic and never retried; a later fault fetches for real.
    pub(crate) fn try_prefetch(&mut self, home: u32, line: u64, req: MemRequest) -> bool {
        let server = self.effective_server(home);
        let token = self.fresh_token();
        let stamp = self.stamp(server, home, 0);
        let msg = Msg::MemReq { token, shadow: false, stamp, req };
        let (_, fate) = self
            .ep
            .send_faulted(
                self.mem_eps[server as usize],
                self.clock,
                msg.wire_bytes(),
                MsgClass::Data,
                msg,
            )
            .expect("memory server endpoint closed");
        self.charge(self.send_ns);
        if fate.is_dropped() {
            // Never resent: the next request to the server names all again.
            self.told[server as usize * self.need.len() + home as usize] = (false, Vec::new());
            return false;
        }
        self.prefetch_lines.insert(token, Some(line));
        self.prefetches.insert(line, Prefetch::InFlight(token));
        true
    }

    /// Take the prefetch of `line`, if one is out: one in flight is
    /// deregistered, for the caller to [`Channel::await_prefetch`] it.
    pub(crate) fn take_prefetch(&mut self, line: u64) -> Option<Prefetch> {
        let prefetch = self.prefetches.remove(&line)?;
        if let Prefetch::InFlight(token) = prefetch {
            self.prefetch_lines.remove(&token);
        }
        Some(prefetch)
    }

    /// True when a prefetch covering `line` is in flight or completed.
    pub(crate) fn prefetch_pending_for(&self, line: u64) -> bool {
        self.prefetches.contains_key(&line)
    }

    /// True when a prefetch of `line` has arrived and awaits its first use.
    #[cfg(test)]
    pub(crate) fn prefetch_ready_for(&self, line: u64) -> bool {
        matches!(self.prefetches.get(&line), Some(Prefetch::Ready(..)))
    }

    /// True when no prefetch is in flight or completed: there is nothing
    /// for [`Channel::poison_prefetch_line`] to find, whatever the line.
    pub(crate) fn prefetch_idle(&self) -> bool {
        self.prefetches.is_empty()
    }

    /// Block for an in-flight prefetch response: its first page and pages.
    /// Returns `None` when the response was lost on the wire — the lost
    /// copy's arrival plays the retransmission timeout, and the caller
    /// fetches instead.
    pub(crate) fn await_prefetch(&mut self, token: u64) -> Option<(u64, Vec<PageFrame>)> {
        let env = self.await_reply(token, None).expect("no deadline, so a reply");
        if env.lost {
            return None;
        }
        match env.msg {
            Msg::MemResp { resp: MemResponse::Line { first, pages }, .. } => Some((first.0, pages)),
            other => panic!("unexpected prefetch response: {other:?}"),
        }
    }

    /// Drop a completed and poison an in-flight prefetch of `line`.
    pub(crate) fn poison_prefetch_line(&mut self, line: u64) {
        if let Some(Prefetch::InFlight(token)) = self.prefetches.remove(&line) {
            self.prefetch_lines.insert(token, None);
        }
    }
}

/// The host control client's channel: reliable (fault-exempt — it models
/// the experimenter's out-of-band access), strictly request/response, with
/// its own token stream and virtual clock.
///
/// Reliability does not survive a *structural* manager crash: a dead
/// primary's replies come back marked lost (`MgrReplica::respond` stops
/// exempting the host once the reply instant is past `died_at`), and the
/// host — which, like [`host_read_server`](crate::Samhita), knows the fault
/// plan out-of-band — re-sends the same token to the hot standby and stays
/// there. Without a standby a manager crash is rejected at config
/// validation, so a lost reply always has somewhere to go.
pub struct HostChannel {
    ep: Endpoint<Msg>,
    clock: SimTime,
    next_token: u64,
    /// Hot-standby manager endpoint, when one is configured.
    standby: Option<EndpointId>,
    /// Sticky: once a manager reply is lost to the crash, every subsequent
    /// manager RPC goes to the standby.
    mgr_failed: bool,
}

impl HostChannel {
    pub(crate) fn new(ep: Endpoint<Msg>, standby: Option<EndpointId>) -> Self {
        HostChannel { ep, clock: SimTime::ZERO, next_token: 1, standby, mgr_failed: false }
    }

    fn fresh_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// The client's clock: when its last reply arrived.
    pub(crate) fn now(&self) -> SimTime {
        self.clock
    }

    /// Reliable manager RPC on behalf of host tid `tid`; a refusal fails
    /// the host as [`Channel::rpc_mgr`] fails a thread. A reply marked
    /// lost means the primary died mid-serve (ctl replies are otherwise
    /// fault-exempt): fail over to the standby with the same token — its
    /// replay cache, reconstructed from the shipped log, absorbs any
    /// request the primary both served and shipped.
    pub(crate) fn rpc_mgr(
        &mut self,
        mgr: EndpointId,
        tid: u32,
        req: MgrRequest,
        class: MsgClass,
    ) -> MgrResponse {
        let (op, wire) = (req.label(), req.wire_bytes());
        let token = self.fresh_token();
        loop {
            let target = if self.mgr_failed { self.standby.expect("standby manager") } else { mgr };
            let env =
                self.call(target, wire, class, token, Msg::MgrReq { token, tid, req: req.clone() });
            if env.lost {
                assert!(
                    !self.mgr_failed && self.standby.is_some(),
                    "host manager reply lost with no standby to fail over to"
                );
                self.mgr_failed = true;
                continue;
            }
            match env.msg {
                Msg::MgrResp { resp: MgrResponse::Err(e), .. } => panic!("{op} failed: {e}"),
                Msg::MgrResp { resp, .. } => return resp,
                other => panic!("unexpected manager response: {other:?}"),
            }
        }
    }

    /// Reliable memory-server RPC (control-plane reads and writes; `shadow`
    /// marks replica write-through copies, kept off the event trace).
    pub(crate) fn rpc_mem(
        &mut self,
        server: EndpointId,
        shadow: bool,
        req: MemRequest,
    ) -> MemResponse {
        let (wire, token) = (req.wire_bytes(), self.fresh_token());
        let stamp = Stamp { tid: crate::system::HOST_TID, ..Stamp::default() };
        let msg = Msg::MemReq { token, shadow, stamp, req };
        match self.call(server, wire, MsgClass::Control, token, msg).msg {
            Msg::MemResp { resp, .. } => resp,
            other => panic!("unexpected memory response: {other:?}"),
        }
    }

    /// Send `msg`, the request `token` names, reliably to `dst`, and take
    /// its reply, advancing the clock to its delivery. The control client is
    /// strictly request/response: the next message must be the reply.
    fn call(
        &mut self,
        dst: EndpointId,
        wire: usize,
        class: MsgClass,
        token: u64,
        msg: Msg,
    ) -> Envelope<Msg> {
        self.ep.send_reliable(dst, self.clock, wire, class, msg).expect("endpoint closed");
        let env = self.ep.recv().expect("fabric closed");
        match &env.msg {
            Msg::MemResp { token: t, .. } | Msg::MgrResp { token: t, .. } if *t == token => {}
            other => panic!("control client got unexpected message: {other:?}"),
        }
        self.clock = self.clock.max(env.deliver_at);
        env
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use samhita_mem::PageId;
    use samhita_regc::UpdatePart;
    use samhita_scl::{profiles, Fabric, FaultPlan, NodeId, Topology};
    use samhita_trace::{TraceEvent, Tracer, TrackId};

    use super::*;

    const SEND_NS: u64 = 100;

    /// A real [`Channel`] on node 0 of a two-node fabric and, on node 1, the
    /// endpoints it talks to: the manager, a standby, and memory servers 0
    /// and 1 (each the other's replica). There is no scheduler, so the
    /// channel's endpoint is unbound and a receive returns the staged
    /// minimum: every reply is staged before the call that awaits it, which
    /// the channel's private token stream (1, 2, …) makes possible.
    struct Rig {
        fabric: Arc<Fabric<Msg>>,
        chan: Channel,
        tracer: Tracer,
        mgr: Endpoint<Msg>,
        standby: Endpoint<Msg>,
        mem: [Endpoint<Msg>; 2],
        retry: RetryPolicy,
    }

    impl Rig {
        fn new(replicated: bool, with_standby: bool, max_attempts: u32) -> Rig {
            let fabric = Fabric::<Msg>::new(Topology::cluster(2, profiles::ib_qdr()));
            let ep = fabric.add_endpoint(NodeId(0));
            let [mgr, standby, mem0, mem1] = [(); 4].map(|()| fabric.add_endpoint(NodeId(1)));
            let retry = RetryPolicy { max_attempts, ..RetryPolicy::default() };
            let mut chan = Channel::new(
                0,
                ep,
                mgr.id(),
                with_standby.then_some(standby.id()),
                None, // probing needs a scheduler-bound endpoint
                SimTime::ZERO,
                vec![mem0.id(), mem1.id()],
                SEND_NS as f64,
                u32::from(replicated),
                HomeMap::new(2, 4),
                retry,
            );
            let tracer = Tracer::new(1024);
            chan.attach_trace(tracer.buf(TrackId::Thread(0)));
            Rig { fabric, chan, tracer, mgr, standby, mem: [mem0, mem1], retry }
        }

        /// Every faultable send to or from `ep` is lost from time zero on.
        fn crash(&self, ep: &Endpoint<Msg>) {
            let crashed = vec![(ep.id(), SimTime::ZERO)];
            self.fabric.set_fault_plan(FaultPlan { crashed, ..FaultPlan::none() });
        }

        /// Stage `msg` from `from` to the channel, sent at `at_ns`; the
        /// delivery instant is returned.
        fn stage(&self, from: &Endpoint<Msg>, at_ns: u64, msg: Msg) -> SimTime {
            let (at, _) = from
                .send_faulted(self.chan.ep.id(), SimTime::from_ns(at_ns), 16, MsgClass::Data, msg)
                .unwrap();
            at
        }

        /// The channel's trace so far.
        fn events(&mut self) -> Vec<TraceEvent> {
            self.tracer.submit(self.chan.take_trace().expect("trace attached"));
            self.tracer.take().tracks.into_iter().flat_map(|(_, events)| events).collect()
        }

        /// `(attempt, instant)` of every `Retry` traced so far.
        fn retry_stamps(&mut self) -> Vec<(u32, SimTime)> {
            let retry = |e: TraceEvent| match e.kind {
                EventKind::Retry { attempt, .. } => Some((attempt, e.at)),
                _ => None,
            };
            self.events().into_iter().filter_map(retry).collect()
        }
    }

    fn fetch() -> MemRequest {
        MemRequest::FetchLine { first: PageId(0), pages: 1 }
    }

    /// A server's answer to the fetch of token `token`.
    fn line(token: u64) -> Msg {
        let pages = vec![PageFrame::new(&[0; 64], 1)];
        Msg::MemResp { token, resp: MemResponse::Line { first: PageId(0), pages } }
    }

    fn update() -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        batch.push(UpdatePart::Fine { page: 0, offset: 0, bytes: vec![7; 8] });
        batch
    }

    #[test]
    fn total_loss_spends_the_budget_then_a_memory_rpc_fails_over() {
        let mut rig = Rig::new(true, false, 8);
        rig.crash(&rig.mem[0]);
        // The replica's answer to the fresh token the fail-over draws.
        let answered = rig.stage(&rig.mem[1], 0, line(2));
        let (resp, at) = rig.chan.rpc_mem(0, fetch(), MsgClass::Data);
        assert!(matches!(resp, MemResponse::Line { .. }));
        assert_eq!(at, answered);
        assert_eq!(rig.chan.stats.retries, 7, "max_attempts - 1 retries, then exhaustion");
        assert_eq!(rig.chan.stats.failovers, 1);
        assert_eq!(rig.chan.effective_server(0), 1, "the fail-over is sticky");
        // Each drop resumes at its own send instant plus delay(k): the send
        // cost is inside the backoff, so the instants are the running sum.
        let mut at = SimTime::ZERO;
        let want: Vec<(u32, SimTime)> = (1..8)
            .map(|k| {
                at += rig.retry.delay(k);
                (k, at)
            })
            .collect();
        assert_eq!(rig.retry_stamps(), want);
        // The eighth copy and the replica's each charged the send cost.
        assert_eq!(rig.chan.now(), at + SimTime::from_ns(2 * SEND_NS));
    }

    #[test]
    fn a_budget_of_one_is_exhausted_by_the_first_loss() {
        let mut rig = Rig::new(true, false, 1);
        rig.crash(&rig.mem[0]);
        rig.stage(&rig.mem[1], 0, line(2));
        rig.chan.rpc_mem(0, fetch(), MsgClass::Data);
        assert_eq!((rig.chan.stats.retries, rig.chan.stats.failovers), (0, 1));
        assert_eq!(rig.retry_stamps(), vec![]);
    }

    #[test]
    fn an_unreachable_shadow_copy_is_abandoned() {
        let mut rig = Rig::new(true, false, 8);
        rig.crash(&rig.mem[1]);
        rig.chan.send_update(0, update());
        assert_eq!(rig.chan.stats.retries, 7);
        assert_eq!(rig.chan.stats.failovers, 0, "giving up on a replica is not a fail-over");
        assert!(rig.chan.failed_servers.contains(&1));
        // The next update is not written through to the dead replica: it
        // costs no retry, and only the primary's copies arrive (token 2
        // was the abandoned shadow).
        rig.chan.send_update(0, update());
        assert_eq!(rig.chan.stats.retries, 7);
        let tokens: Vec<u64> = std::iter::from_fn(|| rig.mem[0].try_recv())
            .map(|env| match env.msg {
                Msg::MemReq { token, .. } => token,
                other => panic!("unexpected message at the primary: {other:?}"),
            })
            .collect();
        assert_eq!(tokens, vec![1, 3]);
    }

    #[test]
    fn an_unreachable_primary_copy_re_homes_with_its_token() {
        let mut rig = Rig::new(true, false, 8);
        rig.crash(&rig.mem[0]);
        rig.chan.send_update(0, update());
        assert_eq!((rig.chan.stats.retries, rig.chan.stats.failovers), (7, 1));
        // The copy reaches the replica under the token the dead primary was
        // sent; no second (shadow) copy follows it there.
        match rig.mem[1].try_recv().expect("the replica got the copy").msg {
            Msg::MemReq { token: 1, shadow: false, .. } => {}
            other => panic!("unexpected copy at the replica: {other:?}"),
        }
        assert!(rig.mem[1].try_recv().is_none());
    }

    #[test]
    #[should_panic(expected = "manager unreachable: create-lock request dropped 8 times")]
    fn a_manager_rpc_with_no_standby_panics_on_exhaustion() {
        let mut rig = Rig::new(false, false, 8);
        rig.crash(&rig.mgr);
        rig.chan.rpc_mgr(MgrRequest::CreateLock, MsgClass::Control);
    }

    #[test]
    fn a_manager_rpc_fails_over_to_the_standby_with_the_same_token() {
        let mut rig = Rig::new(false, true, 8);
        rig.crash(&rig.mgr);
        rig.stage(&rig.standby, 0, Msg::MgrResp { token: 1, resp: MgrResponse::SyncId(3) });
        let resp = rig.chan.rpc_mgr(MgrRequest::CreateLock, MsgClass::Control);
        assert!(matches!(resp, MgrResponse::SyncId(3)));
        assert_eq!((rig.chan.stats.retries, rig.chan.stats.mgr_failovers), (7, 1));
        match rig.standby.try_recv().expect("the standby got the request").msg {
            Msg::MgrReq { token: 1, .. } => {}
            other => panic!("unexpected request at the standby: {other:?}"),
        }
        let events = rig.events();
        let rehomed = events.iter().filter(|e| matches!(e.kind, EventKind::MgrFailover { .. }));
        assert_eq!(rehomed.count(), 1);
    }

    #[test]
    fn a_lost_reply_resumes_at_the_lost_copys_arrival() {
        let mut rig = Rig::new(false, false, 8);
        // The first answer is lost on the wire, the second survives.
        rig.fabric.set_fault_plan(FaultPlan::lossy(1, 1.0, 0.0, 0.0, SimTime::ZERO));
        let lost_at = rig.stage(&rig.mem[0], 10_000, line(1));
        rig.fabric.set_fault_plan(FaultPlan::none());
        let answered = rig.stage(&rig.mem[0], 50_000, line(1));
        let (_, at) = rig.chan.rpc_mem(0, fetch(), MsgClass::Data);
        assert_eq!(at, answered);
        assert_eq!(rig.chan.now(), answered);
        assert_eq!(rig.chan.stats.retries, 1);
        assert_eq!(rig.retry_stamps(), vec![(1, lost_at)], "no backoff on top of the timeout");
        // The request went out twice under one token: at zero and at the
        // lost copy's arrival.
        let sent: Vec<SimTime> =
            std::iter::from_fn(|| rig.mem[0].try_recv()).map(|env| env.sent_at).collect();
        assert_eq!(sent, vec![SimTime::ZERO, lost_at]);
    }

    #[test]
    fn foreign_tokens_arriving_first_are_absorbed_and_the_awaited_reply_still_returned() {
        let mut rig = Rig::new(false, false, 8);
        let prefetch = MemRequest::FetchLine { first: PageId(20), pages: 4 };
        assert!(rig.chan.try_prefetch(0, 5, prefetch)); // token 1
        rig.chan.send_update(0, update()); // token 2
        let pages = vec![PageFrame::new(&[0; 64], 1); 4];
        let prefetched =
            Msg::MemResp { token: 1, resp: MemResponse::Line { first: PageId(20), pages } };
        let landed = rig.stage(&rig.mem[0], 1_000, prefetched);
        let answered = rig.stage(&rig.mem[0], 3_000, line(3));
        let (resp, at) = rig.chan.rpc_mem(0, fetch(), MsgClass::Data); // token 3
        assert!(matches!(resp, MemResponse::Line { .. }));
        assert_eq!(at, answered);
        assert!(rig.chan.prefetch_ready_for(5), "the prefetch landed");
        let ready = rig.chan.take_prefetch(5);
        assert!(matches!(ready, Some(Prefetch::Ready(at, 20, _)) if at == landed));
        assert_eq!(rig.chan.stats.retries, 0);
    }

    /// A real [`ThreadCtx`] — thread 0, registered, its endpoint bound to
    /// the test's own running scheduler task — and the endpoints it talks
    /// to: the manager, whose replies the test stages ahead, and thread 1's,
    /// where a baton lands. Nothing is flushed, so no memory server is
    /// ever sent anything.
    struct Holder {
        ctx: crate::thread::ThreadCtx,
        ep: EndpointId,
        mgr: Endpoint<Msg>,
        succ: Endpoint<Msg>,
        _mem: Vec<Endpoint<Msg>>,
    }

    impl Holder {
        fn new() -> Holder {
            let cfg = Arc::new(crate::config::SamhitaConfig::small_for_tests());
            let sched = samhita_sched::Scheduler::new(0);
            let fabric = Fabric::<Msg>::new(cfg.build_topology());
            let add = || fabric.add_endpoint(NodeId(0));
            let (ep, mgr, succ) = (add(), add(), add());
            let mem: Vec<_> = (0..cfg.mem_servers).map(|_| add()).collect();
            ep.bind_task(&sched.register_running());
            let (id, mem_eps) = (ep.id(), mem.iter().map(|m| m.id()).collect());
            let registered = MgrResponse::Registered { watermark: 0, marks: Marks::default() };
            mgr.send(id, SimTime::ZERO, 16, MsgClass::Control, mgr_resp(1, registered)).unwrap();
            let ctx = crate::thread::ThreadCtx::new(
                SimTime::ZERO,
                0,
                2,
                cfg,
                ep,
                mgr.id(),
                None,
                mem_eps,
            );
            Holder { ctx, ep: id, mgr, succ, _mem: mem }
        }

        /// Stage the manager's `resp` to request `token`, sent at `at_ns`.
        fn reply(&self, at_ns: u64, token: u64, resp: MgrResponse) {
            let msg = mgr_resp(token, resp);
            self.mgr.send(self.ep, SimTime::from_ns(at_ns), 16, MsgClass::Sync, msg).unwrap();
        }

        /// The whole grant of request `token`, for a thread that has seen
        /// nothing.
        fn grant(&self, at_ns: u64, token: u64) {
            let rest = MgrResponse::Rest {
                after: 0,
                notices: samhita_regc::NoticeSet::default(),
                watermark: 0,
                relay: None,
            };
            self.reply(at_ns, token, rest);
        }

        /// The manager's hint, under hold `token`, that thread 1's request
        /// 77 queued behind it on lock 0.
        fn hint(&self, at_ns: u64, token: u64) {
            let next = Successor { lock: 0, tid: 1, ep: self.succ.id(), token: 77, relay: false };
            self.reply(at_ns, token, MgrResponse::Successor(next));
        }

        /// Whom each release the manager got named: `(tid, token)`.
        fn releases(&self) -> Vec<Option<(u32, u64)>> {
            std::iter::from_fn(|| self.mgr.try_recv())
                .filter_map(|env| match env.msg {
                    Msg::MgrReq { req: MgrRequest::Release { handed, .. }, .. } => {
                        Some(handed.map(|h| (h.to, h.token)))
                    }
                    _ => None,
                })
                .collect()
        }

        /// The tokens of the batons thread 1 was sent.
        fn batons(&self) -> Vec<u64> {
            std::iter::from_fn(|| self.succ.try_recv())
                .map(|env| match env.msg {
                    Msg::MgrResp { token, resp: MgrResponse::Baton { .. } } => token,
                    other => panic!("the successor got more than a baton: {other:?}"),
                })
                .collect()
        }
    }

    fn mgr_resp(token: u64, resp: MgrResponse) -> Msg {
        Msg::MgrResp { token, resp }
    }

    #[test]
    fn a_hint_that_arrives_before_its_grant_is_the_one_unlock_batons_to() {
        let mut h = Holder::new();
        // Request 2 is the acquire; its hint overtakes its grant.
        h.hint(10_000, 2);
        h.grant(20_000, 2);
        h.ctx.lock(0);
        h.ctx.unlock(0);
        assert_eq!(h.batons(), vec![77]);
        assert_eq!(h.releases(), vec![Some((1, 77))]);
    }

    #[test]
    fn a_hint_under_a_stale_holds_token_is_never_used() {
        let mut h = Holder::new();
        h.grant(10_000, 2);
        h.ctx.lock(0);
        // Request 3: no hint yet, so released through the manager. The
        // first hold's hint arrives while the second acquire waits.
        h.ctx.unlock(0);
        h.hint(30_000, 2);
        h.grant(40_000, 4);
        h.ctx.lock(0);
        h.ctx.unlock(0);
        assert_eq!(h.batons(), Vec::<u64>::new());
        assert_eq!(h.releases(), vec![None, None]);
    }

    #[test]
    fn a_hint_after_a_barrier_is_never_used() {
        let mut h = Holder::new();
        h.grant(10_000, 2);
        h.ctx.lock(0);
        // The hold's own hint arrives while the barrier (request 3) waits.
        h.hint(20_000, 2);
        let notices = samhita_regc::NoticeSet::default();
        h.reply(30_000, 3, MgrResponse::BarrierReleased { notices, watermark: 0 });
        h.ctx.barrier(0);
        h.ctx.unlock(0);
        assert_eq!(h.batons(), Vec::<u64>::new());
        assert_eq!(h.releases(), vec![None]);
    }
}
