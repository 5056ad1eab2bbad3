//! The Xen credit scheduler.
//!
//! This is a faithful reimplementation of the proportional-share *credit*
//! scheduler that Xen 4.5 used by default, at the paper's time constants:
//!
//! - every **10 ms** each pCPU ticks and the running vCPU's credits are
//!   burned for the time it actually ran;
//! - every **30 ms** the accounting pass (`csched_acct` in Xen) distributes
//!   one accounting period's worth of machine capacity to *active* domains
//!   in proportion to their weights, and splits each domain's share equally
//!   among its active (non-frozen) vCPUs;
//! - the scheduling quantum (time slice) is **30 ms**;
//! - vCPUs with non-negative credit run at [`Prio::Under`], vCPUs that have
//!   over-drawn run at [`Prio::Over`], and a vCPU that wakes from blocking
//!   with credit left is temporarily promoted to [`Prio::Boost`] so latency-
//!   sensitive work gets on a pCPU quickly;
//! - the scheduler is **work-conserving**: an idle pCPU steals runnable
//!   vCPUs from its peers (BOOST first, then UNDER, then OVER), so unused
//!   capacity flows to whoever can use it.
//!
//! Two vScale modifications from §4.2 of the paper are included:
//!
//! 1. **Per-VM weight.** Credits are apportioned to the *domain* by weight
//!    and then split among active vCPUs, so freezing vCPUs never shrinks a
//!    domain's total allocation.
//! 2. **Frozen vCPUs leave the active list.** A vCPU the guest has frozen
//!    (via the `SCHEDOP_freezecpu` hypercall,
//!    [`HypervisorSched::set_frozen`]) stops earning credits; its share
//!    flows to its siblings.
//!
//! The assignment record, freeze flags, run/wait accounting (including
//! the per-vCPU *waiting time* that Figure 9 of the paper reports) and the
//! Algorithm 1 ticker live in the shared [`Pool`]; this module holds the
//! credit policy: priority queues, credits, caps and stealing.

use std::collections::VecDeque;

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::snap::{SnapReader, SnapWriter};
use sim_core::time::{SimDuration, SimTime};

use crate::api::HypervisorSched;
use crate::pool::{load_gv, save_gv, Pool, SchedEvent, Vcpu, VcpuPolicy, VcpuState};

/// Scheduling priority of a runnable vCPU, ordered from most to least urgent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Prio {
    /// Freshly woken with credit remaining; scheduled before everything else.
    Boost = 0,
    /// Has credit remaining.
    Under = 1,
    /// Has over-drawn its credit; runs only on otherwise-idle capacity.
    Over = 2,
}

const PRIO_COUNT: usize = 3;

/// Under the kick-throttle defense, a BOOST wakeup may evict a running
/// vCPU only once the occupant has run this many ratelimit windows
/// (5 ms at the Xen-default 1 ms ratelimit). Chosen as a small multiple:
/// large enough that a wake-storm tenant cannot shred a neighbor's
/// slice into millisecond fragments, small enough that genuinely
/// latency-sensitive wakeups still preempt within single-digit
/// milliseconds.
pub const KICK_THROTTLE_FACTOR: u64 = 5;
/// Configuration of the credit scheduler.
#[derive(Clone, Debug)]
pub struct CreditConfig {
    /// Tick period (credit burn + boost demotion). Xen default: 10 ms.
    pub tick: SimDuration,
    /// Number of ticks per accounting pass. Xen default: 3 (30 ms).
    pub ticks_per_acct: u32,
    /// Scheduling quantum. Xen default: 30 ms.
    pub slice: SimDuration,
    /// Minimum time a vCPU runs before a wakeup may preempt it. Xen
    /// default: 1 ms.
    pub ratelimit: SimDuration,
    /// Whether the BOOST mechanism is enabled (ablation knob).
    pub boost: bool,
    /// Whether the tick also preempts the running vCPU when a
    /// higher-priority vCPU waits in the queue. Xen's credit scheduler
    /// does *not* — rescheduling happens only on wake tickles, blocks,
    /// yields and slice expiry — which is precisely why scheduling delays
    /// reach tens of milliseconds. Ablation knob, default off (faithful).
    pub tick_preemption: bool,
    /// Period of the vScale extendability ticker (`vscale_ticker_fn`).
    /// Paper default: 10 ms.
    pub extend_period: SimDuration,
    /// Historical-Xen *sampled* credit accounting: instead of charging
    /// exact run nanoseconds continuously, whoever occupies the pCPU at
    /// the tick is charged one whole tick of credit. This is the
    /// vulnerability Zhou et al. exploit — a tenant that yields just
    /// before every tick runs nearly free. Fidelity knob for the attack
    /// grid, default off (exact accounting, as in this repo since PR 1).
    /// Statistics (`run_total`, consumption windows, `total_run_ns`)
    /// stay exact either way; only the credit balance is sampled.
    pub sampled_burn: bool,
    /// Defense: directed kicks may not evict a current occupant that has
    /// run for less than [`CreditConfig::ratelimit`] (the kick still
    /// wakes and enqueues the target at BOOST — only the immediate
    /// eviction is suppressed), and BOOST-priority wakeups may evict only
    /// an occupant that has run at least [`KICK_THROTTLE_FACTOR`]× the
    /// ratelimit. Together these bound preemption farming via IPI/wake
    /// storms: a tenant ping-ponging wakeups across its vCPUs can no
    /// longer evict a neighbor every millisecond. Default off: faithful
    /// kicks bypass the ratelimit and every wake preempts at the
    /// ratelimit.
    pub kick_throttle: bool,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            tick: SimDuration::from_ms(10),
            ticks_per_acct: 3,
            slice: SimDuration::from_ms(30),
            ratelimit: SimDuration::from_ms(1),
            boost: true,
            tick_preemption: false,
            extend_period: SimDuration::from_ms(10),
            sampled_burn: false,
            kick_throttle: false,
        }
    }
}

/// The credit policy's per-vCPU fields, embedded in the pool's hot
/// per-vCPU record.
#[derive(Clone, Debug)]
pub struct CreditVcpu {
    prio: Prio,
    /// Signed credit balance in nanoseconds of pCPU time.
    credits_ns: i64,
    /// Parked by cap enforcement: held off pCPUs until the next
    /// accounting pass refills the domain's cap budget.
    parked: bool,
}

impl VcpuPolicy for CreditVcpu {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.prio as u8);
        w.i64(self.credits_ns);
        w.bool(self.parked);
    }

    fn load(r: &mut SnapReader<'_>) -> Self {
        CreditVcpu {
            prio: load_prio(r),
            credits_ns: r.i64(),
            parked: r.bool(),
        }
    }

    fn credit(&self) -> i64 {
        self.credits_ns
    }

    /// A migrated balance lands at its credit-derived priority.
    fn set_credit(&mut self, credit: i64) {
        self.credits_ns = credit;
        self.prio = if credit > 0 { Prio::Under } else { Prio::Over };
    }
}

/// One pCPU's run queues: one FIFO per priority level.
type Queues = [VecDeque<GlobalVcpu>; PRIO_COUNT];

fn queued_len(queues: &Queues) -> usize {
    queues.iter().map(VecDeque::len).sum()
}

/// The credit scheduler: all domains, vCPUs and pCPUs of one CPU pool.
///
/// All state-changing entry points append the resulting [`SchedEvent`]s to
/// a caller-provided sink instead of returning a fresh `Vec`, so the
/// embedding machine's steady-state event loop performs no per-dispatch
/// heap allocation. The sink is *appended to*, never cleared — the caller
/// owns its lifecycle.
pub struct CreditScheduler {
    pool: Pool<CreditVcpu>,
    /// Per-pCPU run queues.
    queues: Vec<Queues>,
    /// Per-domain consumption within the current accounting window
    /// (activity test and cap budget).
    consumed_acct: Vec<SimDuration>,
    /// Scratch for [`CreditScheduler::on_acct`] cap decisions (reused
    /// across calls so the 30 ms pass allocates nothing in steady state).
    park_buf: Vec<GlobalVcpu>,
    unpark_buf: Vec<GlobalVcpu>,
    /// Scratch for the per-domain activity flags of the accounting pass.
    active_buf: Vec<bool>,
}

impl CreditScheduler {
    /// Creates a scheduler managing `n_pcpus` physical CPUs.
    pub fn new(config: CreditConfig, n_pcpus: usize) -> Self {
        CreditScheduler {
            pool: Pool::new(config, n_pcpus),
            queues: (0..n_pcpus).map(|_| Queues::default()).collect(),
            consumed_acct: Vec::new(),
            park_buf: Vec::new(),
            unpark_buf: Vec::new(),
            active_buf: Vec::new(),
        }
    }

    #[inline]
    fn vcpu(&self, gv: GlobalVcpu) -> &Vcpu<CreditVcpu> {
        &self.pool.hot[gv]
    }

    #[inline]
    fn vcpu_mut(&mut self, gv: GlobalVcpu) -> &mut Vcpu<CreditVcpu> {
        &mut self.pool.hot[gv]
    }

    /// Number of non-frozen vCPUs of `dom` (the active list of §4.2).
    fn active_vcpu_count(&self, dom: DomId) -> usize {
        self.pool
            .hot
            .domain(dom)
            .iter()
            .filter(|v| !v.frozen)
            .count()
    }

    /// The current priority of a vCPU.
    pub fn vcpu_prio(&self, gv: GlobalVcpu) -> Prio {
        self.vcpu(gv).policy.prio
    }

    /// Signed credit balance of `gv`, in nanoseconds (test/inspection hook).
    pub fn credits_ns(&self, gv: GlobalVcpu) -> i64 {
        self.vcpu(gv).policy.credits_ns
    }

    /// Whether `gv` is parked by cap enforcement.
    pub fn is_parked(&self, gv: GlobalVcpu) -> bool {
        self.vcpu(gv).policy.parked
    }

    // ------------------------------------------------------------------
    // Credit accounting.
    // ------------------------------------------------------------------

    /// Burns credits of the vCPU running on `pcpu` for time elapsed since
    /// the last burn point (Xen's `burn_credits`).
    fn burn(&mut self, pcpu: PcpuId, now: SimTime) {
        let Some((gv, ran)) = self.pool.burn(pcpu, now) else {
            return;
        };
        // Under sampled accounting the credit balance is charged only at
        // ticks (see `on_tick`); the pool's statistics stay exact
        // regardless so work-conservation invariants and consumption
        // windows hold.
        if !self.pool.config.sampled_burn {
            let v = &mut self.pool.hot[gv].policy;
            v.credits_ns -= ran.as_ns() as i64;
            if v.credits_ns < 0 && v.prio != Prio::Over {
                v.prio = Prio::Over;
            }
        }
        self.consumed_acct[gv.dom.index()] += ran;
    }

    fn burn_all(&mut self, now: SimTime) {
        for p in 0..self.pool.pcpus.len() {
            self.burn(PcpuId(p), now);
        }
    }

    fn best_waiting_prio(&self, pcpu: PcpuId) -> usize {
        self.queues[pcpu.index()]
            .iter()
            .position(|q| !q.is_empty())
            .unwrap_or(PRIO_COUNT)
    }

    /// Parks a vCPU (cap exceeded): it leaves its pCPU/queue and will not
    /// be scheduled until unparked.
    fn park(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.vcpu_mut(gv).policy.parked = true;
        self.vcpu_block(gv, now, events);
    }

    /// Unparks a vCPU when the cap budget refills; the embedding machine
    /// revalidates whether the guest actually has work for it.
    fn unpark(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.vcpu_mut(gv).policy.parked = false;
        self.vcpu_wake(gv, now, events);
    }

    // ------------------------------------------------------------------
    // State transitions.
    // ------------------------------------------------------------------

    fn enqueue(&mut self, gv: GlobalVcpu, pcpu: PcpuId, now: SimTime) {
        let prio = self.vcpu(gv).policy.prio;
        self.vcpu_mut(gv).state = VcpuState::Runnable { pcpu, since: now };
        self.queues[pcpu.index()][prio as usize].push_back(gv);
    }

    /// Removes the running vCPU from `pcpu` (burning its credits), leaving
    /// the pCPU empty. If `requeue`, the vCPU goes to the tail of its
    /// priority queue on the same pCPU; otherwise the caller sets its state.
    fn deschedule_current(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        requeue: bool,
        events: &mut Vec<SchedEvent>,
    ) {
        self.burn(pcpu, now);
        if let Some(gv) = self.pool.detach(pcpu, events) {
            if requeue {
                self.enqueue(gv, pcpu, now);
            }
        }
    }

    /// Picks the next vCPU for `pcpu`: local queues first (BOOST, UNDER),
    /// then stealing from peers, then local OVER, then stolen OVER, then
    /// idle. Emits the resulting [`SchedEvent`]s.
    fn reschedule(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        debug_assert!(self.pool.pcpus[pcpu.index()].current.is_none());
        // Local BOOST/UNDER.
        for prio in [Prio::Boost, Prio::Under] {
            if let Some(gv) = self.queues[pcpu.index()][prio as usize].pop_front() {
                self.pool.place(gv, pcpu, now, events);
                return;
            }
        }
        // Steal BOOST/UNDER from the busiest peers (work conservation).
        for prio in [Prio::Boost, Prio::Under] {
            if let Some(gv) = self.steal(pcpu, prio) {
                self.pool.migrations += 1;
                self.pool.place(gv, pcpu, now, events);
                return;
            }
        }
        // Local OVER.
        if let Some(gv) = self.queues[pcpu.index()][Prio::Over as usize].pop_front() {
            self.pool.place(gv, pcpu, now, events);
            return;
        }
        // Stolen OVER.
        if let Some(gv) = self.steal(pcpu, Prio::Over) {
            self.pool.migrations += 1;
            self.pool.place(gv, pcpu, now, events);
            return;
        }
        events.push(SchedEvent::Idle { pcpu });
    }

    /// Takes one `prio` vCPU from the peer with the longest queue.
    fn steal(&mut self, thief: PcpuId, prio: Prio) -> Option<GlobalVcpu> {
        let victim = self
            .queues
            .iter()
            .enumerate()
            .filter(|&(i, q)| i != thief.index() && !q[prio as usize].is_empty())
            .max_by_key(|&(_, q)| queued_len(q))
            .map(|(i, _)| i)?;
        let gv = self.queues[victim][prio as usize].pop_front()?;
        // Keep its `Runnable.since` so the waiting span stays contiguous.
        if let VcpuState::Runnable { since, .. } = self.vcpu(gv).state {
            self.vcpu_mut(gv).state = VcpuState::Runnable { pcpu: thief, since };
        }
        Some(gv)
    }

    fn remove_from_queue(&mut self, gv: GlobalVcpu, now: SimTime) {
        if let VcpuState::Runnable { pcpu, since } = self.vcpu(gv).state {
            for queue in self.queues[pcpu.index()].iter_mut() {
                if let Some(pos) = queue.iter().position(|&x| x == gv) {
                    queue.remove(pos);
                    break;
                }
            }
            self.pool.stats[gv].wait_total += now.since(since);
        }
    }

    fn idle_pcpu(&self) -> Option<PcpuId> {
        self.pool
            .pcpus
            .iter()
            .zip(&self.queues)
            .position(|(p, q)| p.current.is_none() && queued_len(q) == 0)
            .map(PcpuId)
    }

    /// Preempts `pcpu`'s current vCPU if a strictly higher-priority vCPU
    /// waits in its queue and the ratelimit allows it; also fills an idle
    /// pCPU. `cause` is the vCPU whose arrival prompted the check — under
    /// the kick-throttle defense its domain is charged for BOOST
    /// evictions deferred beyond the ratelimit.
    fn maybe_preempt(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
        cause: GlobalVcpu,
    ) {
        let p = &self.pool.pcpus[pcpu.index()];
        let Some(cur) = p.current else {
            self.reschedule(pcpu, now, events);
            return;
        };
        let cur_prio = self.vcpu(cur).policy.prio as usize;
        let best = self.best_waiting_prio(pcpu);
        let ran = now.since(p.run_since);
        let config = &self.pool.config;
        if best >= cur_prio || ran < config.ratelimit {
            return;
        }
        // Kick-throttle defense: BOOST arrivals evict only an occupant
        // that has run KICK_THROTTLE_FACTOR× the ratelimit, bounding
        // wake-storm preemption farming.
        if config.kick_throttle
            && best == Prio::Boost as usize
            && ran < config.ratelimit * KICK_THROTTLE_FACTOR
        {
            self.pool.domains[cause.dom.index()].kicks_throttled += 1;
            return;
        }
        self.deschedule_current(pcpu, now, true, events);
        self.reschedule(pcpu, now, events);
    }
}

impl HypervisorSched for CreditScheduler {
    type Policy = CreditVcpu;

    fn new_pool(config: CreditConfig, n_pcpus: usize) -> Self {
        CreditScheduler::new(config, n_pcpus)
    }

    fn backend_name() -> &'static str {
        "credit"
    }

    fn pool(&self) -> &Pool<CreditVcpu> {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut Pool<CreditVcpu> {
        &mut self.pool
    }

    /// Serializes the pool, then the credit policy's queues and
    /// accounting windows.
    fn save(&self, w: &mut SnapWriter) {
        let CreditScheduler {
            pool,
            queues,
            consumed_acct,
            park_buf: _,
            unpark_buf: _,
            active_buf: _,
        } = self;
        pool.save(w);
        w.section("credit");
        w.seq(queues.iter(), |w, qs| {
            for q in qs {
                w.seq(q.iter(), |w, gv| save_gv(w, *gv));
            }
        });
        w.seq(consumed_acct.iter(), |w, d| w.dur(*d));
    }

    /// Restores state saved by [`HypervisorSched::save`] into a
    /// structurally identical pool.
    fn load(&mut self, r: &mut SnapReader<'_>) {
        self.pool.load(r);
        r.section("credit");
        let queues = r.seq(|r| [load_queue(r), load_queue(r), load_queue(r)]);
        assert_eq!(queues.len(), self.queues.len(), "pCPU count drifted");
        self.queues = queues;
        let consumed_acct = r.seq(|r| r.dur());
        assert_eq!(
            consumed_acct.len(),
            self.consumed_acct.len(),
            "domain count drifted"
        );
        self.consumed_acct = consumed_acct;
    }

    /// Creates a domain with `n_vcpus` vCPUs and proportional-share `weight`.
    ///
    /// All vCPUs start [`VcpuState::Blocked`] at [`Prio::Under`] with zero
    /// credit; the machine wakes them as the guest boots them.
    /// `cap_pcpus` / `reservation_pcpus` bound the domain's extendability
    /// (in units of whole pCPUs), and the cap is enforced by parking.
    fn create_domain(
        &mut self,
        weight: u32,
        n_vcpus: usize,
        cap_pcpus: Option<f64>,
        reservation_pcpus: Option<f64>,
    ) -> DomId {
        let id = self
            .pool
            .create_domain(weight, n_vcpus, cap_pcpus, reservation_pcpus, |_| {
                CreditVcpu {
                    prio: Prio::Under,
                    credits_ns: 0,
                    parked: false,
                }
            });
        self.consumed_acct.push(SimDuration::ZERO);
        id
    }

    /// Per-pCPU tick (every [`CreditConfig::tick`]): burn credits, demote
    /// BOOST, and preempt if a higher-priority vCPU is waiting. Resulting
    /// assignment changes are appended to `events`.
    fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn(pcpu, now);
        let Some(gv) = self.pool.pcpus[pcpu.index()].current else {
            // Idle pCPU: a tick is a natural point to look for work that
            // appeared without a wakeup kick reaching us.
            self.reschedule(pcpu, now, events);
            return;
        };
        let tick_ns = self.pool.config.tick.as_ns() as i64;
        let sampled = self.pool.config.sampled_burn;
        let v = &mut self.pool.hot[gv].policy;
        if sampled {
            // Historical Xen: whoever is caught on the pCPU at the tick
            // pays for the whole tick, whether it ran 10 ms or 10 µs of
            // it. A tenant absent at every sample runs free.
            v.credits_ns -= tick_ns;
            if v.credits_ns < 0 && v.prio == Prio::Under {
                v.prio = Prio::Over;
            }
        }
        // Xen demotes a boosted vCPU back to its credit-derived priority
        // at the first tick it survives on a pCPU.
        if v.prio == Prio::Boost {
            v.prio = if v.credits_ns >= 0 {
                Prio::Under
            } else {
                Prio::Over
            };
        }
        // Optional (non-Xen) tick preemption: let queued higher-priority
        // work through at tick granularity.
        if self.pool.config.tick_preemption {
            let cur_prio = self.vcpu(gv).policy.prio;
            if self.best_waiting_prio(pcpu) < cur_prio as usize {
                self.deschedule_current(pcpu, now, /* requeue= */ true, events);
                self.reschedule(pcpu, now, events);
            }
        }
    }

    /// The 30 ms accounting pass (`csched_acct`): distributes one period's
    /// machine capacity to active domains by weight, splits each domain's
    /// share across its active (non-frozen) vCPUs, clips balances, and
    /// enforces per-domain caps — a capped domain that over-consumed its
    /// budget has its vCPUs *parked* (Xen's `CSCHED_FLAG_VCPU_PARKED`)
    /// until the next pass; caps are the one deliberately
    /// non-work-conserving knob. Assignment changes go to `events`.
    fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        // Burn everyone up to `now` first so consumption is current.
        self.burn_all(now);
        let config = &self.pool.config;
        let period = config.tick * u64::from(config.ticks_per_acct);
        let total_ns = (period * self.pool.pcpus.len() as u64).as_ns() as i64;
        let cap_ns = period.as_ns() as i64; // At most one full period banked.
        let floor_ns = -cap_ns; // At most one full period over-drawn.

        // Cap enforcement decisions, applied after the credit loop so the
        // domain iteration below stays simple. The decision lists are
        // scheduler-owned scratch (empty outside this call).
        let mut to_park = std::mem::take(&mut self.park_buf);
        let mut to_unpark = std::mem::take(&mut self.unpark_buf);
        debug_assert!(to_park.is_empty() && to_unpark.is_empty());
        for (di, (d, consumed)) in self
            .pool
            .domains
            .iter()
            .zip(&self.consumed_acct)
            .enumerate()
        {
            let Some(cap) = d.cap_pcpus else { continue };
            let budget = SimDuration::from_ns((period.as_ns() as f64 * cap) as u64);
            let over = *consumed > budget;
            for (vi, v) in self.pool.hot.domain(DomId(di)).iter().enumerate() {
                let gv = GlobalVcpu::new(DomId(di), VcpuId(vi));
                if over && !v.policy.parked {
                    to_park.push(gv);
                } else if !over && v.policy.parked {
                    to_unpark.push(gv);
                }
            }
        }

        // A domain is active if it consumed anything this window or has
        // runnable/running vCPUs right now.
        let mut active = std::mem::take(&mut self.active_buf);
        active.clear();
        active.extend(self.consumed_acct.iter().enumerate().map(|(di, consumed)| {
            !consumed.is_zero()
                || self
                    .pool
                    .hot
                    .domain(DomId(di))
                    .iter()
                    .any(|v| !matches!(v.state, VcpuState::Blocked { .. }))
        }));
        let weight_sum: u64 = self
            .pool
            .domains
            .iter()
            .zip(&active)
            .filter(|&(_, a)| *a)
            .map(|(d, _)| u64::from(d.weight))
            .sum();

        for (di, dom_active) in active.iter().enumerate() {
            self.consumed_acct[di] = SimDuration::ZERO;
            if !dom_active || weight_sum == 0 {
                continue;
            }
            let dom_share = total_ns * i64::from(self.pool.domains[di].weight) / weight_sum as i64;
            let n_active = self.active_vcpu_count(DomId(di)).max(1) as i64;
            let per_vcpu = dom_share / n_active;
            for v in self.pool.hot.domain_mut(DomId(di)) {
                if v.frozen {
                    // vScale §4.2: frozen vCPUs are off the active list and
                    // earn nothing; their share went to the siblings above.
                    continue;
                }
                let c = &mut v.policy;
                c.credits_ns = (c.credits_ns + per_vcpu).clamp(floor_ns, cap_ns);
                if c.prio != Prio::Boost {
                    c.prio = if c.credits_ns >= 0 {
                        Prio::Under
                    } else {
                        Prio::Over
                    };
                }
            }
        }
        for gv in to_park.drain(..) {
            self.park(gv, now, events);
        }
        for gv in to_unpark.drain(..) {
            self.unpark(gv, now, events);
        }
        self.park_buf = to_park;
        self.unpark_buf = to_unpark;
        self.active_buf = active;
    }

    /// The vScale ticker (`vscale_ticker_fn`), run on the pool master
    /// every [`CreditConfig::extend_period`]: burns every pCPU so
    /// consumption is current, then republishes Algorithm 1.
    fn on_extend_tick(&mut self, now: SimTime) {
        self.burn_all(now);
        self.pool.republish_extend(now);
    }

    /// A vCPU blocks voluntarily (guest idle / HLT / `SCHEDOP_poll`).
    /// Assignment changes are appended to `events`.
    fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.vcpu(gv).state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { .. } => {
                // Raced: it was preempted and now blocks from the queue.
                self.remove_from_queue(gv, now);
                self.vcpu_mut(gv).state = VcpuState::Blocked { since: now };
            }
            VcpuState::Blocked { .. } => {}
        }
    }

    /// Wakes a blocked vCPU (pending interrupt or event-channel kick).
    ///
    /// An UNDER vCPU is promoted to BOOST (if enabled) so it reaches a pCPU
    /// quickly; it may preempt the current occupant of its home pCPU if that
    /// occupant has run at least the ratelimit and has lower priority.
    fn vcpu_wake(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        let v = self.vcpu(gv);
        if !matches!(v.state, VcpuState::Blocked { .. }) {
            return;
        }
        if v.policy.parked {
            // Cap-parked: stays off pCPUs until the next accounting pass.
            return;
        }
        if self.pool.config.boost && v.policy.credits_ns >= 0 {
            self.vcpu_mut(gv).policy.prio = Prio::Boost;
        }
        // Prefer an idle pCPU anywhere in the pool; fall back to home.
        let home = self.vcpu(gv).last_pcpu;
        let target = self.idle_pcpu().unwrap_or(home);
        self.enqueue(gv, target, now);
        self.maybe_preempt(target, now, events, gv);
    }

    /// The running vCPU on `pcpu` yields (pv-spinlock `SCHEDOP_yield`):
    /// it goes to the back of its priority queue.
    fn vcpu_yield(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if let VcpuState::Running { pcpu, .. } = self.vcpu(gv).state {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }

    /// End of the 30 ms quantum on `pcpu`: round-robin to the next vCPU.
    fn slice_expired(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pool.pcpus[pcpu.index()].current.is_some() {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }

    /// Kicks a vCPU for a pending reconfiguration IPI: wakes it with BOOST
    /// priority and preempts aggressively so Algorithm 2's target-side work
    /// happens promptly (§4.2: the hypervisor "tickles the reconfigured
    /// vCPU and prioritizes its scheduling").
    fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.vcpu(gv).state {
            // Cap-parked, like in `vcpu_wake`: the kick may not run it
            // past its cap; the next accounting pass under budget does.
            VcpuState::Blocked { .. } if self.vcpu(gv).policy.parked => {}
            VcpuState::Blocked { .. } => {
                self.vcpu_mut(gv).policy.prio = Prio::Boost;
                let target = self.idle_pcpu().unwrap_or(self.vcpu(gv).last_pcpu);
                self.enqueue(gv, target, now);
                // Reconfiguration kicks bypass the ratelimit — unless the
                // kick-throttle defense bounds that bypass.
                let p = &self.pool.pcpus[target.index()];
                match p.current {
                    None => self.reschedule(target, now, events),
                    Some(cur) if self.vcpu(cur).policy.prio > Prio::Boost => {
                        let ran = now.since(p.run_since);
                        if self.pool.config.kick_throttle && ran < self.pool.config.ratelimit {
                            // Stays queued at BOOST; it gets the pCPU at
                            // the next natural scheduling point instead
                            // of evicting a freshly placed occupant.
                            self.pool.domains[gv.dom.index()].kicks_throttled += 1;
                        } else {
                            self.deschedule_current(target, now, true, events);
                            self.reschedule(target, now, events);
                        }
                    }
                    Some(_) => {}
                }
            }
            VcpuState::Runnable { pcpu, .. } => {
                // Bump to BOOST in place.
                self.remove_from_queue(gv, now);
                self.vcpu_mut(gv).policy.prio = Prio::Boost;
                self.enqueue(gv, pcpu, now);
                self.maybe_preempt(pcpu, now, events, gv);
            }
            VcpuState::Running { .. } => {}
        }
    }
}

fn load_prio(r: &mut SnapReader<'_>) -> Prio {
    match r.u8() {
        0 => Prio::Boost,
        1 => Prio::Under,
        2 => Prio::Over,
        t => panic!("unknown Prio tag {t}"),
    }
}

fn load_queue(r: &mut SnapReader<'_>) -> VecDeque<GlobalVcpu> {
    r.seq(load_gv).into()
}

/// Test helper: runs a sink-style scheduler call and returns the events it
/// appended, restoring the `Vec`-returning shape the assertions read best in.
#[cfg(test)]
fn collect(f: impl FnOnce(&mut Vec<SchedEvent>)) -> Vec<SchedEvent> {
    let mut out = Vec::new();
    f(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gv(d: usize, v: usize) -> GlobalVcpu {
        GlobalVcpu::new(DomId(d), VcpuId(v))
    }

    fn sched(n_pcpus: usize) -> CreditScheduler {
        CreditScheduler::new(CreditConfig::default(), n_pcpus)
    }

    #[test]
    fn wake_places_vcpu_on_idle_pcpu() {
        let mut s = sched(2);
        s.create_domain(256, 1, None, None);
        let ev = collect(|ev| s.vcpu_wake(gv(0, 0), SimTime::ZERO, ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 0)
        }));
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
    }

    #[test]
    fn two_vcpus_spread_over_two_pcpus() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
        assert_eq!(s.running_on(PcpuId(1)), Some(gv(0, 1)));
    }

    #[test]
    fn tick_evader_escapes_sampled_charging_but_not_exact() {
        // A vCPU that runs 9.9 ms and blocks just before the 10 ms tick:
        // under sampled accounting it is never charged (the Zhou et al.
        // theft), under exact accounting it pays for what it ran.
        for (sampled, want_charged) in [(true, false), (false, true)] {
            let cfg = CreditConfig {
                sampled_burn: sampled,
                ..CreditConfig::default()
            };
            let mut s = CreditScheduler::new(cfg, 1);
            s.create_domain(256, 1, None, None);
            let mut ev = Vec::new();
            s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut ev);
            s.vcpu_block(
                gv(0, 0),
                SimTime::ZERO + SimDuration::from_us(9_900),
                &mut ev,
            );
            s.on_tick(PcpuId(0), SimTime::ZERO + SimDuration::from_ms(10), &mut ev);
            assert_eq!(s.credits_ns(gv(0, 0)) < 0, want_charged);
            // Statistics stay exact in both modes.
            assert_eq!(s.vcpu_run_total(gv(0, 0)), SimDuration::from_us(9_900));
        }
    }

    #[test]
    fn sampled_burn_charges_the_tick_occupant_a_whole_tick() {
        let cfg = CreditConfig {
            sampled_burn: true,
            ..CreditConfig::default()
        };
        let mut s = CreditScheduler::new(cfg, 1);
        s.create_domain(256, 1, None, None);
        let mut ev = Vec::new();
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut ev);
        s.on_tick(PcpuId(0), SimTime::ZERO + SimDuration::from_ms(10), &mut ev);
        assert_eq!(s.credits_ns(gv(0, 0)), -10_000_000);
    }

    #[test]
    fn kick_throttle_defers_eviction_within_ratelimit() {
        for throttle in [false, true] {
            let cfg = CreditConfig {
                boost: false,
                kick_throttle: throttle,
                ..CreditConfig::default()
            };
            let mut s = CreditScheduler::new(cfg, 1);
            s.create_domain(256, 1, None, None); // victim
            s.create_domain(256, 1, None, None); // attacker
            let mut ev = Vec::new();
            s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut ev);
            // Kick 0.5 ms into the victim's run — inside the ratelimit.
            let t = SimTime::ZERO + SimDuration::from_us(500);
            s.kick_vcpu(gv(1, 0), t, &mut ev);
            if throttle {
                assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
                assert_eq!(s.kicks_throttled(DomId(1)), 1);
            } else {
                assert_eq!(s.running_on(PcpuId(0)), Some(gv(1, 0)));
                assert_eq!(s.kicks_throttled(DomId(1)), 0);
            }
        }
    }

    #[test]
    fn block_frees_pcpu_and_next_runs() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
        let ev = collect(|ev| s.vcpu_block(gv(0, 0), SimTime::from_ms(5), ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 1)
        }));
    }

    #[test]
    fn slice_expiry_round_robins() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        let ev = collect(|ev| s.slice_expired(PcpuId(0), SimTime::from_ms(30), ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 1)
        }));
        let ev = collect(|ev| s.slice_expired(PcpuId(0), SimTime::from_ms(60), ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 0)
        }));
    }

    #[test]
    fn burning_credits_demotes_to_over() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // Run 10 ms with zero starting credits -> negative balance -> OVER.
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        assert_eq!(s.vcpu_prio(gv(0, 0)), Prio::Over);
        assert!(s.credits_ns(gv(0, 0)) < 0);
    }

    #[test]
    fn acct_distributes_by_weight() {
        let mut s = sched(1);
        s.create_domain(512, 1, None, None); // Double weight.
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        let c0 = s.credits_ns(gv(0, 0));
        let c1 = s.credits_ns(gv(1, 0));
        // dom0 ran the whole 30 ms (burn 30 ms) then got 20 ms; dom1 got
        // 10 ms and burned nothing.
        assert!(c0 < c1, "heavier domain burned more: {c0} vs {c1}");
        // Shares are 2:1 of 30 ms => 20 ms and 10 ms.
        assert_eq!(c1, SimDuration::from_ms(10).as_ns() as i64);
    }

    #[test]
    fn frozen_vcpu_earns_nothing_and_siblings_earn_more() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.set_frozen(gv(0, 1), true);
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        // Whole domain share (2 pcpus * 30ms = 60ms worth) goes to vcpu0,
        // clipped at the +30 ms cap; vcpu1 gets nothing.
        assert_eq!(s.credits_ns(gv(0, 1)), 0);
        let c0 = s.credits_ns(gv(0, 0));
        assert!(c0 > 0);
        // vcpu0 burned 30ms then received min(60ms, cap)... net must exceed
        // the split-both-ways alternative (60/2 - 30 = 0).
        assert!(c0 > 0, "unfrozen sibling should net positive, got {c0}");
    }

    #[test]
    fn boost_preempts_over_vcpu() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // Burn dom0 down to OVER.
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        assert_eq!(s.vcpu_prio(gv(0, 0)), Prio::Over);
        // dom1 wakes with zero credits (>= 0 -> boost).
        let ev = collect(|ev| s.vcpu_wake(gv(1, 0), SimTime::from_ms(15), ev));
        assert!(
            ev.contains(&SchedEvent::Run {
                pcpu: PcpuId(0),
                vcpu: gv(1, 0)
            }),
            "boosted wakeup should preempt OVER vcpu: {ev:?}"
        );
    }

    #[test]
    fn ratelimit_defers_preemption() {
        let mut s = CreditScheduler::new(
            CreditConfig {
                tick_preemption: true,
                ..CreditConfig::default()
            },
            1,
        );
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new()); // dom0 -> OVER.
        s.slice_expired(PcpuId(0), SimTime::from_ms(10), &mut Vec::new()); // Restart run_since.
                                                                           // Wake 0.5 ms into dom0's new run: below the 1 ms ratelimit.
        let ev = collect(|ev| {
            s.vcpu_wake(
                gv(1, 0),
                SimTime::from_ms(10) + SimDuration::from_us(500),
                ev,
            )
        });
        assert!(
            !ev.iter()
                .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(1, 0))),
            "preemption should be deferred by ratelimit: {ev:?}"
        );
        // The next tick lets it through.
        let ev = collect(|ev| s.on_tick(PcpuId(0), SimTime::from_ms(20), ev));
        assert!(ev
            .iter()
            .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(1, 0))));
    }

    #[test]
    fn idle_pcpu_steals_runnable_work() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        // Force both vcpus onto pcpu0's queue by waking while pcpu1 busy.
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new()); // Takes pcpu0.
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new()); // Takes pcpu1.
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new()); // Queued somewhere.
                                                               // Now block the vcpu on pcpu1; it must steal gv(0,1) from pcpu0's
                                                               // queue rather than idle.
        let running_p1 = s.running_on(PcpuId(1)).unwrap();
        let ev = collect(|ev| s.vcpu_block(running_p1, SimTime::from_ms(1), ev));
        assert!(
            ev.iter().any(|e| matches!(
                e,
                SchedEvent::Run {
                    pcpu: PcpuId(1),
                    ..
                }
            )),
            "pcpu1 should have found work: {ev:?}"
        );
    }

    #[test]
    fn waiting_time_accumulates_while_queued() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // vcpu1 waits 30 ms for the slice to expire.
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        assert_eq!(s.vcpu_wait_total(gv(0, 1)), SimDuration::from_ms(30));
        assert_eq!(s.vcpu_wait_total(gv(0, 0)), SimDuration::ZERO);
        assert_eq!(s.domain_wait_total(DomId(0)), SimDuration::from_ms(30));
    }

    #[test]
    fn run_total_tracks_cpu_time() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        s.on_tick(PcpuId(0), SimTime::from_ms(20), &mut Vec::new());
        assert_eq!(s.vcpu_run_total(gv(0, 0)), SimDuration::from_ms(20));
    }

    #[test]
    fn yield_moves_to_queue_tail() {
        let mut s = sched(1);
        s.create_domain(256, 3, None, None);
        for i in 0..3 {
            s.vcpu_wake(gv(0, i), SimTime::ZERO, &mut Vec::new());
        }
        // Order now: running vcpu0; queue [vcpu1, vcpu2].
        let ev = collect(|ev| s.vcpu_yield(gv(0, 0), SimTime::from_ms(1), ev));
        assert!(ev
            .iter()
            .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(0, 1))));
        let ev = collect(|ev| s.vcpu_yield(gv(0, 1), SimTime::from_ms(2), ev));
        assert!(ev
            .iter()
            .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(0, 2))));
    }

    #[test]
    fn kick_vcpu_preempts_immediately() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // Demote dom0's boost with a tick, then kick dom1's blocked vCPU
        // shortly after — within the ratelimit window: still preempts
        // (the reconfiguration path bypasses the ratelimit).
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        let ev = collect(|ev| {
            s.kick_vcpu(
                gv(1, 0),
                SimTime::from_ms(10) + SimDuration::from_us(100),
                ev,
            )
        });
        assert!(
            ev.iter()
                .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(1, 0))),
            "kick should place the target immediately: {ev:?}"
        );
    }

    #[test]
    fn gen_bumps_on_assignment_changes() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        let g0 = s.pcpu_gen(PcpuId(0));
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        assert!(s.pcpu_gen(PcpuId(0)) > g0);
        let g1 = s.pcpu_gen(PcpuId(0));
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // No preemption (same prio): gen unchanged.
        assert_eq!(s.pcpu_gen(PcpuId(0)), g1);
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        assert!(s.pcpu_gen(PcpuId(0)) > g1);
    }

    #[test]
    fn blocked_wake_is_idempotent() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        let ev = collect(|ev| s.vcpu_wake(gv(0, 0), SimTime::from_ms(1), ev));
        assert!(ev.is_empty(), "waking a running vcpu is a no-op");
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;

    fn gv(d: usize, v: usize) -> GlobalVcpu {
        GlobalVcpu::new(DomId(d), VcpuId(v))
    }

    /// Drives ticks + acct through one window with a CPU-hog domain.
    fn run_windows(s: &mut CreditScheduler, windows: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for w in 1..=windows {
            for k in 1..=3u64 {
                t = SimTime::from_ms((w - 1) * 30 + k * 10);
                for p in 0..s.n_pcpus() {
                    s.on_tick(PcpuId(p), t, &mut Vec::new());
                }
            }
            s.on_acct(t, &mut Vec::new());
        }
        t
    }

    #[test]
    fn capped_hog_is_parked_and_released() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        // Cap at half a pCPU.
        s.create_domain(256, 1, Some(0.5), None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // First window: consumed 30 ms > 15 ms budget -> parked.
        let t = run_windows(&mut s, 1);
        assert!(s.is_parked(gv(0, 0)), "over-cap vCPU must be parked");
        assert!(
            matches!(s.vcpu_state(gv(0, 0)), VcpuState::Blocked { .. }),
            "parked vCPU leaves the pCPU"
        );
        // Wakes while parked are refused.
        let ev = collect(|ev| s.vcpu_wake(gv(0, 0), t + SimDuration::from_ms(1), ev));
        assert!(ev.is_empty());
        // Next acct (no consumption this window): unparked and running.
        let t2 = SimTime::from_ms(60);
        let ev = collect(|ev| s.on_acct(t2, ev));
        assert!(!s.is_parked(gv(0, 0)));
        assert!(
            ev.iter()
                .any(|e| matches!(e, SchedEvent::Run { vcpu, .. } if *vcpu == gv(0, 0))),
            "unparked vCPU should be rescheduled: {ev:?}"
        );
    }

    #[test]
    fn cap_limits_long_run_share() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, Some(0.5), None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // Alternating park/unpark over many windows: consumption well
        // under 100%.
        let mut wakes = 0;
        for w in 1..=20u64 {
            let t = run_windows_from(&mut s, w);
            if !s.is_parked(gv(0, 0)) && matches!(s.vcpu_state(gv(0, 0)), VcpuState::Blocked { .. })
            {
                s.vcpu_wake(gv(0, 0), t, &mut Vec::new());
                wakes += 1;
            }
        }
        let _ = wakes;
        let share = s.vcpu_run_total(gv(0, 0)).as_ms_f64() / 600.0;
        assert!(
            share < 0.75,
            "cap 0.5 must bound the long-run share, got {share:.2}"
        );
        assert!(share > 0.25, "capped domain still runs, got {share:.2}");
    }

    fn run_windows_from(s: &mut CreditScheduler, window: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for k in 1..=3u64 {
            t = SimTime::from_ms((window - 1) * 30 + k * 10);
            for p in 0..s.n_pcpus() {
                s.on_tick(PcpuId(p), t, &mut Vec::new());
            }
        }
        s.on_acct(t, &mut Vec::new());
        t
    }

    #[test]
    fn kick_leaves_a_cap_parked_vcpu_parked() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, Some(0.5), None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        // One window at a whole pCPU against a 0.5 cap: parked.
        let t = run_windows(&mut s, 1);
        assert!(s.is_parked(gv(0, 0)));
        // A reconfiguration kick must not run it past its cap.
        let ev = collect(|ev| s.kick_vcpu(gv(0, 0), t + SimDuration::from_ms(1), ev));
        assert!(
            !ev.iter().any(|e| matches!(e, SchedEvent::Run { .. })),
            "kick ran a parked vCPU: {ev:?}"
        );
        assert!(matches!(s.vcpu_state(gv(0, 0)), VcpuState::Blocked { .. }));
        // The next accounting pass finds it under budget and runs it.
        let ev = collect(|ev| s.on_acct(SimTime::from_ms(60), ev));
        assert!(!s.is_parked(gv(0, 0)));
        assert!(
            ev.contains(&SchedEvent::Run {
                pcpu: PcpuId(0),
                vcpu: gv(0, 0)
            }),
            "unparked vCPU should run again: {ev:?}"
        );
    }

    #[test]
    fn uncapped_domain_never_parks() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        run_windows(&mut s, 5);
        assert!(!s.is_parked(gv(0, 0)));
        assert_eq!(s.vcpu_run_total(gv(0, 0)), SimDuration::from_ms(150));
    }
}

#[cfg(test)]
mod scheduler_behaviour_tests {
    use super::*;

    fn gv(d: usize, v: usize) -> GlobalVcpu {
        GlobalVcpu::new(DomId(d), VcpuId(v))
    }

    #[test]
    fn boost_is_demoted_at_first_tick() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.vcpu_prio(gv(0, 0)), Prio::Boost);
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        assert_ne!(s.vcpu_prio(gv(0, 0)), Prio::Boost);
    }

    #[test]
    fn boost_disabled_wakes_at_under() {
        let mut s = CreditScheduler::new(
            CreditConfig {
                boost: false,
                ..CreditConfig::default()
            },
            1,
        );
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.vcpu_prio(gv(0, 0)), Prio::Under);
    }

    #[test]
    fn steal_prefers_higher_priority_work() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 2);
        s.create_domain(256, 1, None, None); // Will go OVER.
        s.create_domain(256, 1, None, None); // Stays UNDER (fresh).
        s.create_domain(256, 1, None, None); // Occupies pcpu1.
                                             // dom0 runs on pcpu0 and overdraws.
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(2, 0), SimTime::ZERO, &mut Vec::new()); // pcpu1.
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new()); // dom0 -> OVER.
        s.on_tick(PcpuId(1), SimTime::from_ms(10), &mut Vec::new());
        // Preempt dom0 with a boosted wake; dom0 requeues OVER, dom1
        // queues UNDER behind it... place both in pcpu0's queues.
        s.vcpu_yield(gv(0, 0), SimTime::from_ms(11), &mut Vec::new()); // Requeue at OVER.
                                                                       // dom0 immediately rescheduled (only local); now wake dom1 onto
                                                                       // the same pcpu by blocking... simpler: force dom1 runnable while
                                                                       // pcpu0 busy with dom0.
        s.vcpu_wake(gv(1, 0), SimTime::from_ms(11), &mut Vec::new());
        // dom1 is boosted: it should have preempted dom0 on pcpu0 or
        // taken an idle pcpu; either way a runnable OVER dom0 remains.
        // Now block dom2 on pcpu1: pcpu1 must steal the best waiting
        // vcpu, which is whichever has higher priority.
        let ev = collect(|ev| s.vcpu_block(gv(2, 0), SimTime::from_ms(12), ev));
        let ran: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                SchedEvent::Run { pcpu, vcpu } if *pcpu == PcpuId(1) => Some(*vcpu),
                _ => None,
            })
            .collect();
        assert_eq!(ran.len(), 1, "pcpu1 must steal exactly one vcpu: {ev:?}");
        // The stolen vcpu must not leave a higher-priority vcpu waiting.
        let stolen = ran[0];
        let other = if stolen == gv(0, 0) {
            gv(1, 0)
        } else {
            gv(0, 0)
        };
        if matches!(s.vcpu_state(other), VcpuState::Runnable { .. }) {
            assert!(
                s.vcpu_prio(stolen) <= s.vcpu_prio(other),
                "stole {stolen} ({:?}) while {other} ({:?}) waits",
                s.vcpu_prio(stolen),
                s.vcpu_prio(other)
            );
        }
    }

    #[test]
    fn slice_expiry_on_idle_pcpu_is_harmless() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 1, None, None);
        let ev = collect(|ev| s.slice_expired(PcpuId(0), SimTime::from_ms(30), ev));
        assert!(ev.is_empty());
    }

    #[test]
    fn wait_accounting_survives_steals() {
        // A vcpu stolen to another pcpu keeps accumulating one contiguous
        // waiting span.
        let mut s = CreditScheduler::new(CreditConfig::default(), 2);
        s.create_domain(256, 3, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 2), SimTime::ZERO, &mut Vec::new()); // Queued somewhere.
                                                               // Block one running vcpu at 7 ms: the queued one is stolen/run.
        let running = s.running_on(PcpuId(1)).unwrap();
        s.vcpu_block(running, SimTime::from_ms(7), &mut Vec::new());
        assert_eq!(
            s.vcpu_wait_total(gv(0, 2)),
            SimDuration::from_ms(7),
            "waiting span must be contiguous across the steal"
        );
    }

    #[test]
    fn scheduled_count_tracks_placements() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.scheduled_count(gv(0, 0)), 1);
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        s.slice_expired(PcpuId(0), SimTime::from_ms(60), &mut Vec::new());
        assert_eq!(s.scheduled_count(gv(0, 0)), 2);
        assert_eq!(s.scheduled_count(gv(0, 1)), 1);
        assert!(s.switches(PcpuId(0)) >= 3);
    }

    #[test]
    fn reservation_is_respected_in_extendability() {
        let mut s = CreditScheduler::new(CreditConfig::default(), 4);
        s.create_domain(1, 4, None, Some(2.0)); // Tiny weight, 2-pCPU floor.
        s.create_domain(10_000, 4, None, None);
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        for p in 0..4 {
            s.on_tick(PcpuId(p), SimTime::from_ms(10), &mut Vec::new());
        }
        s.on_extend_tick(SimTime::from_ms(10));
        let info = s.extendability(DomId(0));
        assert!(info.ext_pcpus() >= 1.99, "reservation floor: {info:?}");
    }
}

#[cfg(test)]
mod scheduler_proptests {
    use super::*;
    use testkit::Config;
    use testkit::{bool_any, prop_assert, run_prop, tuple2, tuple3, u8_in, usize_in, vec_of};

    /// Structural invariants that must hold after every operation:
    /// - each pCPU runs at most one vCPU, and that vCPU's state agrees;
    /// - every Runnable vCPU appears in exactly one queue, exactly once;
    /// - no Running/queued vCPU is also Blocked;
    /// - run/wait totals never decrease.
    fn check_invariants(s: &CreditScheduler, doms: &[(usize, usize)]) -> Result<(), String> {
        let mut running_seen = std::collections::HashSet::new();
        for p in 0..s.n_pcpus() {
            if let Some(gv) = s.running_on(PcpuId(p)) {
                if !running_seen.insert(gv) {
                    return Err(format!("{gv} running on two pCPUs"));
                }
                match s.vcpu_state(gv) {
                    VcpuState::Running { pcpu, .. } if pcpu == PcpuId(p) => {}
                    other => return Err(format!("{gv} on pcpu{p} but state {other:?}")),
                }
            }
        }
        for &(d, nv) in doms {
            for v in 0..nv {
                let gv = GlobalVcpu::new(DomId(d), VcpuId(v));
                match s.vcpu_state(gv) {
                    VcpuState::Running { pcpu, .. } => {
                        if s.running_on(pcpu) != Some(gv) {
                            return Err(format!("{gv} claims {pcpu} but it runs someone else"));
                        }
                    }
                    VcpuState::Runnable { .. } | VcpuState::Blocked { .. } => {}
                }
            }
        }
        Ok(())
    }

    #[test]
    fn random_op_sequences_preserve_invariants() {
        let gen = tuple2(
            usize_in(1..4),
            vec_of(tuple3(u8_in(0..7), usize_in(0..8), bool_any()), 1..120),
        );
        run_prop(
            "random_op_sequences_preserve_invariants",
            Config::with_cases(64),
            &gen,
            |(n_pcpus, ops)| {
                let n_pcpus = *n_pcpus;
                let mut s = CreditScheduler::new(CreditConfig::default(), n_pcpus);
                // Two domains, 2 vCPUs each.
                let doms = [(0usize, 2usize), (1, 2)];
                s.create_domain(256, 2, None, None);
                s.create_domain(512, 2, Some(1.5), None);
                let mut t = SimTime::ZERO;
                let mut prev_run = SimDuration::ZERO;
                let mut prev_wait = SimDuration::ZERO;
                for &(kind, idx, flag) in ops {
                    t += SimDuration::from_us(500);
                    let gv = GlobalVcpu::new(DomId(idx % 2), VcpuId(idx / 2 % 2));
                    match kind {
                        0 => {
                            s.vcpu_wake(gv, t, &mut Vec::new());
                        }
                        1 => {
                            s.vcpu_block(gv, t, &mut Vec::new());
                        }
                        2 => {
                            s.vcpu_yield(gv, t, &mut Vec::new());
                        }
                        3 => {
                            s.on_tick(PcpuId(idx % n_pcpus), t, &mut Vec::new());
                        }
                        4 => {
                            s.slice_expired(PcpuId(idx % n_pcpus), t, &mut Vec::new());
                        }
                        5 => {
                            s.on_acct(t, &mut Vec::new());
                        }
                        _ => {
                            // Never freeze vcpu0 of a domain (mirrors the
                            // daemon's rule) and only via the guest path.
                            if idx / 2 % 2 == 1 {
                                s.set_frozen(gv, flag);
                            }
                        }
                    }
                    check_invariants(&s, &doms).map_err(|e| format!("after {kind}/{idx}: {e}"))?;
                    // Totals are monotone.
                    let run: SimDuration = doms
                        .iter()
                        .map(|&(d, _)| s.domain_run_total(DomId(d)))
                        .fold(SimDuration::ZERO, |a, b| a + b);
                    let wait: SimDuration = doms
                        .iter()
                        .map(|&(d, _)| s.domain_wait_total(DomId(d)))
                        .fold(SimDuration::ZERO, |a, b| a + b);
                    prop_assert!(run >= prev_run, "run total went backwards");
                    prop_assert!(wait >= prev_wait, "wait total went backwards");
                    prev_run = run;
                    prev_wait = wait;
                }
                // CPU conservation: total run time <= elapsed * pcpus.
                let elapsed = t.since(SimTime::ZERO);
                prop_assert!(prev_run <= elapsed * n_pcpus as u64 + SimDuration::from_us(1));
                Ok(())
            },
        );
    }
}
