//! A Credit2-style scheduler backend.
//!
//! Xen's Credit2 (the default since Xen 4.8) replaced the three fixed
//! priority bands of the credit scheduler with a single credit-ordered
//! runqueue per pCPU, bulk *credit-reset epochs* instead of per-30 ms
//! redistribution, and weight-scaled burn rates. This backend models that
//! shape behind [`HypervisorSched`]:
//!
//! - **Per-pCPU runqueues ordered by credit**: pick-next takes the
//!   queued vCPU with the most credits (FIFO among ties, so replay is
//!   deterministic).
//! - **Weight-scaled burn**: a vCPU burns credits at `256/weight` of
//!   wall rate, so a weight-512 vCPU outlasts a weight-128 one 4:1 on
//!   the same runqueue — proportional share emerges from burn rates,
//!   not periodic redistribution.
//! - **Credit-reset epochs**: when the best runnable candidate is out of
//!   credits, every vCPU in the pool is shifted so the candidate is back
//!   at the initial grant — relative order (and thus fairness memory)
//!   is preserved, and the epoch counter bumps.
//! - **Load-balancing migration**: the accounting epoch levels runqueue
//!   lengths by migrating queued vCPUs from the longest to the shortest
//!   queue; idle pCPUs also steal on demand, so the policy is
//!   work-conserving like the other backends.
//!
//! Caps and reservations bound extendability (Algorithm 1) exactly as in
//! the credit backend, but this model does not enforce caps: a capped
//! domain is never parked, and the balancer does not read the cap. Freezing
//! follows the vScale §4.2 split: [`Credit2Scheduler::set_frozen`] only
//! changes accounting (a frozen vCPU stops counting toward the domain's
//! active share), while the guest blocks the vCPU separately.

use std::collections::VecDeque;

use sim_core::ids::{DomId, GlobalVcpu, PcpuId};
use sim_core::snap::{SnapReader, SnapWriter};
use sim_core::time::SimTime;

use crate::api::HypervisorSched;
use crate::credit::CreditConfig;
use crate::pool::{load_gv, save_gv, Pool, SchedEvent, VcpuPolicy, VcpuState};

/// Initial credit grant (and the reset target): 10 ms of wall time at
/// the reference weight.
const CREDIT_INIT_NS: i64 = 10_000_000;
/// Reference weight: a vCPU of this weight burns credits at wall rate.
const WEIGHT_REF: u64 = 256;
/// A waking/waiting vCPU preempts only when it leads the running one by
/// at least this many credits, bounding context-switch churn.
const PREEMPT_GRAIN_NS: i64 = 500_000;
/// Credit penalty for a voluntary yield, so yield loops make progress.
const YIELD_BIAS_NS: i64 = 100_000;

/// The Credit2 policy's per-vCPU fields, embedded in the pool's hot
/// per-vCPU record.
#[derive(Clone, Debug)]
pub struct Credit2Vcpu {
    credits_ns: i64,
}

impl VcpuPolicy for Credit2Vcpu {
    fn save(&self, w: &mut SnapWriter) {
        w.i64(self.credits_ns);
    }

    fn load(r: &mut SnapReader<'_>) -> Self {
        Credit2Vcpu {
            credits_ns: r.i64(),
        }
    }

    fn credit(&self) -> i64 {
        self.credits_ns
    }

    fn set_credit(&mut self, credit: i64) {
        self.credits_ns = credit;
    }
}

/// The Credit2-style scheduler: see the module docs for the policy.
pub struct Credit2Scheduler {
    pool: Pool<Credit2Vcpu>,
    /// Per-pCPU runqueues of the vCPUs homed there; pick-next scans for
    /// max credit, FIFO among ties.
    runqs: Vec<VecDeque<GlobalVcpu>>,
    /// Credit-reset epochs performed so far.
    reset_epochs: u64,
}

impl Credit2Scheduler {
    /// Creates a scheduler managing `n_pcpus` physical CPUs.
    pub fn new(config: CreditConfig, n_pcpus: usize) -> Self {
        Credit2Scheduler {
            pool: Pool::new(config, n_pcpus),
            runqs: vec![VecDeque::new(); n_pcpus],
            reset_epochs: 0,
        }
    }

    /// Credit-reset epochs performed so far (a Credit2-specific stat).
    pub fn reset_epochs(&self) -> u64 {
        self.reset_epochs
    }

    /// Current credits of `gv` (for tests).
    pub fn credits_ns(&self, gv: GlobalVcpu) -> i64 {
        self.pool.hot[gv].policy.credits_ns
    }

    /// Burns credits of the vCPU running on `pcpu` at `256/weight` of
    /// wall rate since the last burn point.
    fn burn(&mut self, pcpu: PcpuId, now: SimTime) {
        let Some((gv, ran)) = self.pool.burn(pcpu, now) else {
            return;
        };
        let weight = u64::from(self.pool.domains[gv.dom.index()].weight.max(1));
        self.pool.hot[gv].policy.credits_ns -= (ran.as_ns() * WEIGHT_REF / weight) as i64;
    }

    /// Index (within `runq`) of the best candidate: max credits, FIFO
    /// among ties.
    fn best_in(&self, pcpu: PcpuId) -> Option<usize> {
        let mut best: Option<(usize, i64)> = None;
        for (i, &gv) in self.runqs[pcpu.index()].iter().enumerate() {
            let c = self.credits_ns(gv);
            if best.map(|(_, bc)| c > bc).unwrap_or(true) {
                best = Some((i, c));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Shifts every vCPU's credits so `anchor` is back at the initial
    /// grant; relative order is preserved.
    fn credit_reset(&mut self, anchor: GlobalVcpu) {
        let shift = CREDIT_INIT_NS - self.credits_ns(anchor);
        for v in self.pool.hot.values_mut() {
            v.policy.credits_ns += shift;
        }
        self.reset_epochs += 1;
    }

    /// Places `gv` on the empty `pcpu`, counting a migration when it
    /// last ran elsewhere.
    fn place(&mut self, gv: GlobalVcpu, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pool.place(gv, pcpu, now, events) {
            self.pool.migrations += 1;
        }
    }

    /// Removes the running vCPU from `pcpu` (burning first). If
    /// `requeue`, it goes back to this pCPU's runqueue; otherwise the
    /// caller sets its state.
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
                self.pool.hot[gv].state = VcpuState::Runnable { pcpu, since: now };
                self.runqs[pcpu.index()].push_back(gv);
            }
        }
    }

    /// Fills an empty `pcpu`: best local candidate, else steal from the
    /// longest peer runqueue, else idle. Performs a credit-reset epoch
    /// when the winning candidate is out of credits.
    fn reschedule(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pool.pcpus[pcpu.index()].current.is_some() {
            return;
        }
        let local = self.best_in(pcpu).map(|i| (pcpu, i));
        let found = local.or_else(|| {
            // Steal from the peer with the longest runqueue.
            let victim = self
                .runqs
                .iter()
                .enumerate()
                .filter(|(i, q)| PcpuId(*i) != pcpu && !q.is_empty())
                .max_by_key(|(i, q)| (q.len(), usize::MAX - *i))
                .map(|(i, _)| PcpuId(i))?;
            self.best_in(victim).map(|i| (victim, i))
        });
        let Some((home, idx)) = found else {
            events.push(SchedEvent::Idle { pcpu });
            return;
        };
        let gv = self.runqs[home.index()].remove(idx).expect("indexed");
        if self.credits_ns(gv) <= 0 {
            self.credit_reset(gv);
        }
        self.place(gv, pcpu, now, events);
    }

    /// Preempts `pcpu` if a queued local vCPU leads the running one by
    /// the preemption grain.
    fn maybe_preempt(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        let Some(cur) = self.pool.pcpus[pcpu.index()].current else {
            self.reschedule(pcpu, now, events);
            return;
        };
        let Some(best) = self.best_in(pcpu) else {
            return;
        };
        let challenger = self.runqs[pcpu.index()][best];
        if self.credits_ns(challenger) > self.credits_ns(cur) + PREEMPT_GRAIN_NS {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }
}

impl HypervisorSched for Credit2Scheduler {
    type Policy = Credit2Vcpu;

    fn new_pool(config: CreditConfig, n_pcpus: usize) -> Self {
        Credit2Scheduler::new(config, n_pcpus)
    }

    fn backend_name() -> &'static str {
        "credit2"
    }

    fn pool(&self) -> &Pool<Credit2Vcpu> {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut Pool<Credit2Vcpu> {
        &mut self.pool
    }

    fn save(&self, w: &mut SnapWriter) {
        let Credit2Scheduler {
            pool,
            runqs,
            reset_epochs,
        } = self;
        pool.save(w);
        w.section("credit2");
        w.seq(runqs.iter(), |w, q| {
            w.seq(q.iter(), |w, gv| save_gv(w, *gv))
        });
        w.u64(*reset_epochs);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        self.pool.load(r);
        r.section("credit2");
        let runqs = r.seq(|r| r.seq(load_gv).into());
        assert_eq!(runqs.len(), self.runqs.len(), "pCPU count drifted");
        self.runqs = runqs;
        self.reset_epochs = r.u64();
    }

    fn create_domain(
        &mut self,
        weight: u32,
        n_vcpus: usize,
        cap_pcpus: Option<f64>,
        reservation_pcpus: Option<f64>,
    ) -> DomId {
        self.pool
            .create_domain(weight, n_vcpus, cap_pcpus, reservation_pcpus, |_| {
                Credit2Vcpu {
                    credits_ns: CREDIT_INIT_NS,
                }
            })
    }

    fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn(pcpu, now);
        self.maybe_preempt(pcpu, now, events);
    }

    fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        for p in 0..self.runqs.len() {
            self.burn(PcpuId(p), now);
        }
        // Level runqueue lengths: migrate the tail of the longest queue
        // to the shortest until they differ by at most one.
        loop {
            let (mut longest, mut shortest) = (0, 0);
            for (i, q) in self.runqs.iter().enumerate() {
                if q.len() > self.runqs[longest].len() {
                    longest = i;
                }
                if q.len() < self.runqs[shortest].len() {
                    shortest = i;
                }
            }
            if self.runqs[longest].len() - self.runqs[shortest].len() < 2 {
                break;
            }
            let gv = self.runqs[longest].pop_back().expect("len>=2");
            let v = &mut self.pool.hot[gv];
            if let VcpuState::Runnable { since, .. } = v.state {
                v.state = VcpuState::Runnable {
                    pcpu: PcpuId(shortest),
                    since,
                };
            }
            v.last_pcpu = PcpuId(shortest);
            self.runqs[shortest].push_back(gv);
            self.pool.migrations += 1;
        }
        // Fill any pCPU the balance pass left idle next to queued work.
        for p in 0..self.runqs.len() {
            if self.pool.pcpus[p].current.is_none() {
                self.reschedule(PcpuId(p), now, events);
            }
        }
    }

    fn on_extend_tick(&mut self, now: SimTime) {
        for p in 0..self.runqs.len() {
            self.burn(PcpuId(p), now);
        }
        self.pool.republish_extend(now);
    }

    fn slice_expired(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.deschedule_current(pcpu, now, true, events);
        self.reschedule(pcpu, now, events);
    }

    fn vcpu_wake(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if !matches!(self.pool.hot[gv].state, VcpuState::Blocked { .. }) {
            return;
        }
        // An idle pCPU (its last one first), falling back to its last.
        let last = self.pool.hot[gv].last_pcpu;
        let target = self.pool.idle_pcpu_near(last).unwrap_or(last);
        self.pool.hot[gv].state = VcpuState::Runnable {
            pcpu: target,
            since: now,
        };
        self.runqs[target.index()].push_back(gv);
        self.maybe_preempt(target, now, events);
    }

    fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.pool.hot[gv].state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.pool.hot[gv].state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { pcpu, .. } => {
                self.runqs[pcpu.index()].retain(|&q| q != gv);
                self.pool.hot[gv].state = VcpuState::Blocked { since: now };
            }
            VcpuState::Blocked { .. } => {}
        }
    }

    fn vcpu_yield(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        let VcpuState::Running { pcpu, .. } = self.pool.hot[gv].state else {
            return;
        };
        self.deschedule_current(pcpu, now, true, events);
        self.pool.hot[gv].policy.credits_ns -= YIELD_BIAS_NS;
        self.reschedule(pcpu, now, events);
    }

    fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if matches!(self.pool.hot[gv].state, VcpuState::Blocked { .. }) {
            self.vcpu_wake(gv, now, events);
        }
        // An urgent kick bypasses the preemption grain: if the target is
        // still only queued, evict its home pCPU's current and run it —
        // unless the kick-throttle defense holds the grain line against
        // a freshly placed occupant.
        if let VcpuState::Runnable { pcpu, .. } = self.pool.hot[gv].state {
            let p = &self.pool.pcpus[pcpu.index()];
            if self.pool.config.kick_throttle
                && p.current.is_some()
                && now.since(p.run_since) < self.pool.config.ratelimit
            {
                self.pool.domains[gv.dom.index()].kicks_throttled += 1;
                return;
            }
            self.runqs[pcpu.index()].retain(|&q| q != gv);
            self.deschedule_current(pcpu, now, true, events);
            self.place(gv, pcpu, now, events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::ids::VcpuId;

    fn gv(d: usize, v: usize) -> GlobalVcpu {
        GlobalVcpu::new(DomId(d), VcpuId(v))
    }

    fn collect(f: impl FnOnce(&mut Vec<SchedEvent>)) -> Vec<SchedEvent> {
        let mut ev = Vec::new();
        f(&mut ev);
        ev
    }

    fn sched(n_pcpus: usize) -> Credit2Scheduler {
        Credit2Scheduler::new(CreditConfig::default(), n_pcpus)
    }

    #[test]
    fn wake_places_on_idle_pcpu() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        let ev = collect(|ev| s.vcpu_wake(gv(0, 0), SimTime::ZERO, ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(0),
            vcpu: gv(0, 0)
        }));
        let ev = collect(|ev| s.vcpu_wake(gv(0, 1), SimTime::ZERO, ev));
        assert!(ev.contains(&SchedEvent::Run {
            pcpu: PcpuId(1),
            vcpu: gv(0, 1)
        }));
    }

    #[test]
    fn slice_expiry_rotates_queued_work() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        let ev = collect(|ev| s.slice_expired(PcpuId(0), SimTime::from_ms(30), ev));
        assert!(
            ev.contains(&SchedEvent::Run {
                pcpu: PcpuId(0),
                vcpu: gv(0, 1)
            }),
            "the waiting vCPU has full credits and must win: {ev:?}"
        );
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 1)));
    }

    #[test]
    fn higher_weight_burns_slower() {
        let mut s = sched(2);
        s.create_domain(512, 1, None, None);
        s.create_domain(128, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        s.on_tick(PcpuId(0), SimTime::from_ms(10), &mut Vec::new());
        s.on_tick(PcpuId(1), SimTime::from_ms(10), &mut Vec::new());
        let heavy_burn = CREDIT_INIT_NS - s.credits_ns(gv(0, 0));
        let light_burn = CREDIT_INIT_NS - s.credits_ns(gv(1, 0));
        assert_eq!(heavy_burn * 4, light_burn, "256/weight burn scaling");
    }

    #[test]
    fn credit_reset_epoch_preserves_order_and_counts() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // Run vcpu0 far past its grant, then expire: vcpu1 wins (more
        // credits), and once *it* is also exhausted the reset fires.
        s.slice_expired(PcpuId(0), SimTime::from_ms(25), &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 1)));
        assert_eq!(s.reset_epochs(), 0);
        s.slice_expired(PcpuId(0), SimTime::from_ms(50), &mut Vec::new());
        assert_eq!(s.reset_epochs(), 1, "picked candidate was out of credits");
        let winner = s.running_on(PcpuId(0)).expect("work conserving");
        assert_eq!(s.credits_ns(winner), CREDIT_INIT_NS, "reset anchors winner");
    }

    #[test]
    fn idle_pcpu_steals_queued_work() {
        let mut s = sched(2);
        s.create_domain(256, 3, None, None);
        // Saturate both pCPUs, queue the third vCPU.
        for v in 0..3 {
            s.vcpu_wake(gv(0, v), SimTime::ZERO, &mut Vec::new());
        }
        // Block pcpu1's runner: the queued third vCPU must be stolen in.
        let on1 = s.running_on(PcpuId(1)).unwrap();
        let ev = collect(|ev| s.vcpu_block(on1, SimTime::from_ms(1), ev));
        assert!(
            s.running_on(PcpuId(1)).is_some(),
            "work conservation: queued work exists, pcpu1 must not idle: {ev:?}"
        );
    }

    #[test]
    fn block_dequeues_and_frozen_flag_tracks() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        s.vcpu_block(gv(0, 1), SimTime::from_ms(1), &mut Vec::new());
        assert!(matches!(s.vcpu_state(gv(0, 1)), VcpuState::Blocked { .. }));
        s.set_frozen(gv(0, 1), true);
        assert!(s.is_frozen(gv(0, 1)));
        // A frozen blocked vCPU is never picked.
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
    }

    #[test]
    fn kick_preempts_immediately() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
        let ev = collect(|ev| s.kick_vcpu(gv(1, 0), SimTime::from_us(100), ev));
        assert_eq!(
            s.running_on(PcpuId(0)),
            Some(gv(1, 0)),
            "kick must place the target immediately: {ev:?}"
        );
    }

    #[test]
    fn acct_levels_runqueue_lengths() {
        let mut s = sched(2);
        s.create_domain(256, 6, None, None);
        for v in 0..6 {
            s.vcpu_wake(gv(0, v), SimTime::ZERO, &mut Vec::new());
        }
        // Whatever the wake placement did, after on_acct the queues
        // differ by at most one.
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        let l0 = s.runqs[0].len() as i64;
        let l1 = s.runqs[1].len() as i64;
        assert!((l0 - l1).abs() <= 1, "unbalanced: {l0} vs {l1}");
    }

    #[test]
    fn extend_tick_publishes_algorithm1_snapshots() {
        let mut s = sched(2);
        let dom = s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        s.on_extend_tick(SimTime::from_ms(10));
        let info = s.extendability(dom);
        assert_eq!(s.extend_version(), 1);
        assert_eq!(info.validate(), Ok(()));
        assert_eq!(info.n_opt, 2, "sole busy domain extends to both pCPUs");
    }
}
