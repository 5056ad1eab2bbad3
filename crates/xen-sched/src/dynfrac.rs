//! A dynamic-fractional scheduler backend (à la Casanova et al.'s DFRS).
//!
//! Instead of discrete credits, every domain holds a *continuous CPU
//! share* recomputed each accounting epoch from the weights of the
//! domains that currently have runnable work:
//!
//! ```text
//! share_d    = weight_d / Σ weight_over_runnable_domains
//! frac_vcpu  = share_d · n_pcpus / active_vcpus_d      (capped at 1.0)
//! ```
//!
//! `active_vcpus_d` counts unfrozen, non-blocked vCPUs — the vScale §4.2
//! hook: freezing a vCPU immediately concentrates the domain's share on
//! the survivors instead of leaving a slot of it stranded.
//!
//! Dispatch is fair-queuing over those fractions: each vCPU accumulates
//! *virtual time* at `1/frac` of wall rate while running, and pick-next
//! takes the runnable vCPU with the smallest virtual time from one
//! global queue (earliest-woken among ties). A single global queue makes
//! the policy work-conserving by construction — any idle pCPU serves the
//! global minimum — at the cost of more cross-pCPU migrations than the
//! runqueue-homed backends; migrations are counted, not hidden.
//!
//! Wakers re-enter at `max(own vruntime, pool minimum)` so a long sleep
//! does not bank unbounded virtual-time arrears (the CFS sleeper rule).
//! Caps and reservations bound extendability (Algorithm 1) exactly as in
//! the credit backend.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId};
use sim_core::snap::{SnapReader, SnapWriter};
use sim_core::time::SimTime;

use crate::api::HypervisorSched;
use crate::credit::CreditConfig;
use crate::pool::{load_gv, save_gv, Pool, SchedEvent, VcpuPolicy, VcpuState};

/// Preemption granularity: a waiting vCPU preempts only when it trails
/// the running one's virtual time by at least this much.
const GRAIN_NS: u64 = 1_000_000;

/// The dynamic-fractional policy's per-vCPU fields, embedded in the
/// pool's hot per-vCPU record.
#[derive(Clone, Debug)]
pub struct DynFracVcpu {
    /// Virtual time: wall run time scaled by `1000 / frac_permille`.
    vruntime_ns: u64,
    /// This vCPU's CPU fraction in permille, recomputed per epoch.
    frac_permille: u32,
}

impl VcpuPolicy for DynFracVcpu {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.vruntime_ns);
        w.u32(self.frac_permille);
    }

    fn load(r: &mut SnapReader<'_>) -> Self {
        DynFracVcpu {
            vruntime_ns: r.u64(),
            frac_permille: r.u32(),
        }
    }
}

/// The dynamic-fractional scheduler: see the module docs for the policy.
pub struct DynFracScheduler {
    pool: Pool<DynFracVcpu>,
    /// One global runnable queue in wake order; pick-next scans for the
    /// minimum virtual time.
    runnable: Vec<GlobalVcpu>,
    /// Share-recomputation epochs performed (a DynFrac-specific stat).
    epochs: u64,
}

impl DynFracScheduler {
    /// Creates a scheduler managing `n_pcpus` physical CPUs.
    pub fn new(config: CreditConfig, n_pcpus: usize) -> Self {
        DynFracScheduler {
            pool: Pool::new(config, n_pcpus),
            runnable: Vec::new(),
            epochs: 0,
        }
    }

    /// Share-recomputation epochs performed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The current fraction of `gv` in permille (for tests).
    pub fn frac_permille(&self, gv: GlobalVcpu) -> u32 {
        self.pool.hot[gv].policy.frac_permille
    }

    /// The virtual time of `gv` (for tests).
    pub fn vruntime_ns(&self, gv: GlobalVcpu) -> u64 {
        self.pool.hot[gv].policy.vruntime_ns
    }

    /// Advances virtual time of the vCPU on `pcpu` at `1/frac` of wall
    /// rate since the last burn point.
    fn burn(&mut self, pcpu: PcpuId, now: SimTime) {
        let Some((gv, ran)) = self.pool.burn(pcpu, now) else {
            return;
        };
        let v = &mut self.pool.hot[gv].policy;
        v.vruntime_ns += ran.as_ns() * 1000 / u64::from(v.frac_permille.max(1));
    }

    fn burn_all(&mut self, now: SimTime) {
        for p in 0..self.pool.pcpus.len() {
            self.burn(PcpuId(p), now);
        }
    }

    /// Index (within `runnable`) of the minimum-vruntime vCPU, earliest
    /// wake among ties.
    fn min_runnable(&self) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (i, &gv) in self.runnable.iter().enumerate() {
            let vr = self.vruntime_ns(gv);
            if best.map(|(_, bvr)| vr < bvr).unwrap_or(true) {
                best = Some((i, vr));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The minimum virtual time over running and runnable vCPUs (the
    /// sleeper re-entry floor).
    fn pool_min_vruntime(&self) -> Option<u64> {
        let running = self.pool.pcpus.iter().filter_map(|p| p.current);
        running
            .chain(self.runnable.iter().copied())
            .map(|gv| self.vruntime_ns(gv))
            .min()
    }

    /// Places `gv` on the empty `pcpu`, counting a migration when it
    /// last ran elsewhere.
    fn place(&mut self, gv: GlobalVcpu, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pool.place(gv, pcpu, now, events) {
            self.pool.migrations += 1;
        }
    }

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
                self.runnable.push(gv);
            }
        }
    }

    /// Fills an empty `pcpu` with the global minimum-vruntime runnable
    /// vCPU, or declares it idle.
    fn reschedule(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        if self.pool.pcpus[pcpu.index()].current.is_some() {
            return;
        }
        let Some(idx) = self.min_runnable() else {
            events.push(SchedEvent::Idle { pcpu });
            return;
        };
        let gv = self.runnable.remove(idx);
        self.place(gv, pcpu, now, events);
    }

    /// Preempts `pcpu` when the best waiter trails the running vCPU's
    /// virtual time by at least the granularity.
    fn maybe_preempt(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        let Some(cur) = self.pool.pcpus[pcpu.index()].current else {
            self.reschedule(pcpu, now, events);
            return;
        };
        let Some(idx) = self.min_runnable() else {
            return;
        };
        let challenger = self.runnable[idx];
        if self.vruntime_ns(challenger) + GRAIN_NS < self.vruntime_ns(cur) {
            self.deschedule_current(pcpu, now, true, events);
            self.reschedule(pcpu, now, events);
        }
    }

    /// Recomputes every vCPU's fraction from the weights of domains with
    /// runnable work (the continuous-share epoch).
    fn recompute_shares(&mut self) {
        let pool = &mut self.pool;
        let n_pcpus = pool.pcpus.len() as u64;
        let weight_sum: u64 = pool
            .domains
            .iter()
            .enumerate()
            .filter(|(di, _)| {
                pool.hot
                    .domain(DomId(*di))
                    .iter()
                    .any(|v| !matches!(v.state, VcpuState::Blocked { .. }))
            })
            .map(|(_, d)| u64::from(d.weight))
            .sum();
        for (di, d) in pool.domains.iter().enumerate() {
            let vcpus = pool.hot.domain_mut(DomId(di));
            let active = vcpus
                .iter()
                .filter(|v| !v.frozen && !matches!(v.state, VcpuState::Blocked { .. }))
                .count() as u64;
            let frac = if weight_sum == 0 || active == 0 {
                1000
            } else {
                // share · n_pcpus / active_vcpus, in permille, capped at
                // a full CPU.
                (u64::from(d.weight) * n_pcpus * 1000 / (weight_sum * active)).clamp(1, 1000)
            };
            for v in vcpus {
                v.policy.frac_permille = frac as u32;
            }
        }
        self.epochs += 1;
    }
}

impl HypervisorSched for DynFracScheduler {
    type Policy = DynFracVcpu;

    fn new_pool(config: CreditConfig, n_pcpus: usize) -> Self {
        DynFracScheduler::new(config, n_pcpus)
    }

    fn backend_name() -> &'static str {
        "dynfrac"
    }

    fn pool(&self) -> &Pool<DynFracVcpu> {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut Pool<DynFracVcpu> {
        &mut self.pool
    }

    fn save(&self, w: &mut SnapWriter) {
        let DynFracScheduler {
            pool,
            runnable,
            epochs,
        } = self;
        pool.save(w);
        w.section("dynfrac");
        w.seq(runnable.iter(), |w, gv| save_gv(w, *gv));
        w.u64(*epochs);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        self.pool.load(r);
        r.section("dynfrac");
        self.runnable = r.seq(load_gv);
        self.epochs = r.u64();
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
                DynFracVcpu {
                    vruntime_ns: 0,
                    frac_permille: 1000,
                }
            })
    }

    fn on_tick(&mut self, pcpu: PcpuId, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn(pcpu, now);
        self.maybe_preempt(pcpu, now, events);
    }

    fn on_acct(&mut self, now: SimTime, events: &mut Vec<SchedEvent>) {
        self.burn_all(now);
        self.recompute_shares();
        // The epoch may have shifted fractions enough that an idle pCPU
        // (or a stale assignment) should be revisited; fill idles.
        for p in 0..self.pool.pcpus.len() {
            if self.pool.pcpus[p].current.is_none() {
                self.reschedule(PcpuId(p), now, events);
            }
        }
    }

    fn on_extend_tick(&mut self, now: SimTime) {
        self.burn_all(now);
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
        // Sleeper rule: re-enter at the pool minimum so a long block
        // does not bank unbounded arrears.
        if let Some(floor) = self.pool_min_vruntime() {
            let v = &mut self.pool.hot[gv].policy;
            v.vruntime_ns = v.vruntime_ns.max(floor);
        }
        let home = self.pool.hot[gv].last_pcpu;
        self.pool.hot[gv].state = VcpuState::Runnable {
            pcpu: home,
            since: now,
        };
        self.runnable.push(gv);
        // Serve an idle pCPU right away (the woken vCPU's home first).
        match self.pool.idle_pcpu_near(home) {
            Some(p) => self.reschedule(p, now, events),
            None => self.maybe_preempt(home, now, events),
        }
    }

    fn vcpu_block(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        match self.pool.hot[gv].state {
            VcpuState::Running { pcpu, .. } => {
                self.deschedule_current(pcpu, now, false, events);
                self.pool.hot[gv].state = VcpuState::Blocked { since: now };
                self.reschedule(pcpu, now, events);
            }
            VcpuState::Runnable { .. } => {
                self.runnable.retain(|&q| q != gv);
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
        // Charge one granularity of virtual time so yield loops rotate.
        self.pool.hot[gv].policy.vruntime_ns += GRAIN_NS;
        self.reschedule(pcpu, now, events);
    }

    fn kick_vcpu(&mut self, gv: GlobalVcpu, now: SimTime, events: &mut Vec<SchedEvent>) {
        if matches!(self.pool.hot[gv].state, VcpuState::Blocked { .. }) {
            self.vcpu_wake(gv, now, events);
        }
        // Urgent: if still only queued, evict the home pCPU's current
        // and run the target now, granularity notwithstanding — unless
        // the kick-throttle defense protects a freshly placed occupant.
        if let VcpuState::Runnable { pcpu, .. } = self.pool.hot[gv].state {
            let p = &self.pool.pcpus[pcpu.index()];
            if self.pool.config.kick_throttle
                && p.current.is_some()
                && now.since(p.run_since) < self.pool.config.ratelimit
            {
                self.pool.domains[gv.dom.index()].kicks_throttled += 1;
                return;
            }
            self.runnable.retain(|&q| q != gv);
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

    fn sched(n_pcpus: usize) -> DynFracScheduler {
        DynFracScheduler::new(CreditConfig::default(), n_pcpus)
    }

    #[test]
    fn shares_split_by_weight_and_active_vcpus() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        s.create_domain(256, 2, None, None);
        for d in 0..2 {
            for v in 0..2 {
                s.vcpu_wake(gv(d, v), SimTime::ZERO, &mut Vec::new());
            }
        }
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        // Equal weights, 2 pCPUs, 2 active vCPUs each: every vCPU gets
        // half a CPU.
        assert_eq!(s.frac_permille(gv(0, 0)), 500);
        assert_eq!(s.frac_permille(gv(1, 1)), 500);
    }

    #[test]
    fn freezing_concentrates_the_share() {
        let mut s = sched(2);
        s.create_domain(256, 2, None, None);
        s.create_domain(256, 2, None, None);
        for d in 0..2 {
            for v in 0..2 {
                s.vcpu_wake(gv(d, v), SimTime::ZERO, &mut Vec::new());
            }
        }
        // Freeze + block dom0's second vCPU (the Algorithm 2 split).
        s.set_frozen(gv(0, 1), true);
        s.vcpu_block(gv(0, 1), SimTime::from_ms(1), &mut Vec::new());
        s.on_acct(SimTime::from_ms(30), &mut Vec::new());
        // dom0's whole share now rides its single active vCPU.
        assert_eq!(s.frac_permille(gv(0, 0)), 1000);
        assert_eq!(s.frac_permille(gv(1, 0)), 500);
    }

    #[test]
    fn pick_next_takes_minimum_vruntime() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // vcpu0 runs 30 ms, accumulating vruntime; on expiry vcpu1 (at
        // the floor) must win.
        s.slice_expired(PcpuId(0), SimTime::from_ms(30), &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 1)));
        assert!(s.vruntime_ns(gv(0, 0)) > s.vruntime_ns(gv(0, 1)));
    }

    #[test]
    fn work_conserving_single_global_queue() {
        let mut s = sched(2);
        s.create_domain(256, 3, None, None);
        for v in 0..3 {
            s.vcpu_wake(gv(0, v), SimTime::ZERO, &mut Vec::new());
        }
        // Both pCPUs busy, one queued. Block a runner: the queued vCPU
        // must take the freed pCPU immediately.
        let on1 = s.running_on(PcpuId(1)).unwrap();
        s.vcpu_block(on1, SimTime::from_ms(1), &mut Vec::new());
        assert!(s.running_on(PcpuId(1)).is_some(), "must not idle");
    }

    #[test]
    fn sleeper_reenters_at_pool_minimum() {
        let mut s = sched(1);
        s.create_domain(256, 2, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        s.vcpu_block(gv(0, 1), SimTime::ZERO, &mut Vec::new());
        // vcpu0 runs alone for 200 ms; the sleeper must not re-enter
        // with a 200 ms virtual-time lead.
        s.on_tick(PcpuId(0), SimTime::from_ms(200), &mut Vec::new());
        s.vcpu_wake(gv(0, 1), SimTime::from_ms(200), &mut Vec::new());
        let lead = s.vruntime_ns(gv(0, 0)) as i64 - s.vruntime_ns(gv(0, 1)) as i64;
        assert!(
            lead.unsigned_abs() <= s.vruntime_ns(gv(0, 0)),
            "sleeper floored at pool minimum"
        );
        assert!(
            s.vruntime_ns(gv(0, 1)) >= s.vruntime_ns(gv(0, 0)).saturating_sub(GRAIN_NS),
            "woken vCPU re-enters near the runner, not 200 ms behind: {} vs {}",
            s.vruntime_ns(gv(0, 1)),
            s.vruntime_ns(gv(0, 0)),
        );
    }

    #[test]
    fn kick_places_target_immediately() {
        let mut s = sched(1);
        s.create_domain(256, 1, None, None);
        s.create_domain(256, 1, None, None);
        s.vcpu_wake(gv(0, 0), SimTime::ZERO, &mut Vec::new());
        s.vcpu_wake(gv(1, 0), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(0, 0)));
        s.kick_vcpu(gv(1, 0), SimTime::from_us(100), &mut Vec::new());
        assert_eq!(s.running_on(PcpuId(0)), Some(gv(1, 0)));
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
