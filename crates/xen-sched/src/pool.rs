//! The policy-independent core of a CPU pool: one [`Pool`] that every
//! scheduler backend owns.
//!
//! What a backend decides is *which* vCPU runs next. Everything around
//! that decision works the same whichever policy makes it, and lives
//! here, written once:
//!
//! - the pCPU assignment record (`current`, `run_since`, and the
//!   generation the machine uses to cancel stale slice-end timers),
//!   with [`SchedEvent::Run`] / [`SchedEvent::Desched`] emission;
//! - the per-vCPU hot record (state, last pCPU, the §4.2 freeze flag,
//!   burn point) with the backend's policy fields embedded, so one dense
//!   [`VcpuMap`] element carries everything the dispatch path touches;
//! - exact run/wait accounting and the consumption window Algorithm 1
//!   reads;
//! - the Algorithm 1 ticker that republishes every domain's
//!   extendability;
//! - the checkpoint section of all of the above.
//!
//! A backend keeps only its policy state (queues, credits, shares) and
//! calls the pool's `place`, `detach` and `burn` at its own decision
//! points. The read-only surface of
//! [`HypervisorSched`](crate::api::HypervisorSched) is provided once over
//! [`HypervisorSched::pool`](crate::api::HypervisorSched::pool).

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::snap::{SnapReader, SnapWriter};
use sim_core::soa::VcpuMap;
use sim_core::time::{SimDuration, SimTime};

use crate::credit::CreditConfig;
use crate::extend::{ExtendInfo, ExtendParams};

/// A pCPU assignment change that the embedding machine must act on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedEvent {
    /// `vcpu` now runs on `pcpu`; its slice nominally lasts
    /// [`CreditConfig::slice`] but may be cut short by a later event.
    Run {
        /// The pCPU granted.
        pcpu: PcpuId,
        /// The vCPU placed on it.
        vcpu: GlobalVcpu,
    },
    /// `vcpu` lost its pCPU (preemption, yield, slice end or block).
    Desched {
        /// The pCPU it lost.
        pcpu: PcpuId,
        /// The vCPU descheduled.
        vcpu: GlobalVcpu,
    },
    /// `pcpu` has nothing runnable and enters the idle loop.
    Idle {
        /// The idle pCPU.
        pcpu: PcpuId,
    },
}

/// Where a vCPU currently stands with respect to physical CPUs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VcpuState {
    /// Holding a pCPU since the given instant.
    Running {
        /// The pCPU it occupies.
        pcpu: PcpuId,
        /// When it was placed on the pCPU.
        since: SimTime,
    },
    /// Waiting in a pCPU's run queue since the given instant.
    Runnable {
        /// The pCPU whose queue it waits in.
        pcpu: PcpuId,
        /// When it became runnable (start of the current waiting span).
        since: SimTime,
    },
    /// Blocked in the hypervisor (guest idle / HLT / poll).
    Blocked {
        /// When it blocked.
        since: SimTime,
    },
}

/// The per-vCPU fields a backend's policy adds to the pool's hot record
/// (credit balance, priority, virtual time, ...).
pub trait VcpuPolicy {
    /// Writes the policy fields into a checkpoint.
    fn save(&self, w: &mut SnapWriter);

    /// Reads policy fields written by [`VcpuPolicy::save`].
    fn load(r: &mut SnapReader<'_>) -> Self;

    /// The credit balance a live migration carries; zero for policies
    /// without a credit notion.
    fn credit(&self) -> i64 {
        0
    }

    /// Installs a migrated credit balance; policies without a credit
    /// notion ignore it.
    fn set_credit(&mut self, credit: i64) {
        let _ = credit;
    }
}

/// Tick-hot per-vCPU state, stored densely in a [`VcpuMap`] so the
/// burn/tick/wake path streams through one contiguous array. Cold
/// lifetime statistics live in the parallel [`VcpuStats`] map and never
/// share a cache line with these fields.
#[derive(Clone, Debug)]
pub(crate) struct Vcpu<X> {
    pub(crate) state: VcpuState,
    /// Last pCPU this vCPU ran on; wakeups re-queue it there.
    pub(crate) last_pcpu: PcpuId,
    /// Frozen by the guest (`SCHEDOP_freezecpu`): off the active list.
    pub(crate) frozen: bool,
    /// Start of the unburned portion of the current run (if running).
    pub(crate) burn_from: SimTime,
    /// The backend's policy fields.
    pub(crate) policy: X,
}

/// Cold per-vCPU lifetime statistics, split off the hot state so the
/// dispatch path never pages them in (they are touched only at placement
/// and deschedule boundaries, and by metric readers).
#[derive(Clone, Debug, Default)]
pub(crate) struct VcpuStats {
    /// Accumulated runnable-but-not-running time (Figure 9 metric).
    pub(crate) wait_total: SimDuration,
    /// Accumulated run time over the vCPU's lifetime.
    pub(crate) run_total: SimDuration,
    /// Number of times this vCPU was placed on a pCPU.
    pub(crate) scheduled_count: u64,
}

/// Per-domain bookkeeping shared by every policy.
#[derive(Clone, Debug)]
pub(crate) struct Domain {
    pub(crate) weight: u32,
    /// Optional upper bound on consumption, in pCPUs (Xen `cap` / 100).
    pub(crate) cap_pcpus: Option<f64>,
    /// Optional lower bound used when clamping extendability, in pCPUs.
    pub(crate) reservation_pcpus: Option<f64>,
    /// Consumption within the current extendability window (Algorithm 1
    /// input `s_i(t)`).
    pub(crate) consumed_extend: SimDuration,
    /// Latest Algorithm 1 output, readable through the vScale channel.
    pub(crate) extend: ExtendInfo,
    /// Kick-path evictions suppressed by the kick-throttle defense on
    /// behalf of this domain's vCPUs (defense-activity counter).
    pub(crate) kicks_throttled: u64,
}

/// A pCPU's assignment: who runs there, since when, and how often it
/// changed.
#[derive(Clone, Debug, Default)]
pub(crate) struct Pcpu {
    pub(crate) current: Option<GlobalVcpu>,
    /// When the current vCPU was placed (ratelimit + slice bookkeeping).
    pub(crate) run_since: SimTime,
    /// Monotonic generation, bumped on every assignment change; lets the
    /// machine invalidate stale slice-end events.
    pub(crate) gen: u64,
    /// Context switches performed on this pCPU.
    pub(crate) switches: u64,
}

/// The policy-independent state of one CPU pool; `X` is the backend's
/// per-vCPU policy record. See the module docs.
pub struct Pool<X> {
    pub(crate) config: CreditConfig,
    pub(crate) pcpus: Vec<Pcpu>,
    pub(crate) domains: Vec<Domain>,
    /// Tick-hot per-vCPU state, dense in `(domain, vcpu)` order.
    pub(crate) hot: VcpuMap<Vcpu<X>>,
    /// Cold per-vCPU lifetime stats, parallel to `hot`.
    pub(crate) stats: VcpuMap<VcpuStats>,
    /// Start of the current extendability window.
    extend_window_start: SimTime,
    /// Seqlock-style version of the published extendability snapshots.
    pub(crate) extend_version: u64,
    /// Cross-pCPU vCPU migrations, counted by each backend the way its
    /// policy migrates (credit: steals; the others: `last_pcpu` changes).
    pub(crate) migrations: u64,
    /// Machine-wide run time in ns, maintained in [`Pool::burn`] so the
    /// watchdog's progress fingerprint is one load instead of a
    /// per-domain per-vCPU fold on the dispatch path.
    pub(crate) total_run_ns: u64,
    /// Scratch for the Algorithm 1 inputs and outputs (reused across
    /// ticks so the ticker allocates nothing in steady state).
    params_buf: Vec<ExtendParams>,
    infos_buf: Vec<ExtendInfo>,
}

impl<X> Pool<X> {
    /// An empty pool of `n_pcpus` physical CPUs.
    pub(crate) fn new(config: CreditConfig, n_pcpus: usize) -> Self {
        assert!(n_pcpus > 0, "a CPU pool needs at least one pCPU");
        Pool {
            config,
            pcpus: (0..n_pcpus).map(|_| Pcpu::default()).collect(),
            domains: Vec::new(),
            hot: VcpuMap::new(),
            stats: VcpuMap::new(),
            extend_window_start: SimTime::ZERO,
            extend_version: 0,
            migrations: 0,
            total_run_ns: 0,
            params_buf: Vec::new(),
            infos_buf: Vec::new(),
        }
    }

    /// Adds a domain whose vCPUs start blocked, homed round-robin over
    /// the pCPUs, with policy fields from `policy`.
    pub(crate) fn create_domain(
        &mut self,
        weight: u32,
        n_vcpus: usize,
        cap_pcpus: Option<f64>,
        reservation_pcpus: Option<f64>,
        mut policy: impl FnMut(VcpuId) -> X,
    ) -> DomId {
        assert!(weight > 0, "domain weight must be positive");
        assert!(n_vcpus > 0, "a domain needs at least one vCPU");
        let id = DomId(self.domains.len());
        let n_pcpus = self.pcpus.len();
        let hot_id = self.hot.push_domain(n_vcpus, |v| Vcpu {
            state: VcpuState::Blocked {
                since: SimTime::ZERO,
            },
            last_pcpu: PcpuId(v.index() % n_pcpus),
            frozen: false,
            burn_from: SimTime::ZERO,
            policy: policy(v),
        });
        let stats_id = self.stats.push_domain(n_vcpus, |_| VcpuStats::default());
        debug_assert_eq!((hot_id, stats_id), (id, id));
        self.domains.push(Domain {
            weight,
            cap_pcpus,
            reservation_pcpus,
            consumed_extend: SimDuration::ZERO,
            extend: ExtendInfo::initial(n_vcpus),
            kicks_throttled: 0,
        });
        id
    }

    /// Accounts the run time of the vCPU on `pcpu` since its last burn
    /// point and returns it with the time it ran, so the backend can
    /// charge its policy; `None` when the pCPU is empty or no time
    /// passed.
    #[inline]
    pub(crate) fn burn(&mut self, pcpu: PcpuId, now: SimTime) -> Option<(GlobalVcpu, SimDuration)> {
        let gv = self.pcpus[pcpu.index()].current?;
        let v = &mut self.hot[gv];
        let ran = now.since(v.burn_from);
        if ran.is_zero() {
            return None;
        }
        v.burn_from = now;
        self.stats[gv].run_total += ran;
        self.domains[gv.dom.index()].consumed_extend += ran;
        self.total_run_ns += ran.as_ns();
        Some((gv, ran))
    }

    /// Places `gv` on the empty `pcpu`: ends its waiting span, emits
    /// [`SchedEvent::Run`] and bumps the pCPU's generation. Returns
    /// whether `gv` last ran on a different pCPU.
    pub(crate) fn place(
        &mut self,
        gv: GlobalVcpu,
        pcpu: PcpuId,
        now: SimTime,
        events: &mut Vec<SchedEvent>,
    ) -> bool {
        debug_assert!(self.pcpus[pcpu.index()].current.is_none());
        let v = &mut self.hot[gv];
        if let VcpuState::Runnable { since, .. } = v.state {
            self.stats[gv].wait_total += now.since(since);
        }
        let moved = v.last_pcpu != pcpu;
        v.state = VcpuState::Running { pcpu, since: now };
        v.last_pcpu = pcpu;
        v.burn_from = now;
        self.stats[gv].scheduled_count += 1;
        let p = &mut self.pcpus[pcpu.index()];
        p.current = Some(gv);
        p.run_since = now;
        p.gen += 1;
        p.switches += 1;
        events.push(SchedEvent::Run { pcpu, vcpu: gv });
        moved
    }

    /// Takes the running vCPU off `pcpu`, emitting
    /// [`SchedEvent::Desched`] and bumping the generation. The caller
    /// burns first and sets the vCPU's new state.
    pub(crate) fn detach(
        &mut self,
        pcpu: PcpuId,
        events: &mut Vec<SchedEvent>,
    ) -> Option<GlobalVcpu> {
        let p = &mut self.pcpus[pcpu.index()];
        let gv = p.current.take()?;
        p.gen += 1;
        events.push(SchedEvent::Desched { pcpu, vcpu: gv });
        Some(gv)
    }

    /// A pCPU that runs nothing: `home` if it is one, else the lowest
    /// index.
    pub(crate) fn idle_pcpu_near(&self, home: PcpuId) -> Option<PcpuId> {
        if self.pcpus[home.index()].current.is_none() {
            return Some(home);
        }
        self.pcpus
            .iter()
            .position(|p| p.current.is_none())
            .map(PcpuId)
    }

    /// The vScale ticker (`vscale_ticker_fn`): recomputes every SMP
    /// domain's CPU extendability from consumption over the window since
    /// the previous call and republishes it. The backend burns every
    /// pCPU up to `now` first, so consumption is current.
    pub(crate) fn republish_extend(&mut self, now: SimTime) {
        let window = now.since(self.extend_window_start);
        self.extend_window_start = now;
        if window.is_zero() {
            return;
        }
        let mut params = std::mem::take(&mut self.params_buf);
        let mut infos = std::mem::take(&mut self.infos_buf);
        params.clear();
        params.extend(self.domains.iter().enumerate().map(|(di, d)| ExtendParams {
            weight: d.weight,
            consumed: d.consumed_extend,
            cap_pcpus: d.cap_pcpus,
            reservation_pcpus: d.reservation_pcpus,
            n_vcpus: self.hot.n_vcpus(DomId(di)),
        }));
        crate::extend::compute_extendability_into(
            &params,
            self.pcpus.len(),
            window,
            now,
            &mut infos,
        );
        self.params_buf = params;
        for (d, info) in self.domains.iter_mut().zip(&infos) {
            d.consumed_extend = SimDuration::ZERO;
            d.extend = *info;
        }
        self.infos_buf = infos;
        // Seqlock-style publication counter: readers compare the version
        // they consumed against this to detect stale serves, and a torn
        // serve (fields mixed across versions) fails snapshot validation.
        self.extend_version += 1;
    }
}

impl<X: VcpuPolicy> Pool<X> {
    /// Serializes all mutable pool state. The configuration and the
    /// pCPU/domain/vCPU populations are structural: restore targets a
    /// pool built the same way and asserts they match.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        let Pool {
            config: _,
            pcpus,
            domains,
            hot,
            stats,
            extend_window_start,
            extend_version,
            migrations,
            total_run_ns,
            params_buf: _,
            infos_buf: _,
        } = self;
        w.section("pool");
        w.seq(pcpus.iter(), |w, p| {
            w.opt(p.current.as_ref(), |w, gv| save_gv(w, *gv));
            w.time(p.run_since);
            w.u64(p.gen);
            w.u64(p.switches);
        });
        w.seq(domains.iter(), |w, d| {
            w.u32(d.weight);
            w.opt(d.cap_pcpus.as_ref(), |w, v| w.f64(*v));
            w.opt(d.reservation_pcpus.as_ref(), |w, v| w.f64(*v));
            w.dur(d.consumed_extend);
            d.extend.save(w);
            w.u64(d.kicks_throttled);
        });
        w.seq(hot.values().iter(), |w, v| {
            save_vcpu_state(w, v.state);
            w.usize(v.last_pcpu.index());
            w.bool(v.frozen);
            w.time(v.burn_from);
            v.policy.save(w);
        });
        w.seq(stats.values().iter(), |w, s| {
            w.dur(s.wait_total);
            w.dur(s.run_total);
            w.u64(s.scheduled_count);
        });
        w.time(*extend_window_start);
        w.u64(*extend_version);
        w.u64(*migrations);
        w.u64(*total_run_ns);
    }

    /// Restores state saved by [`Pool::save`] into a structurally
    /// identical pool.
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) {
        r.section("pool");
        let pcpus = r.seq(|r| Pcpu {
            current: r.opt(load_gv),
            run_since: r.time(),
            gen: r.u64(),
            switches: r.u64(),
        });
        assert_eq!(pcpus.len(), self.pcpus.len(), "pCPU count drifted");
        self.pcpus = pcpus;
        let domains = r.seq(|r| Domain {
            weight: r.u32(),
            cap_pcpus: r.opt(|r| r.f64()),
            reservation_pcpus: r.opt(|r| r.f64()),
            consumed_extend: r.dur(),
            extend: ExtendInfo::load(r),
            kicks_throttled: r.u64(),
        });
        assert_eq!(domains.len(), self.domains.len(), "domain count drifted");
        self.domains = domains;
        let hot = r.seq(|r| Vcpu {
            state: load_vcpu_state(r),
            last_pcpu: PcpuId(r.usize()),
            frozen: r.bool(),
            burn_from: r.time(),
            policy: X::load(r),
        });
        assert_eq!(hot.len(), self.hot.len(), "vCPU count drifted");
        for (dst, src) in self.hot.values_mut().iter_mut().zip(hot) {
            *dst = src;
        }
        let stats = r.seq(|r| VcpuStats {
            wait_total: r.dur(),
            run_total: r.dur(),
            scheduled_count: r.u64(),
        });
        assert_eq!(stats.len(), self.stats.len(), "vCPU count drifted");
        for (dst, src) in self.stats.values_mut().iter_mut().zip(stats) {
            *dst = src;
        }
        self.extend_window_start = r.time();
        self.extend_version = r.u64();
        self.migrations = r.u64();
        self.total_run_ns = r.u64();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint codec helpers, shared with the backends' policy sections.
// ---------------------------------------------------------------------------

/// Serializes a [`GlobalVcpu`] (domain index + in-domain vCPU index).
pub(crate) fn save_gv(w: &mut SnapWriter, gv: GlobalVcpu) {
    w.usize(gv.dom.index());
    w.usize(gv.vcpu.index());
}

/// Reads a [`GlobalVcpu`] written by [`save_gv`].
pub(crate) fn load_gv(r: &mut SnapReader<'_>) -> GlobalVcpu {
    let dom = DomId(r.usize());
    GlobalVcpu::new(dom, VcpuId(r.usize()))
}

/// Serializes a [`VcpuState`] as a tag byte plus fields.
fn save_vcpu_state(w: &mut SnapWriter, s: VcpuState) {
    match s {
        VcpuState::Running { pcpu, since } => {
            w.u8(0);
            w.usize(pcpu.index());
            w.time(since);
        }
        VcpuState::Runnable { pcpu, since } => {
            w.u8(1);
            w.usize(pcpu.index());
            w.time(since);
        }
        VcpuState::Blocked { since } => {
            w.u8(2);
            w.time(since);
        }
    }
}

/// Reads a [`VcpuState`] written by [`save_vcpu_state`].
fn load_vcpu_state(r: &mut SnapReader<'_>) -> VcpuState {
    match r.u8() {
        0 => VcpuState::Running {
            pcpu: PcpuId(r.usize()),
            since: r.time(),
        },
        1 => VcpuState::Runnable {
            pcpu: PcpuId(r.usize()),
            since: r.time(),
        },
        2 => VcpuState::Blocked { since: r.time() },
        t => panic!("unknown VcpuState tag {t}"),
    }
}
