//! Layout-equivalence goldens for the struct-of-arrays scheduler state.
//!
//! The three `HypervisorSched` backends keep their per-vCPU hot state in
//! dense parallel arrays (`sim_core::soa::VcpuMap`), split from cold
//! stats. That is meant to be a pure *layout* change: every observable —
//! the emitted `SchedEvent` stream, per-vCPU states, freeze bits, run/wait
//! totals, migrations — must be bit-identical to the pre-refactor
//! `Vec<struct>` layout.
//!
//! These checksums were captured by replaying seeded
//! `testkit::differential` op streams against the pre-refactor backends
//! and FNV-1a-folding the full observable trajectory (events + state after
//! every op). They pin the trajectory itself, not just the conserved
//! quantities the cross-backend differential tests compare, so any layout
//! refactor that perturbs scheduling behavior — a reordered fold, a
//! dropped field, an index mix-up — moves a checksum.
//!
//! To re-bless after an *intentional* behavior change, run with
//! `VSCALE_BLESS=1 cargo test -q layout -- --nocapture` and copy the
//! printed table.

use sim_core::ids::{DomId, GlobalVcpu, PcpuId, VcpuId};
use sim_core::time::{SimDuration, SimTime};
use testkit::differential::{scenario_gen, Op, Scenario};
use testkit::source::Source;
use xen_sched::credit2::Credit2Scheduler;
use xen_sched::dynfrac::DynFracScheduler;
use xen_sched::{CreditConfig, SchedEvent, VcpuState};
use xen_sched::{CreditScheduler, HypervisorSched};

/// Must match `testkit::differential::OP_STEP`.
const OP_STEP: SimDuration = SimDuration::from_us(500);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

fn fold_gv(h: &mut Fnv, gv: GlobalVcpu) {
    h.u64(gv.dom.index() as u64);
    h.u64(gv.vcpu.index() as u64);
}

fn fold_event(h: &mut Fnv, e: &SchedEvent) {
    match *e {
        SchedEvent::Run { pcpu, vcpu } => {
            h.u64(1);
            h.u64(pcpu.index() as u64);
            fold_gv(h, vcpu);
        }
        SchedEvent::Desched { pcpu, vcpu } => {
            h.u64(2);
            h.u64(pcpu.index() as u64);
            fold_gv(h, vcpu);
        }
        SchedEvent::Idle { pcpu } => {
            h.u64(3);
            h.u64(pcpu.index() as u64);
        }
    }
}

fn fold_state<S: HypervisorSched>(h: &mut Fnv, s: &S, vcpus: &[GlobalVcpu]) {
    for &gv in vcpus {
        match s.vcpu_state(gv) {
            VcpuState::Running { pcpu, since } => {
                h.u64(1);
                h.u64(pcpu.index() as u64);
                h.u64(since.as_ns());
            }
            VcpuState::Runnable { pcpu, since } => {
                h.u64(2);
                h.u64(pcpu.index() as u64);
                h.u64(since.as_ns());
            }
            VcpuState::Blocked { since } => {
                h.u64(3);
                h.u64(since.as_ns());
            }
        }
        h.u64(u64::from(s.is_frozen(gv)));
        h.u64(s.vcpu_run_total(gv).as_ns());
        h.u64(s.vcpu_wait_total(gv).as_ns());
        h.u64(s.scheduled_count(gv));
    }
    for p in 0..s.n_pcpus() {
        match s.running_on(PcpuId(p)) {
            Some(gv) => fold_gv(h, gv),
            None => h.u64(u64::MAX),
        }
        h.u64(s.switches(PcpuId(p)));
        h.u64(s.pcpu_gen(PcpuId(p)));
    }
}

/// Replays `scenario` with the same op normalization as
/// `testkit::differential::replay` and folds the full observable
/// trajectory into one checksum.
fn trajectory_checksum<S: HypervisorSched>(scenario: &Scenario) -> u64 {
    let mut vcpus = Vec::new();
    for (d, &(_, nv)) in scenario.domains.iter().enumerate() {
        for v in 0..nv {
            vcpus.push(GlobalVcpu::new(DomId(d), VcpuId(v)));
        }
    }
    let mut s = S::new_pool(CreditConfig::default(), scenario.n_pcpus);
    for &(weight, nv) in &scenario.domains {
        s.create_domain(weight, nv, None, None);
    }
    let mut h = Fnv::new();
    let mut now = SimTime::ZERO;
    let mut events = Vec::new();
    for (i, &op) in scenario.ops.iter().enumerate() {
        now += OP_STEP;
        events.clear();
        let gv = |sel: u8| vcpus[sel as usize % vcpus.len()];
        let pc = |sel: u8| PcpuId(sel as usize % scenario.n_pcpus);
        match op {
            Op::Tick(p) => s.on_tick(pc(p), now, &mut events),
            Op::Acct => s.on_acct(now, &mut events),
            Op::Slice(p) => s.slice_expired(pc(p), now, &mut events),
            Op::ExtendTick => s.on_extend_tick(now),
            Op::Wake(v) => {
                if !s.is_frozen(gv(v)) {
                    s.vcpu_wake(gv(v), now, &mut events);
                }
            }
            Op::Block(v) => s.vcpu_block(gv(v), now, &mut events),
            Op::Yield(v) => s.vcpu_yield(gv(v), now, &mut events),
            Op::Kick(v) => {
                if !s.is_frozen(gv(v)) {
                    s.kick_vcpu(gv(v), now, &mut events);
                }
            }
            Op::Freeze(v) => {
                s.set_frozen(gv(v), true);
                s.vcpu_block(gv(v), now, &mut events);
            }
            Op::Unfreeze(v) => {
                s.set_frozen(gv(v), false);
                s.vcpu_wake(gv(v), now, &mut events);
            }
            // Attack-shaped ops: never emitted by `scenario_gen` (the
            // goldens predate them) but normalized identically to
            // `testkit::differential::replay` for completeness.
            Op::SelfWake(v) => {
                if !s.is_frozen(gv(v)) {
                    s.vcpu_block(gv(v), now, &mut events);
                    s.vcpu_wake(gv(v), now, &mut events);
                }
            }
            Op::TickDodge(v) => {
                if !s.is_frozen(gv(v)) {
                    let dodged = s.where_running(gv(v));
                    s.vcpu_block(gv(v), now, &mut events);
                    if let Some(p) = dodged {
                        s.on_tick(p, now, &mut events);
                    }
                    s.vcpu_wake(gv(v), now, &mut events);
                }
            }
            Op::StormKick(v) => {
                let dom = gv(v).dom;
                for &target in vcpus.iter().filter(|t| t.dom == dom) {
                    if !s.is_frozen(target) {
                        s.kick_vcpu(target, now, &mut events);
                    }
                }
            }
            Op::FreezeThrash(v) => {
                s.set_frozen(gv(v), true);
                s.vcpu_block(gv(v), now, &mut events);
                s.set_frozen(gv(v), false);
                s.vcpu_wake(gv(v), now, &mut events);
            }
        }
        h.u64(i as u64);
        for e in &events {
            fold_event(&mut h, e);
        }
        fold_state(&mut h, &s, &vcpus);
        for d in 0..scenario.domains.len() {
            h.u64(s.domain_run_total(DomId(d)).as_ns());
            h.u64(s.domain_wait_total(DomId(d)).as_ns());
        }
    }
    h.u64(s.total_run_ns());
    h.u64(s.migrations());
    h.u64(s.extend_version());
    h.0
}

/// Seeds → pre-captured `(credit, credit2, dynfrac)` trajectory
/// checksums against the pre-SoA layout.
#[rustfmt::skip]
const GOLDEN: [(u64, u64, u64, u64); 5] = [
    (11, 0xe500396e789a1883, 0xf344d47b83afe01c, 0xf344d47b83afe01c),
    (23, 0xc28b26fe3b422bdb, 0x8613582c27df700f, 0xb1dc4f09b267bd28),
    (37, 0x06661cca29dc3d0f, 0xa0d48b73ff52e6ae, 0x0536f40e47d7c601),
    (59, 0xd95c97056a712997, 0xd5e79b5727f736d4, 0x5bfa366896da46e8),
    (101, 0x522a48e78fd9ecd5, 0x1f6a8c100a15dc3a, 0x1f6a8c100a15dc3a),
];

#[test]
fn soa_layout_preserves_scheduler_trajectories() {
    let gen = scenario_gen(60);
    let bless = std::env::var("VSCALE_BLESS").is_ok();
    for &(seed, credit, credit2, dynfrac) in &GOLDEN {
        let scenario = gen.run(&mut Source::random(seed));
        let c = trajectory_checksum::<CreditScheduler>(&scenario);
        let c2 = trajectory_checksum::<Credit2Scheduler>(&scenario);
        let df = trajectory_checksum::<DynFracScheduler>(&scenario);
        if bless {
            println!("    ({seed}, {c:#018x}, {c2:#018x}, {df:#018x}),");
            continue;
        }
        assert_eq!(
            (c, c2, df),
            (credit, credit2, dynfrac),
            "trajectory diverged from the pre-SoA layout for seed {seed} \
             ({} ops, {} pcpus, {:?} domains)",
            scenario.ops.len(),
            scenario.n_pcpus,
            scenario.domains,
        );
    }
    assert!(!bless, "bless mode prints checksums instead of asserting");
}
