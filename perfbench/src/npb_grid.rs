//! `npb_grid`: the paper's Figure 6 grid on one host at a time.
//!
//! 10 NPB apps × 4 system configurations × 3 `GOMP_SPINCOUNT` policies,
//! each cell a 4-vCPU VM beside slideshow desktops on the credit
//! backend, run serially in this thread. No cluster is involved.

use metrics::paper::fig6;
use sim_core::time::{SimDuration, SimTime};
use vscale::config::SystemConfig;
use vscale_bench::experiment::{build_host, ExperimentScale};
use workloads::npb::{self, NpbApp, NPB_APPS};
use workloads::spin::SpinPolicy;

use crate::counts::Counts;
use crate::spans::Tracer;
use crate::stats::Digest;
use crate::{sub_seeds, Mode, Repeat};

/// vCPUs of the test VM (Figure 6).
const VM_VCPUS: usize = 4;

/// A cell that has not exited by then counts as failed.
const DEADLINE: SimTime = SimTime::from_secs(120);

/// Seeds per grid pass. Like the `fig6_npb` bench, the Figure 6 error
/// is taken on seed-averaged exec times.
const SEEDS: u64 = 2;

/// The simulated window one sliced `run_until` call covers.
const WINDOW: SimDuration = SimDuration::from_ms(100);

/// The quick-scale app: iterations shortened as in the `fig6_npb` bench.
fn quick(app: NpbApp) -> NpbApp {
    NpbApp {
        iterations: ExperimentScale::Quick.iters(app.iterations),
        ..app
    }
}

/// One grid pass per seed.
pub fn run(seed: u64, mode: Mode, tr: &mut Tracer) -> Repeat {
    // No request ledger here: every cell is booked by exit or deadline.
    let mut rep = Repeat {
        conserved: true,
        ..Repeat::default()
    };
    let mut digest = Digest::new();
    let mut counts = Counts::default();
    // Active-policy exec times, [app][config], summed over the seeds.
    let mut active = vec![[0u64; 4]; NPB_APPS.len()];
    for seed in sub_seeds(seed, SEEDS) {
        for policy in SpinPolicy::ALL {
            for (ai, &app) in NPB_APPS.iter().enumerate() {
                for (ci, cfg) in SystemConfig::ALL.into_iter().enumerate() {
                    let setup = std::time::Instant::now();
                    tr.enter("setup.build");
                    let (mut m, vm, _desktops) = build_host(cfg, VM_VCPUS, seed);
                    tr.exit();
                    tr.enter("setup.install");
                    let _run = npb::install(&mut m, vm, quick(app), VM_VCPUS, policy);
                    tr.exit();
                    rep.setup_s += setup.elapsed().as_secs_f64();

                    let exited = if mode.sliced {
                        let mut to = SimTime::ZERO;
                        loop {
                            to = (to + WINDOW).min(DEADLINE);
                            let t = std::time::Instant::now();
                            tr.enter("vscale.machine");
                            let r = m.run_until_exited(vm, to);
                            tr.exit();
                            if r.is_some() || to == DEADLINE {
                                break r;
                            }
                            // Only whole windows are samples; the exit window
                            // is cut short.
                            rep.windows_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                    } else {
                        tr.enter("vscale.machine");
                        let r = m.run_until_exited(vm, DEADLINE);
                        tr.exit();
                        r
                    };

                    tr.enter("metrics.report");
                    let end = exited.unwrap_or(DEADLINE);
                    let exec_ns = end.since(SimTime::ZERO).as_ns();
                    counts.add_machine(&m);
                    counts.add_wait(&m, vm);
                    digest.u64(exec_ns);
                    digest.u64(u64::from(exited.is_some()));
                    if policy == SpinPolicy::Active {
                        active[ai][ci] += exec_ns;
                    }
                    tr.exit();

                    // One host per cell: its simulated and billed seconds agree.
                    let cell_s = m.now().since(SimTime::ZERO).as_secs_f64();
                    rep.sim_s += cell_s;
                    rep.host_s += cell_s;
                    rep.attempted += 1;
                    rep.failed += u64::from(exited.is_none());
                }
            }
        }
    }
    tr.enter("metrics.report");
    rep.fig6_err_pct = Some(fig6_err_pct(&active));
    tr.exit();
    counts.fold_into(&mut digest);
    rep.counts = counts;
    rep.digest = digest.value();
    rep
}

/// Mean absolute difference, in percentage points, between the simulated
/// vScale-vs-Baseline exec-time reduction under 30 G spins and the
/// paper's Figure 6 reduction, over the apps the paper reports.
fn fig6_err_pct(active: &[[u64; 4]]) -> f64 {
    let col = |c: SystemConfig| {
        SystemConfig::ALL
            .iter()
            .position(|&x| x == c)
            .expect("config in ALL")
    };
    let (base, vsc) = (col(SystemConfig::Baseline), col(SystemConfig::VScale));
    let errs: Vec<f64> = fig6::REDUCTION_30G
        .iter()
        .map(|&(name, paper)| {
            let ai = NPB_APPS
                .iter()
                .position(|a| a.name == name)
                .expect("paper app in NPB_APPS");
            let sim = 1.0 - active[ai][vsc] as f64 / active[ai][base] as f64;
            (sim - paper).abs() * 100.0
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}
