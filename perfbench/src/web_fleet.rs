//! `web_fleet`: the `build_web_fleet` default fleet under constant load.
//!
//! 8 hosts × (2 Apache VMs + 2 desktops) in vScale mode behind a
//! least-outstanding balancer, fed an open loop of 72 000 req/s — the
//! highest load static SMP holds at the 10 ms p99 SLO in
//! `cluster_sweep`. Every host is busy every epoch.

use cluster::{build_web_fleet, ClusterConfig, LbPolicy, WebFleetConfig};
use sim_core::time::{SimDuration, SimTime};
use vscale::config::SystemConfig;

use crate::counts::Counts;
use crate::spans::Tracer;
use crate::stats::Digest;
use crate::{Mode, Repeat};

/// Offered load, requests/s over the whole fleet.
const LOAD_RPS: f64 = 72_000.0;

/// Arrivals stop here; the run then drains.
const HORIZON: SimTime = SimTime::from_ms(1_000);

/// One sliced `run_until` window: 50 lockstep epochs of 200 µs, so
/// slicing never moves an epoch boundary.
const WINDOW: SimDuration = SimDuration::from_ms(10);

/// Drain bound: the run fails if requests are still in flight by then.
const DRAIN_LIMIT: SimTime = SimTime::from_ms(3_000);

/// One fleet run.
pub fn run(seed: u64, mode: Mode, tr: &mut Tracer) -> Repeat {
    let mut rep = Repeat::default();
    let fleet_cfg = WebFleetConfig {
        mode: SystemConfig::VScale,
        seed,
        ..WebFleetConfig::default()
    };
    let cluster_cfg = ClusterConfig {
        lb: LbPolicy::LeastOutstanding,
        seed: seed ^ 0x5eed_c1a5,
        threads: mode.threads,
        ..ClusterConfig::default()
    };
    let setup = std::time::Instant::now();
    tr.enter("setup.build");
    let mut c = build_web_fleet(fleet_cfg, cluster_cfg);
    tr.exit();
    tr.enter("setup.install");
    c.open_loop(LOAD_RPS, SimTime::ZERO, HORIZON);
    tr.exit();
    rep.setup_s = setup.elapsed().as_secs_f64();

    // Both modes hand the cluster the same deadlines past the horizon,
    // so the drain is identical; before it, sliced runs stop at every
    // window boundary and unsliced runs go straight to the horizon.
    let mut to = SimTime::ZERO;
    loop {
        let next = if mode.sliced || to >= HORIZON {
            to + WINDOW
        } else {
            HORIZON
        };
        let t = std::time::Instant::now();
        tr.enter("cluster.run_until");
        c.run_until(next).expect("fleet steps");
        tr.exit();
        if mode.sliced {
            rep.windows_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        to = next;
        if to >= HORIZON && (c.in_flight() == 0 || to >= DRAIN_LIMIT) {
            break;
        }
    }

    tr.enter("metrics.report");
    let point = c.fleet_point("vscale", LOAD_RPS as u64);
    let json = point.to_json();
    let sent = c.sent();
    let in_flight = c.in_flight();
    rep.conserved = sent == point.completed + point.drops + in_flight;
    let mut counts = Counts::default();
    for h in 0..c.n_hosts() {
        let m = c.machine(h);
        counts.add_machine(m);
        for d in 0..xen_sched::HypervisorSched::n_domains(m.hv()) {
            counts.add_wait(m, sim_core::ids::DomId(d));
        }
    }
    let epoch_ns = ClusterConfig::default().epoch.as_ns();
    counts.epochs = c.now().as_ns().div_ceil(epoch_ns);
    counts.host_epoch_slots = counts.epochs * c.n_hosts() as u64;
    counts.steps_skipped = c.steps_skipped();
    let rob = c.robustness();
    counts.migrations_ok = rob.migrations_ok;
    counts.precopy_rounds = rob.precopy_rounds;
    let mut digest = Digest::new();
    digest.bytes(json.as_bytes());
    counts.fold_into(&mut digest);
    rep.fleet_p99_ms = Some(point.p99_us() as f64 / 1e3);
    tr.exit();

    let sim_s = c.now().since(SimTime::ZERO).as_secs_f64();
    rep.sim_s = sim_s;
    rep.host_s = sim_s * c.n_hosts() as f64;
    rep.attempted = sent;
    rep.failed = point.drops + in_flight;
    rep.counts = counts;
    rep.digest = digest.value();
    rep
}
