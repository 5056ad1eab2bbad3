//! `elastic_flash`: the `elastic_sweep` `vscale_auto` fleet through a
//! flash crowd.
//!
//! 3 active + 3 standby vScale hosts with the SLO controller on, facing
//! the quick-scale flash-crowd trace, stepped on one thread. Most hosts
//! idle most of the time; scale events live-migrate VMs. A repeat runs
//! the fleet on several seeds, one after the other.

use autoscale::ElasticFleet;
use cluster::{build_web_fleet, ClusterConfig, LbPolicy, MigrationConfig, WebFleetConfig};
use sim_core::stats::Histogram;
use sim_core::time::{SimDuration, SimTime};
use vscale::config::SystemConfig;
use vscale::ElasticConfig;
use workloads::traces::RateTrace;

use crate::spans::Tracer;
use crate::stats::Digest;
use crate::{sub_seeds, Mode, Repeat};

const SLO_P99_US: u64 = 10_000;
const MIN_HOSTS: usize = 3;
const STANDBY_HOSTS: usize = 3;

/// The trace ends here; the run then drains.
const TRACE_END: SimTime = SimTime::from_ms(1_400);

/// Drain bound: the run fails if work is still in flight by then.
const DRAIN_LIMIT: SimTime = SimTime::from_ms(4_400);

/// `ElasticFleet::run_until` fires the sample at `t` by stepping the
/// cluster to `t + 1 µs`. Stopping the fleet exactly there hands the
/// cluster the same deadlines whether or not the run is sliced.
const EPS: SimDuration = SimDuration::from_us(1);

fn elastic_cfg() -> ElasticConfig {
    ElasticConfig {
        slo_p99_us: SLO_P99_US,
        scale_out_ratio: 0.8,
        scale_in_ratio: 0.6,
        min_hosts: MIN_HOSTS,
        max_hosts: MIN_HOSTS + STANDBY_HOSTS,
        ..ElasticConfig::default()
    }
}

/// Fleets per repeat. One fleet's work per simulated second swings with
/// where its seed puts the scale events; a repeat averages several.
const SEEDS: u64 = 4;

/// One elastic run per seed.
pub fn run(seed: u64, mode: Mode, tr: &mut Tracer) -> Repeat {
    let mut rep = Repeat {
        conserved: true,
        ..Repeat::default()
    };
    let mut digest = Digest::new();
    let mut latency_us = Histogram::new();
    for seed in sub_seeds(seed, SEEDS) {
        run_one(seed, mode, tr, &mut rep, &mut digest, &mut latency_us);
    }
    rep.fleet_p99_ms = Some(latency_us.quantile(0.99) as f64 / 1e3);
    rep.counts.fold_into(&mut digest);
    rep.digest = digest.value();
    rep
}

/// One fleet through the trace, accumulated into `rep`.
fn run_one(
    seed: u64,
    mode: Mode,
    tr: &mut Tracer,
    rep: &mut Repeat,
    digest: &mut Digest,
    latency_us: &mut Histogram,
) {
    let cfg = elastic_cfg();
    let cluster_cfg = ClusterConfig {
        lb: LbPolicy::LeastOutstanding,
        seed: seed ^ 0xe1a5_71c0,
        threads: mode.threads,
        ..ClusterConfig::default()
    };
    let setup = std::time::Instant::now();
    tr.enter("setup.build");
    let c = build_web_fleet(
        WebFleetConfig {
            mode: SystemConfig::VScale,
            hosts: MIN_HOSTS,
            standby_hosts: STANDBY_HOSTS,
            seed,
            ..WebFleetConfig::default()
        },
        cluster_cfg,
    );
    tr.exit();
    tr.enter("setup.install");
    let mut fleet = ElasticFleet::new(
        c,
        format!("vscale_auto:s{seed}"),
        cfg,
        true,
        MigrationConfig::default(),
    );
    fleet.cluster_mut().add_stream(
        RateTrace::FlashCrowd {
            base_rps: 9_000.0,
            spike_rps: 36_000.0,
            at: SimTime::from_ms(300),
            ramp: SimDuration::from_ms(80),
            hold: SimDuration::from_ms(350),
            decay: SimDuration::from_ms(150),
        },
        SimTime::ZERO,
        TRACE_END,
    );
    tr.exit();
    rep.setup_s += setup.elapsed().as_secs_f64();

    let epoch_ns = cluster_cfg.epoch.as_ns();
    let mut epochs = 0u64;
    let mut last = SimTime::ZERO;
    let mut sample = SimTime::ZERO;
    loop {
        sample += cfg.sample_period;
        let to = sample + EPS;
        let past_trace = sample >= TRACE_END;
        if mode.sliced || past_trace {
            let t = std::time::Instant::now();
            tr.enter("autoscale.run_until");
            fleet.run_until(to).expect("elastic fleet steps");
            tr.exit();
            if mode.sliced {
                rep.windows_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        // The cluster clips its last epoch at each deadline.
        epochs += to.since(last).as_ns().div_ceil(epoch_ns);
        last = to;
        let c = fleet.cluster();
        let drained = c.in_flight() == 0 && c.active_migrations() == 0;
        if past_trace && (drained || sample >= DRAIN_LIMIT) {
            break;
        }
    }

    tr.enter("metrics.report");
    let c = fleet.cluster();
    let counts = &mut rep.counts;
    for h in 0..c.n_hosts() {
        let m = c.machine(h);
        counts.add_machine(m);
        for d in 0..xen_sched::HypervisorSched::n_domains(m.hv()) {
            counts.add_wait(m, sim_core::ids::DomId(d));
        }
    }
    counts.epochs += epochs;
    counts.host_epoch_slots += epochs * c.n_hosts() as u64;
    let rob = c.robustness();
    counts.migrations_ok += rob.migrations_ok;
    counts.precopy_rounds += rob.precopy_rounds;
    let sim_s = c.now().since(SimTime::ZERO).as_secs_f64();
    let curve = fleet.finish();
    counts.steps_skipped += curve.steps_skipped;
    counts.samples += curve.samples.len() as u64;
    counts.scale_outs += curve.scale_outs() as u64;
    counts.scale_ins += curve.scale_ins() as u64;
    digest.bytes(curve.to_json().as_bytes());
    latency_us.merge(&curve.latency_us);
    tr.exit();

    rep.conserved &= curve.sent == curve.completed + curve.drops + curve.in_flight_end;
    rep.sim_s += sim_s;
    rep.host_s += curve.host_ms as f64 / 1e3;
    rep.attempted += curve.sent;
    rep.failed += curve.drops + curve.in_flight_end;
}
