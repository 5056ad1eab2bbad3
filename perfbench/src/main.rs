//! The repository benchmark: end-to-end and per-layer performance of
//! the vScale simulator on three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload npb_grid|web_fleet|elastic_flash --seed N --seconds S --trace 0|1
//! ```
//!
//! A run first makes one unsliced reference pass (one stepping thread),
//! then repeats the workload, sliced into fixed simulated windows, until
//! `--seconds` of wall time have passed. Every repeat must reproduce the
//! reference's output digest bit for bit. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates traced and untraced repeats
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct","attempted","failed","metrics"}`. README.md in
//! this directory explains the workloads and metrics.

mod calib;
mod counts;
mod elastic_flash;
mod npb_grid;
mod procstat;
mod spans;
mod stats;
mod web_fleet;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use counts::Counts;
use spans::Tracer;
use stats::{median, quantile};

/// A seed kept out of every tuning run of this benchmark, so that a later
/// gain claim can be re-checked on inputs nobody tuned against.
const HELD_OUT_SEED: u64 = 0x2016_0418;

/// Repeat cycles a run makes even when `--seconds` runs out first, so
/// every median has at least this many samples.
const MIN_CYCLES: usize = 3;

/// How a repeat steps the simulation.
#[derive(Clone, Copy)]
pub struct Mode {
    /// Stop at every fixed simulated window (and time each one).
    pub sliced: bool,
    /// Cluster stepping threads (fleets only).
    pub threads: usize,
}

/// What one repeat of a workload produced.
#[derive(Default)]
pub struct Repeat {
    /// Simulated seconds advanced, summed over hosts run one after the
    /// other (the grid's cells) but not over hosts run side by side.
    pub sim_s: f64,
    /// Host-seconds in service (simulated).
    pub host_s: f64,
    /// Wall seconds spent building hosts and installing workloads.
    pub setup_s: f64,
    /// Wall ms of every whole simulated window of a sliced repeat.
    pub windows_ms: Vec<f64>,
    /// Operations (grid cells or requests) and those that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Fleet request ledger balances: sent = completed + dropped + in flight.
    pub conserved: bool,
    /// Digest of every simulated output and exact count.
    pub digest: u64,
    pub counts: Counts,
    /// Mean |simulated − paper| Figure 6 reduction, pp (`npb_grid`).
    pub fig6_err_pct: Option<f64>,
    /// Fleet-wide p99 request latency, simulated ms (fleets).
    pub fleet_p99_ms: Option<f64>,
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    NpbGrid,
    WebFleet,
    ElasticFlash,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "npb_grid" => Some(Workload::NpbGrid),
            "web_fleet" => Some(Workload::WebFleet),
            "elastic_flash" => Some(Workload::ElasticFlash),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::NpbGrid => "npb_grid",
            Workload::WebFleet => "web_fleet",
            Workload::ElasticFlash => "elastic_flash",
        }
    }

    fn run(self, seed: u64, mode: Mode, tr: &mut Tracer) -> Repeat {
        match self {
            Workload::NpbGrid => npb_grid::run(seed, mode, tr),
            Workload::WebFleet => web_fleet::run(seed, mode, tr),
            Workload::ElasticFlash => elastic_flash::run(seed, mode, tr),
        }
    }

    /// Stepping threads of the timed repeats: `web_fleet` fans hosts out
    /// over every core, as `ClusterConfig::default()` would; the others
    /// run on one thread.
    fn threads(self) -> usize {
        match self {
            Workload::WebFleet => nproc(),
            Workload::NpbGrid | Workload::ElasticFlash => 1,
        }
    }

    /// The span around the calls that advance simulated time.
    fn run_span(self) -> &'static str {
        match self {
            Workload::NpbGrid => "vscale.machine",
            Workload::WebFleet => "cluster.run_until",
            Workload::ElasticFlash => "autoscale.run_until",
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse()
                        .ok()
                        .filter(|&s: &u64| (1..=3600).contains(&s))
                        .ok_or_else(|| format!("bad --seconds {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: spreads nearby `--seed` values over the simulator's seed
/// space.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulator seeds of one repeat: `n` independent draws from the
/// run's seed, so that a repeat averages over several realisations of
/// its random inputs.
pub fn sub_seeds(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |k| mix(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f)))
}

/// A timed repeat and its raw host times.
struct Timed {
    rep: Repeat,
    wall_s: f64,
    cpu_s: f64,
    traced: bool,
    threads: usize,
}

/// Everything a run checked, over the reference pass and every repeat.
struct Ledger {
    attempted: u64,
    failed: u64,
    correct: bool,
    mismatches: u32,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            attempted: 0,
            failed: 0,
            correct: true,
            mismatches: 0,
        }
    }

    /// Books one repeat against the reference digest. A repeat whose
    /// outputs differ counts every one of its operations as failed.
    fn book(&mut self, rep: &Repeat, reference: u64) {
        self.attempted += rep.attempted;
        if rep.digest != reference {
            self.mismatches += 1;
            self.correct = false;
            self.failed += rep.attempted;
        } else {
            self.failed += rep.failed;
        }
        self.correct &= rep.conserved && rep.counts.events > 0;
    }
}

/// The timed repeats of a run and the host speed they ran at.
struct Run {
    timed: Vec<Timed>,
    /// Median calibration speed over the nominal speed: a host time ×
    /// `scale` is what a host at the nominal speed would have taken.
    scale: f64,
    /// Stepping threads of the repeats the end-to-end metrics use.
    threads: usize,
}

impl Run {
    fn pick(&self, traced: bool, threads: usize) -> impl Iterator<Item = &Timed> {
        self.timed
            .iter()
            .filter(move |t| t.traced == traced && t.threads == threads)
    }

    /// Median simulated seconds per calibrated wall second.
    fn rate(&self, traced: bool) -> f64 {
        let rates: Vec<f64> = self
            .pick(traced, self.threads)
            .map(|t| t.rep.sim_s / t.wall_s)
            .collect();
        median(&rates) / self.scale
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let seed = mix(args.seed);

    // Reference pass: unsliced, one stepping thread, untraced.
    let reference = w.run(
        seed,
        Mode {
            sliced: false,
            threads: 1,
        },
        &mut Tracer::new(false),
    );
    let mut ledger = Ledger::new();
    ledger.book(&reference, reference.digest);
    // The simulator's own peak, before stepping threads' allocator
    // arenas and the harness's records of the timed repeats add to it.
    let peak_rss = procstat::peak_rss_mib();

    let threads = w.threads();
    // Untraced runs repeat one mode; traced runs cycle untraced, traced
    // and (on web_fleet) one-thread repeats, so that the repeats compared
    // share the same stretch of host noise.
    let cycle: Vec<(bool, usize)> = match (args.trace, w) {
        (false, _) => vec![(false, threads)],
        (true, Workload::WebFleet) => vec![(false, threads), (true, threads), (false, 1)],
        (true, _) => vec![(false, threads), (true, threads)],
    };
    let mut tracer = Tracer::new(false);
    let mut timed = Vec::new();
    let mut calib_mops = Vec::new();
    let t0 = Instant::now();
    for cycles in 1.. {
        for &(traced, width) in &cycle {
            tracer.set_on(traced);
            tracer.set_repeat(timed.len() as u32);
            let cpu0 = procstat::process_cpu_s();
            let start = Instant::now();
            tracer.enter("bench.repeat");
            let rep = w.run(
                seed,
                Mode {
                    sliced: true,
                    threads: width,
                },
                &mut tracer,
            );
            tracer.exit();
            let wall_s = start.elapsed().as_secs_f64();
            let cpu_s = procstat::process_cpu_s() - cpu0;
            ledger.book(&rep, reference.digest);
            timed.push(Timed {
                rep,
                wall_s,
                cpu_s,
                traced,
                threads: width,
            });
            calib_mops.push(calib::speed_mops(threads));
        }
        if cycles >= MIN_CYCLES && t0.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
    }
    let calib_mops = median(&calib_mops);
    let run = Run {
        timed,
        scale: calib_mops / calib::NOMINAL_MOPS,
        threads,
    };

    // Every repeat simulates the same windows, so the median over the
    // repeats of each window's wall time strips host noise from it; the
    // quantiles are then taken over the windows.
    let plain: Vec<&Timed> = run.pick(false, threads).collect();
    let n_windows = plain
        .iter()
        .map(|t| t.rep.windows_ms.len())
        .min()
        .unwrap_or(0);
    let per_window: Vec<f64> = (0..n_windows)
        .map(|j| {
            median(
                &plain
                    .iter()
                    .map(|t| t.rep.windows_ms[j])
                    .collect::<Vec<_>>(),
            ) * run.scale
        })
        .collect();

    println!(
        "perfbench {} seed={} (mixed {seed:#x}) held_out_seed={HELD_OUT_SEED} repeats={} \
         windows={n_windows} digest={:#018x} mismatches={}",
        w.name(),
        args.seed,
        run.timed.len(),
        reference.digest,
        ledger.mismatches
    );
    println!(
        "  host: raw sim_s_per_wall_s={:.4} calib_mops={calib_mops:.4} (nominal {}) \
         threads={threads} nproc={}",
        run.rate(false) * run.scale,
        calib::NOMINAL_MOPS,
        nproc()
    );
    match (reference.fig6_err_pct, reference.fleet_p99_ms) {
        (Some(e), _) => println!(
            "  model: fig6_err_pct={e:.4} pp against the paper's Figure 6 (30 G spins); \
             billed_host_s={:.6}",
            reference.host_s
        ),
        (None, Some(p)) => println!(
            "  model: fleet_p99_ms={p:.3} billed_host_s={:.6}; fleets have no paper \
             reference, so no error figure",
            reference.host_s
        ),
        (None, None) => {}
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.push(("sim_s_per_wall_s", run.rate(false), "sim_s/s"));
        let cpu: f64 = plain.iter().map(|t| t.cpu_s).sum();
        let sim: f64 = plain.iter().map(|t| t.rep.sim_s).sum();
        metrics.push(("host_cpu_s_per_sim_s", cpu * run.scale / sim, "s/sim_s"));
        metrics.push(("window_wall_ms_p50", quantile(&per_window, 0.50), "ms"));
        metrics.push(("window_wall_ms_p99", quantile(&per_window, 0.99), "ms"));
        let setups: Vec<f64> = plain.iter().map(|t| t.rep.setup_s).collect();
        metrics.push(("setup_s", median(&setups) * run.scale, "s"));
        metrics.push(("peak_rss_mib", peak_rss, "MiB"));
        let ok = (ledger.attempted - ledger.failed) as f64;
        metrics.push(("completed_pct", 100.0 * ok / ledger.attempted as f64, "%"));
    } else {
        per_layer(w, &reference, &run, &tracer, &mut metrics);
        metrics.push(("bench.calib_mops", calib_mops, "Mops/s"));
        metrics.push((
            "bench.raw_sim_s_per_wall_s",
            run.rate(false) * run.scale,
            "sim_s/s",
        ));
        let path = PathBuf::from(".bench_build")
            .join("perfbench-spans")
            .join(format!("{}-s{}.jsonl", w.name(), args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                ledger.correct = false;
            }
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ledger.correct,
        ledger.attempted,
        ledger.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}

/// The per-layer metrics of a traced run.
fn per_layer(
    w: Workload,
    reference: &Repeat,
    run: &Run,
    tracer: &Tracer,
    out: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let c = &reference.counts;
    let per_s = |x: u64| x as f64 / reference.sim_s;
    let traced_ids: Vec<u32> = (0..run.timed.len() as u32)
        .filter(|&i| run.timed[i as usize].traced)
        .collect();
    let traced_n = traced_ids.len() as f64;
    let traced_sim_s: f64 = run.pick(true, run.threads).map(|t| t.rep.sim_s).sum();
    let self_ns = tracer.self_ns_by_name(&traced_ids);
    let span_ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 * run.scale;
    let span_ms_per_sim_s = |name: &str| span_ns(name) / 1e6 / traced_sim_s;
    let per_repeat_ms = |name: &str| span_ns(name) / 1e6 / traced_n;

    out.push(("sim_core.events_per_sim_s", per_s(c.events), "1/sim_s"));
    out.push((
        "sim_core.wall_ns_per_event",
        span_ns(w.run_span()) / (c.events as f64 * traced_n),
        "ns",
    ));
    out.push((
        "xen_sched.pcpu_switches_per_sim_s",
        per_s(c.pcpu_switches),
        "1/sim_s",
    ));
    out.push((
        "xen_sched.vcpu_migrations_per_sim_s",
        per_s(c.vcpu_migrations),
        "1/sim_s",
    ));
    out.push((
        "xen_sched.extend_updates_per_sim_s",
        per_s(c.extend_updates),
        "1/sim_s",
    ));
    out.push((
        "guest_kernel.context_switches_per_sim_s",
        per_s(c.context_switches),
        "1/sim_s",
    ));
    out.push((
        "guest_kernel.futex_waits_per_sim_s",
        per_s(c.futex_waits),
        "1/sim_s",
    ));
    out.push((
        "guest_kernel.futex_wakes_per_sim_s",
        per_s(c.futex_wakes),
        "1/sim_s",
    ));
    out.push((
        "guest_kernel.thread_migrations_per_sim_s",
        per_s(c.thread_migrations),
        "1/sim_s",
    ));
    out.push((
        "guest_kernel.pv_yields_per_sim_s",
        per_s(c.pv_yields),
        "1/sim_s",
    ));
    out.push((
        "guest_kernel.resched_ipis_per_sim_s",
        per_s(c.resched_ipis),
        "1/sim_s",
    ));
    out.push((
        "guest_kernel.timer_ints_per_sim_s",
        per_s(c.timer_ints),
        "1/sim_s",
    ));
    out.push((
        "vscale.daemon_reads_per_sim_s",
        per_s(c.daemon_reads),
        "1/sim_s",
    ));
    out.push(("vscale.reconfigs_per_sim_s", per_s(c.reconfigs), "1/sim_s"));
    out.push((
        "vscale.ipis_coalesced_per_sim_s",
        per_s(c.ipis_coalesced),
        "1/sim_s",
    ));
    out.push((
        "vscale.wait_share",
        c.wait_ns as f64 / (c.wait_ns + c.run_ns).max(1) as f64,
        "ratio",
    ));
    out.push((
        "vscale.machine_ms_per_sim_s",
        span_ms_per_sim_s("vscale.machine"),
        "ms/sim_s",
    ));
    out.push(("cluster.epochs_per_sim_s", per_s(c.epochs), "1/sim_s"));
    out.push((
        "cluster.host_steps_per_sim_s",
        per_s(c.host_epoch_slots - c.steps_skipped),
        "1/sim_s",
    ));
    out.push((
        "cluster.steps_skipped_share",
        c.steps_skipped as f64 / c.host_epoch_slots.max(1) as f64,
        "ratio",
    ));
    // Interleaved repeats at both widths on identical inputs, each
    // already checked against the reference digest.
    let fanout = if w == Workload::WebFleet {
        let wall = |threads: usize| {
            median(
                &run.pick(false, threads)
                    .map(|t| t.wall_s)
                    .collect::<Vec<_>>(),
            ) * run.scale
        };
        (wall(run.threads) - wall(1)) * 1e6 / c.epochs as f64
    } else {
        0.0
    };
    out.push(("cluster.fanout_us_per_epoch", fanout, "us/epoch"));
    out.push((
        "cluster.migrations_ok_per_sim_s",
        per_s(c.migrations_ok),
        "1/sim_s",
    ));
    out.push((
        "cluster.precopy_rounds_per_sim_s",
        per_s(c.precopy_rounds),
        "1/sim_s",
    ));
    out.push((
        "cluster.run_until_ms_per_sim_s",
        span_ms_per_sim_s("cluster.run_until"),
        "ms/sim_s",
    ));
    out.push(("autoscale.samples_per_sim_s", per_s(c.samples), "1/sim_s"));
    out.push((
        "autoscale.scale_outs_per_sim_s",
        per_s(c.scale_outs),
        "1/sim_s",
    ));
    out.push((
        "autoscale.scale_ins_per_sim_s",
        per_s(c.scale_ins),
        "1/sim_s",
    ));
    out.push((
        "autoscale.run_until_ms_per_sim_s",
        span_ms_per_sim_s("autoscale.run_until"),
        "ms/sim_s",
    ));
    out.push((
        "metrics.report_ms_per_sim_s",
        span_ms_per_sim_s("metrics.report"),
        "ms/sim_s",
    ));
    out.push(("setup.build_ms", per_repeat_ms("setup.build"), "ms"));
    out.push(("setup.install_ms", per_repeat_ms("setup.install"), "ms"));
    out.push((
        "bench.harness_ms_per_sim_s",
        span_ms_per_sim_s("bench.repeat"),
        "ms/sim_s",
    ));
    out.push((
        "trace.overhead_pct",
        (run.rate(false) / run.rate(true) - 1.0) * 100.0,
        "%",
    ));
    out.push((
        "model.fig6_err_pct",
        reference.fig6_err_pct.unwrap_or(0.0),
        "pp",
    ));
    out.push((
        "model.fleet_p99_ms",
        reference.fleet_p99_ms.unwrap_or(0.0),
        "sim_ms",
    ));
    out.push(("model.billed_host_s", reference.host_s, "sim_s"));
}
