//! Exact per-layer work counts, read from the layers' public stats after
//! a repeat. They depend only on the seed, so every repeat of one seed,
//! at any stepping width, must read the same.

use sim_core::ids::{DomId, PcpuId};
use vscale::Machine;
use xen_sched::HypervisorSched;

use crate::stats::Digest;

/// Work counts summed over every host a repeat ran.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    /// `sim_core`: machine events dispatched.
    pub events: u64,
    /// `xen_sched`: pCPU context switches.
    pub pcpu_switches: u64,
    /// `xen_sched`: vCPU moves between pCPUs.
    pub vcpu_migrations: u64,
    /// `xen_sched`: extendability table updates (`extend_version`).
    pub extend_updates: u64,
    /// `guest_kernel`: from `GuestStats`, every domain.
    pub context_switches: u64,
    pub futex_waits: u64,
    pub futex_wakes: u64,
    pub thread_migrations: u64,
    pub pv_yields: u64,
    /// `guest_kernel`: from `DomainStats`, every domain.
    pub resched_ipis: u64,
    pub timer_ints: u64,
    /// `vscale`: daemon channel reads, reconfigurations, coalesced IPIs.
    pub daemon_reads: u64,
    pub reconfigs: u64,
    pub ipis_coalesced: u64,
    /// `vscale`: simulated wait and run time of the measured VMs, ns.
    pub wait_ns: u64,
    pub run_ns: u64,
    /// `cluster`: lockstep epochs, hosts × epochs, and the host steps
    /// sparse stepping skipped.
    pub epochs: u64,
    pub host_epoch_slots: u64,
    pub steps_skipped: u64,
    /// `cluster`: live migrations completed and their pre-copy rounds.
    pub migrations_ok: u64,
    pub precopy_rounds: u64,
    /// `autoscale`: controller samples and scale actions.
    pub samples: u64,
    pub scale_outs: u64,
    pub scale_ins: u64,
}

impl Counts {
    /// Adds one machine's layer counters, over every domain on it.
    pub fn add_machine<S: HypervisorSched>(&mut self, m: &Machine<S>) {
        let hv = m.hv();
        self.events += m.events_delivered();
        self.pcpu_switches += (0..hv.n_pcpus())
            .map(|p| hv.switches(PcpuId(p)))
            .sum::<u64>();
        self.vcpu_migrations += hv.migrations();
        self.extend_updates += hv.extend_version();
        for d in 0..hv.n_domains() {
            let dom = DomId(d);
            let g = m.guest(dom).stats();
            self.context_switches += g.context_switches;
            self.futex_waits += g.futex_waits;
            self.futex_wakes += g.futex_wakes;
            self.thread_migrations += g.thread_migrations;
            self.pv_yields += g.pv_yields;
            let st = m.domain_stats(dom);
            self.resched_ipis += st.resched_ipis.iter().sum::<u64>();
            self.timer_ints += st.timer_ints.iter().sum::<u64>();
            self.daemon_reads += st.daemon_reads;
            self.reconfigs += st.reconfigs;
            self.ipis_coalesced += st.ipis_coalesced;
        }
    }

    /// Adds one VM's simulated wait and run time (Figure 9's quantity).
    pub fn add_wait<S: HypervisorSched>(&mut self, m: &Machine<S>, dom: DomId) {
        let st = m.domain_stats(dom);
        self.wait_ns += st.wait_total.as_ns();
        self.run_ns += st.run_total.as_ns();
    }

    /// Hashes every field, in declaration order.
    pub fn fold_into(&self, d: &mut Digest) {
        for x in [
            self.events,
            self.pcpu_switches,
            self.vcpu_migrations,
            self.extend_updates,
            self.context_switches,
            self.futex_waits,
            self.futex_wakes,
            self.thread_migrations,
            self.pv_yields,
            self.resched_ipis,
            self.timer_ints,
            self.daemon_reads,
            self.reconfigs,
            self.ipis_coalesced,
            self.wait_ns,
            self.run_ns,
            self.epochs,
            self.host_epoch_slots,
            self.steps_skipped,
            self.migrations_ok,
            self.precopy_rounds,
            self.samples,
            self.scale_outs,
            self.scale_ins,
        ] {
            d.u64(x);
        }
    }
}
