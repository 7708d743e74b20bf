//! The tightly-integrated scheduler fabric: Table I served in a couple of cycles per
//! instruction.
//!
//! [`TisFabric`] assembles one [`PicosDelegate`] per core around a shared
//! [`PicosManager`] (which owns the Picos device) and exposes the result as a
//! [`SchedulerFabric`], the interface runtimes program against. Each operation costs the core a
//! fixed RoCC instruction latency (2 cycles on Rocket, Section IV-F2) plus whatever the blocking
//! *Retire Task* transaction adds — this is the "FPGA-CPU communication latency eliminated"
//! property the paper's speedups come from.

use std::cell::Cell;

use tis_machine::fabric::{CoreId, FabricOutcome, FabricStats, IdlePoll, SchedulerFabric};
use tis_picos::PicosConfig;
use tis_sim::Cycle;

use crate::delegate::PicosDelegate;
use crate::manager::{ManagerConfig, PicosManager, SharedQuiet};

/// Configuration of the tightly-integrated scheduling subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TisConfig {
    /// Latency of one RoCC custom instruction as seen by the issuing core.
    pub rocc_latency: Cycle,
    /// Picos Manager sizing and crossing latencies.
    pub manager: ManagerConfig,
    /// Picos device configuration (tracker capacities, pipeline timing, ready-queue depth).
    pub picos: PicosConfig,
}

impl Default for TisConfig {
    fn default() -> Self {
        TisConfig {
            rocc_latency: 2,
            manager: ManagerConfig::default(),
            picos: PicosConfig::default(),
        }
    }
}

/// The RoCC-integrated Picos scheduling fabric (the paper's contribution).
#[derive(Debug, Clone)]
pub struct TisFabric {
    config: TisConfig,
    manager: PicosManager,
    delegates: Vec<PicosDelegate>,
    stats: FabricStats,
    /// [`PicosManager::shared_quiet`], computed once for all the parked cores the engine
    /// asks about after a step. Every operation clears it.
    shared_quiet: Cell<Option<SharedQuiet>>,
}

impl TisFabric {
    /// Builds the fabric for a machine with `cores` cores.
    pub fn new(cores: usize, config: TisConfig) -> Self {
        TisFabric {
            config,
            manager: PicosManager::new(cores, config.manager, config.picos),
            delegates: (0..cores).map(PicosDelegate::new).collect(),
            stats: FabricStats::default(),
            shared_quiet: Cell::new(None),
        }
    }

    /// Builds the fabric with default configuration.
    pub fn with_cores(cores: usize) -> Self {
        TisFabric::new(cores, TisConfig::default())
    }

    /// Configuration in use.
    pub fn config(&self) -> TisConfig {
        self.config
    }

    /// The shared Picos Manager (for statistics and tests).
    pub fn manager(&self) -> &PicosManager {
        &self.manager
    }

    /// Per-core delegate statistics.
    pub fn delegate(&self, core: CoreId) -> &PicosDelegate {
        &self.delegates[core]
    }

    /// Number of tasks currently tracked by Picos.
    pub fn tasks_in_flight(&self) -> usize {
        self.manager.tasks_in_flight()
    }
}

impl SchedulerFabric for TisFabric {
    fn name(&self) -> &'static str {
        "rocc-picos"
    }

    fn set_time_horizon(&mut self, safe_now: Cycle) {
        self.shared_quiet.set(None);
        self.manager.set_time_horizon(safe_now);
    }

    fn submission_request(&mut self, core: CoreId, packet_count: u32, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.shared_quiet.set(None);
        self.stats.operations += 1;
        let ok = self.delegates[core].submission_request(&mut self.manager, packet_count, now);
        if !ok {
            self.stats.submission_failures += 1;
        }
        (self.config.rocc_latency, if ok { FabricOutcome::Success(()) } else { FabricOutcome::Failure })
    }

    fn submit_packets(&mut self, core: CoreId, packets: &[u32], now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.shared_quiet.set(None);
        self.stats.operations += 1;
        let ok = self.delegates[core].submit_packets(&mut self.manager, packets, now);
        if ok && self.manager.stats().descriptors_forwarded > self.stats.tasks_submitted {
            self.stats.tasks_submitted = self.manager.stats().descriptors_forwarded;
        }
        (self.config.rocc_latency, if ok { FabricOutcome::Success(()) } else { FabricOutcome::Failure })
    }

    fn ready_task_request(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.shared_quiet.set(None);
        self.stats.operations += 1;
        let ok = self.delegates[core].ready_task_request(&mut self.manager, now);
        (self.config.rocc_latency, if ok { FabricOutcome::Success(()) } else { FabricOutcome::Failure })
    }

    fn fetch_sw_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u64>) {
        self.shared_quiet.set(None);
        self.stats.operations += 1;
        match self.delegates[core].fetch_sw_id(&mut self.manager, now) {
            Some(sw) => (self.config.rocc_latency, FabricOutcome::Success(sw)),
            None => {
                self.stats.fetch_failures += 1;
                (self.config.rocc_latency, FabricOutcome::Failure)
            }
        }
    }

    fn fetch_picos_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u32>) {
        self.shared_quiet.set(None);
        self.stats.operations += 1;
        match self.delegates[core].fetch_picos_id(&mut self.manager, now) {
            Some(pid) => {
                self.stats.tasks_dispatched += 1;
                (self.config.rocc_latency, FabricOutcome::Success(pid))
            }
            None => {
                self.stats.fetch_failures += 1;
                (self.config.rocc_latency, FabricOutcome::Failure)
            }
        }
    }

    fn retire_task(&mut self, core: CoreId, picos_id: u32, now: Cycle) -> Cycle {
        self.shared_quiet.set(None);
        self.stats.operations += 1;
        self.stats.tasks_retired += 1;
        let manager_latency = self.delegates[core].retire_task(&mut self.manager, picos_id, now);
        self.config.rocc_latency + manager_latency
    }

    fn stats(&self) -> FabricStats {
        let picos = self.manager.picos().stats();
        FabricStats {
            tracker_losses: picos.tracker_losses,
            tracker_resubmits: picos.tracker_resubmits,
            tracker_recovery_cycles: picos.tracker_recovery_cycles,
            ..self.stats.clone()
        }
    }

    fn set_observing(&mut self, on: bool) {
        self.manager.set_observing(on);
    }

    fn drain_ready_log(&mut self, sink: &mut dyn FnMut(Cycle, u64)) {
        self.manager.drain_ready_log(sink);
    }

    fn occupancy(&self) -> (usize, usize) {
        self.manager.occupancy()
    }

    /// The manager's horizon, moved one RoCC latency earlier when the poll's fetch follows a
    /// request: that fetch is issued one instruction after the poll starts.
    fn quiet_horizon(&self, core: CoreId, poll: IdlePoll) -> Cycle {
        let shared = self.shared_quiet.get().unwrap_or_else(|| {
            let shared = self.manager.shared_quiet();
            self.shared_quiet.set(Some(shared));
            shared
        });
        let h = self.manager.quiet_horizon(core, poll.rejected_request, shared);
        if poll.rejected_request {
            h.saturating_sub(self.config.rocc_latency)
        } else {
            h
        }
    }

    fn charge_failed_polls(&mut self, core: CoreId, poll: IdlePoll, n: u64) {
        self.stats.operations += n * if poll.rejected_request { 2 } else { 1 };
        self.stats.fetch_failures += n;
        self.delegates[core].record_failed_polls(poll.rejected_request, n);
        if poll.rejected_request {
            self.manager.record_routing_rejections(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_picos::{encode_nonzero_prefix, SubmittedTask};
    use tis_taskmodel::Dependence;

    /// Submit a task through the public fabric API, exactly as a runtime would.
    fn submit(fabric: &mut TisFabric, core: usize, sw_id: u64, deps: Vec<Dependence>, now: u64) -> bool {
        let pkts = encode_nonzero_prefix(&SubmittedTask::new(sw_id, deps));
        let (_, out) = fabric.submission_request(core, pkts.len() as u32, now);
        if !out.is_success() {
            return false;
        }
        for chunk in pkts.chunks(3) {
            let (_, out) = fabric.submit_packets(core, chunk, now);
            assert!(out.is_success());
        }
        true
    }

    #[test]
    fn every_instruction_costs_the_rocc_latency() {
        let mut f = TisFabric::with_cores(2);
        let (lat, _) = f.submission_request(0, 3, 0);
        assert_eq!(lat, 2);
        let (lat, _) = f.ready_task_request(1, 0);
        assert_eq!(lat, 2);
        let (lat, _) = f.fetch_sw_id(1, 0);
        assert_eq!(lat, 2);
    }

    #[test]
    fn end_to_end_task_lifecycle_through_the_fabric() {
        let mut f = TisFabric::with_cores(2);
        assert!(submit(&mut f, 0, 99, vec![Dependence::write(0x1000)], 0));
        let (_, out) = f.ready_task_request(1, 10);
        assert!(out.is_success());
        let mut now = 10;
        let sw = loop {
            now += 4;
            let (_, out) = f.fetch_sw_id(1, now);
            if let FabricOutcome::Success(sw) = out {
                break sw;
            }
            assert!(now < 10_000, "task never became ready");
        };
        assert_eq!(sw, 99);
        let (_, out) = f.fetch_picos_id(1, now);
        let pid = out.success().expect("picos id after sw id");
        let lat = f.retire_task(1, pid, now + 500);
        assert!(lat >= f.config().rocc_latency);
        assert_eq!(f.tasks_in_flight(), 0);
        let stats = SchedulerFabric::stats(&f);
        assert_eq!(stats.tasks_dispatched, 1);
        assert_eq!(stats.tasks_retired, 1);
        assert!(stats.operations >= 6);
    }

    #[test]
    fn dependent_task_is_withheld_until_predecessor_retires() {
        let mut f = TisFabric::with_cores(2);
        assert!(submit(&mut f, 0, 1, vec![Dependence::write(0x2000)], 0));
        assert!(submit(&mut f, 0, 2, vec![Dependence::read(0x2000)], 5));
        let (_, out) = f.ready_task_request(1, 10);
        assert!(out.is_success());
        let mut now = 10;
        let first = loop {
            now += 4;
            if let FabricOutcome::Success(sw) = f.fetch_sw_id(1, now).1 {
                break sw;
            }
            assert!(now < 10_000);
        };
        assert_eq!(first, 1);
        let pid1 = f.fetch_picos_id(1, now).1.success().unwrap();
        // Ask for more work: nothing can arrive until task 1 retires.
        let (_, out) = f.ready_task_request(1, now);
        assert!(out.is_success());
        for probe in 0..20 {
            assert!(!f.fetch_sw_id(1, now + probe * 10).1.is_success());
        }
        f.retire_task(1, pid1, now + 300);
        let mut now2 = now + 300;
        let second = loop {
            now2 += 4;
            if let FabricOutcome::Success(sw) = f.fetch_sw_id(1, now2).1 {
                break sw;
            }
            assert!(now2 < now + 10_000);
        };
        assert_eq!(second, 2);
    }

    #[test]
    fn submission_failure_when_picos_saturated_is_non_blocking() {
        use tis_picos::{PicosConfig, TrackerConfig};
        let cfg = TisConfig {
            picos: PicosConfig {
                tracker: TrackerConfig { task_memory_entries: 2, address_table_entries: 64 },
                ..PicosConfig::default()
            },
            ..TisConfig::default()
        };
        let mut f = TisFabric::new(1, cfg);
        assert!(submit(&mut f, 0, 1, vec![], 0));
        assert!(submit(&mut f, 0, 2, vec![], 1));
        // Third task: task memory holds 2 in-flight tasks, the forward queue backs up, and the
        // next submission request fails fast instead of stalling the core.
        let mut accepted = 0;
        for i in 0..4 {
            if submit(&mut f, 0, 10 + i, vec![], 10 + i) {
                accepted += 1;
            }
        }
        assert!(accepted < 4, "saturated hardware must reject some submissions");
        assert!(SchedulerFabric::stats(&f).submission_failures > 0);
    }

    /// Whether one `poll` by `core` starting at `start` fails without a trace: issuing it
    /// leaves the fabric exactly as accounting it as a skipped poll does.
    fn poll_is_pure(f: &TisFabric, core: usize, poll: IdlePoll, start: Cycle) -> bool {
        let mut issued = f.clone();
        issued.set_time_horizon(start);
        let mut now = start;
        let mut failed = true;
        if poll.rejected_request {
            let (lat, out) = issued.ready_task_request(core, now);
            failed &= !out.is_success();
            now += lat;
        }
        failed &= !issued.fetch_sw_id(core, now).1.is_success();
        let mut charged = f.clone();
        charged.set_time_horizon(start);
        charged.charge_failed_polls(core, poll, 1);
        let state = |f: &TisFabric| format!("{:?}", (&f.manager, &f.delegates, &f.stats));
        failed && state(&issued) == state(&charged)
    }

    const FETCH: IdlePoll = IdlePoll { rejected_request: false };
    const REQUEST_AND_FETCH: IdlePoll = IdlePoll { rejected_request: true };

    /// Two cores sharing a one-entry routing queue that core 0 holds.
    fn one_routing_slot_held_by_core_0() -> TisFabric {
        let cfg = TisConfig {
            manager: ManagerConfig { routing_queue_depth: 1, ..ManagerConfig::default() },
            ..TisConfig::default()
        };
        let mut f = TisFabric::new(2, cfg);
        assert!(f.ready_task_request(0, 0).1.is_success());
        f
    }

    #[test]
    fn quiet_horizon_covers_the_fetch_one_latency_after_a_rejected_request() {
        let mut f = one_routing_slot_held_by_core_0();
        assert!(submit(&mut f, 0, 7, vec![], 0));
        let publish = f.manager().picos().quiet_horizon();
        assert!(publish > 0 && publish < Cycle::MAX, "the task is still in the Picos pipeline");
        // Core 1's request is rejected at the poll's start and its fetch follows one RoCC
        // latency later: the fetch that lands on the publication routes the task to core 0.
        let h = f.quiet_horizon(1, REQUEST_AND_FETCH);
        assert_eq!(h, publish - f.config().rocc_latency);
        assert!(poll_is_pure(&f, 1, REQUEST_AND_FETCH, h - 1));
        assert!(!poll_is_pure(&f, 1, REQUEST_AND_FETCH, h), "its fetch routes the published task");
        assert_eq!(f.quiet_horizon(1, FETCH), publish);
    }

    #[test]
    fn a_rejected_request_stays_quiet_until_the_routing_queue_has_room() {
        let mut f = one_routing_slot_held_by_core_0();
        // Nothing pending anywhere: core 1's rejected polls are quiet for good.
        assert!(f.quiet_horizon(1, REQUEST_AND_FETCH) > 1_000_000);
        assert!(poll_is_pure(&f, 1, REQUEST_AND_FETCH, 1_000_000));
        // A task is routed to core 0, which frees the slot: core 1's next request goes through,
        // so its poll is no longer quiet, while a bare fetch still is.
        assert!(submit(&mut f, 0, 7, vec![], 10));
        let mut now = 10;
        while !f.fetch_sw_id(0, now).1.is_success() {
            now += 1;
            assert!(now < 10_000, "task never routed");
        }
        assert_eq!(f.quiet_horizon(1, REQUEST_AND_FETCH), 0);
        assert!(!poll_is_pure(&f, 1, REQUEST_AND_FETCH, now));
        assert_eq!(f.quiet_horizon(1, FETCH), Cycle::MAX);
    }

    #[test]
    fn a_fetch_picos_id_pop_that_leaves_routable_work_is_not_quiet() {
        // One-entry per-core queues; core 0 requests twice, so its second request heads the
        // routing queue while its queue holds the first task.
        let cfg = TisConfig {
            manager: ManagerConfig { ready_queue_per_core: 1, ..ManagerConfig::default() },
            ..TisConfig::default()
        };
        let mut f = TisFabric::new(2, cfg);
        assert!(submit(&mut f, 1, 1, vec![], 0));
        assert!(submit(&mut f, 1, 2, vec![], 0));
        assert!(f.ready_task_request(0, 0).1.is_success());
        assert!(f.ready_task_request(0, 0).1.is_success());
        let mut now = 0;
        while !f.fetch_sw_id(0, now).1.is_success() {
            now += 1;
            assert!(now < 10_000, "task never routed");
        }
        // Let the second task publish inside Picos, blocked behind core 0's full queue.
        now += 200;
        assert_eq!(f.fetch_sw_id(0, now).1.success(), Some(1));
        assert_eq!(f.quiet_horizon(1, FETCH), Cycle::MAX, "routing is blocked on core 0's queue");
        // The pop frees core 0's queue but nothing advances the manager after it: the next
        // call by any core routes the second task.
        assert!(f.fetch_picos_id(0, now).1.is_success());
        assert!(f.quiet_horizon(1, FETCH) <= now);
        assert!(!poll_is_pure(&f, 1, FETCH, now));
    }

    #[test]
    fn polls_before_the_quiet_horizon_are_pure() {
        use tis_picos::TrackerConfig;
        use tis_sim::SimRng;
        // Small queues and tracker so every blocking condition occurs.
        let cfg = TisConfig {
            manager: ManagerConfig { routing_queue_depth: 2, ready_queue_per_core: 1, ..ManagerConfig::default() },
            picos: PicosConfig {
                tracker: TrackerConfig { task_memory_entries: 4, address_table_entries: 16 },
                ready_queue_depth: 2,
                ..PicosConfig::default()
            },
            ..TisConfig::default()
        };
        let mut f = TisFabric::new(3, cfg);
        let mut rng = SimRng::new(11);
        let (mut now, mut sw_id, mut held) = (0, 0, Vec::new());
        for _ in 0..600 {
            now += rng.below(40);
            f.set_time_horizon(now);
            let core = rng.below(3) as usize;
            match rng.below(4) {
                0 => {
                    let deps = vec![Dependence::read_write(0x100 + 64 * rng.below(3))];
                    sw_id += u64::from(submit(&mut f, core, sw_id, deps, now));
                }
                1 => {
                    f.ready_task_request(core, now);
                }
                2 => {
                    if f.fetch_sw_id(core, now).1.is_success() {
                        held.extend(f.fetch_picos_id(core, now).1.success());
                    }
                }
                _ => {
                    if !held.is_empty() {
                        let pid = held.swap_remove(rng.below(held.len() as u64) as usize);
                        f.retire_task(core, pid, now);
                    }
                }
            }
            for c in 0..3 {
                for poll in [FETCH, REQUEST_AND_FETCH] {
                    let h = f.quiet_horizon(c, poll);
                    for start in [now, now + 1, now + 37, h.saturating_sub(1).min(now + 5_000)] {
                        if start < h {
                            assert!(poll_is_pure(&f, c, poll, start), "core {c} {poll:?} at {start}, horizon {h}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_core_delegates_are_independent() {
        let mut f = TisFabric::with_cores(4);
        assert!(submit(&mut f, 2, 5, vec![], 0));
        assert!(f.ready_task_request(3, 1).1.is_success());
        let mut now = 1;
        while !f.fetch_sw_id(3, now).1.is_success() {
            now += 4;
            assert!(now < 10_000);
        }
        // Core 1 never fetched a SW ID, so its Fetch Picos ID must fail even though core 3's
        // queue has an armed entry.
        assert!(!f.fetch_picos_id(1, now).1.is_success());
        assert!(f.fetch_picos_id(3, now).1.is_success());
        assert!(f.delegate(3).stats().total_issued() > 0);
        assert_eq!(f.delegate(0).stats().total_issued(), 0);
    }
}
