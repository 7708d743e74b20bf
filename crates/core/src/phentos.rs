//! Phentos — the fly-weight Task Scheduling runtime of Section V-B.
//!
//! Phentos was written from scratch to squeeze every cycle out of the tightly-integrated
//! hardware. Its design goals, and how this model realises each of them:
//!
//! 1. **No non-IO syscalls** — the agents below never call [`CoreCtx::syscall`]; waiting is done
//!    with bounded spinning.
//! 2. **Few cache-line invalidations per submission** — task metadata lives in a *Task Metadata
//!    Array* whose elements are exactly one or two cache lines (64 B for up to 7 dependences,
//!    128 B for up to 15), so a submission writes one or two lines and a fetch reads them back.
//! 3. **Few cache-line moves per work fetch** — ready-task identity travels through the RoCC
//!    fabric (registers), not memory; only the metadata element is read.
//! 4. **Inlinable API** — modelled as plain function-call costs (no virtual dispatch).
//! 5. **Minimal writes to shared atomics** — each core keeps a *private* retirement counter and
//!    only folds it into the single shared atomic counter after a number of failed work fetches;
//!    the thread waiting in `taskwait` polls that counter only every few tens of cycles.
//! 6. **No false sharing** — metadata elements are cache-line aligned and the shared counter and
//!    done flag live on their own lines.
//!
//! The only simulated-memory data structures are therefore the metadata array, the shared
//! retirement counter and the done flag; everything else is per-core state.

use tis_machine::fabric::{FabricOutcome, IdlePoll, SchedulerFabric};
use tis_machine::{CoreCtx, CoreStatus, RuntimeSystem};
use tis_obs::TaskStage;
use tis_picos::encode_prefix_into;
use tis_sim::Cycle;
use tis_taskmodel::{
    ExecRecord, MaterializedSource, ProgramOp, SourcePoll, TaskProgram, TaskSource, TaskSpec,
};

/// Base simulated address of the Task Metadata Array.
const META_BASE: u64 = 0x9000_0000;
/// Simulated address of the single shared retirement counter (its own cache line).
const SHARED_RETIRE_COUNTER: u64 = 0x9F00_0000;
/// Simulated address of the program-done flag (its own cache line).
const DONE_FLAG: u64 = 0x9F00_0040;

/// Tuning knobs of the Phentos runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhentosConfig {
    /// Number of elements in the Task Metadata Array. Must exceed the number of tasks the
    /// hardware can keep in flight so that slot reuse (sw_id modulo slots) never collides with a
    /// live task.
    pub metadata_slots: usize,
    /// Cycles between two consecutive polls of the shared retirement counter while the main
    /// thread sits in `taskwait` (the paper uses 10–100 depending on the taskwait flavour).
    pub taskwait_poll_interval: Cycle,
    /// Number of consecutive failed work fetches after which a worker folds its private
    /// retirement counter into the shared atomic counter.
    pub flush_after_failures: u32,
    /// Cycles a worker backs off after a failed work fetch before polling again.
    pub worker_backoff: Cycle,
    /// Ablation switch: update the shared retirement counter after **every** retirement instead
    /// of batching through the per-core private counters (design goal 5 disabled). The
    /// `ablation_retirement_counters` bench uses this to quantify the cache-bouncing the private
    /// counters avoid.
    pub eager_shared_counter: bool,
}

impl Default for PhentosConfig {
    fn default() -> Self {
        PhentosConfig {
            metadata_slots: 512,
            taskwait_poll_interval: 50,
            flush_after_failures: 4,
            worker_backoff: 40,
            eager_shared_counter: false,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct WorkerState {
    /// Retirements not yet folded into the shared counter.
    private_retired: u64,
    /// Failed fetches since the last flush.
    failures_since_flush: u32,
    /// Ready-task requests issued but not yet answered by a successful Fetch Picos ID.
    outstanding_requests: u32,
    /// The worker observed the done flag and terminated.
    finished: bool,
    /// The worker's last step was a failed poll it repeats unchanged while the fabric keeps
    /// refusing it (see [`RuntimeSystem::idle_poll`]).
    idle_poll: Option<IdlePoll>,
}

/// The Phentos runtime plugged into the machine engine.
#[derive(Debug)]
pub struct Phentos {
    cfg: PhentosConfig,
    /// Where main-thread ops come from: a [`MaterializedSource`] for built programs, or a true
    /// streaming source holding only `O(window)` descriptors for million-task runs.
    source: Box<dyn TaskSource>,
    /// A pulled-but-not-yet-completed op. Sources consume ops on poll, so a submission that the
    /// saturated hardware rejects parks here and is retried — reproducing the old
    /// cursor-does-not-advance semantics exactly.
    pending: Option<ProgramOp>,
    /// The source answered [`SourcePoll::Done`]; only the final barrier remains.
    source_done: bool,
    element_bytes: u64,
    submitted: u64,
    /// Ground truth of the shared retirement counter's value in simulated memory.
    shared_retired: u64,
    total_retired: u64,
    done: bool,
    workers: Vec<WorkerState>,
    records: Vec<ExecRecord>,
    collect_records: bool,
    name: String,
    /// Scratch buffer for descriptor packets, reused across submissions.
    packet_scratch: Vec<u32>,
}

impl Phentos {
    /// Instantiates Phentos for a program on a machine with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation (a workload-generator bug).
    pub fn new(program: &TaskProgram, cores: usize, cfg: PhentosConfig) -> Self {
        program.validate().expect("program must satisfy the Picos descriptor constraints");
        Phentos::from_source(Box::new(MaterializedSource::new(program)), cores, cfg)
    }

    /// Instantiates Phentos over a streaming [`TaskSource`]: descriptors are pulled on demand
    /// and freed on retire, so memory stays `O(window)` no matter how many tasks the source
    /// streams. Driving a [`MaterializedSource`] through this constructor is byte-identical to
    /// [`Phentos::new`] on the underlying program.
    pub fn from_source(source: Box<dyn TaskSource>, cores: usize, cfg: PhentosConfig) -> Self {
        // Section V-B: one cache line is enough for up to 7 dependences, two for up to 15. A
        // pre-processor macro picks the size per application; we pick it per program, from the
        // source's declared bound (a stream cannot be scanned up front).
        let element_bytes = if source.max_deps() <= 7 { 64 } else { 128 };
        let name = format!("phentos({})", source.name());
        Phentos {
            cfg,
            source,
            pending: None,
            source_done: false,
            element_bytes,
            submitted: 0,
            shared_retired: 0,
            total_retired: 0,
            done: false,
            workers: vec![WorkerState::default(); cores],
            records: Vec::new(),
            collect_records: true,
            name,
            packet_scratch: Vec::new(),
        }
    }

    /// Disables per-task [`ExecRecord`] collection. Records are `O(tasks)` host memory — the
    /// one thing a bounded-window streamed run cannot afford — so million-task cells switch
    /// them off; every differential and validation path keeps the default (on).
    pub fn set_collect_records(&mut self, on: bool) {
        self.collect_records = on;
    }

    /// Size in bytes of one Task Metadata Array element for this program (64 or 128).
    pub fn metadata_element_bytes(&self) -> u64 {
        self.element_bytes
    }

    fn meta_addr(&self, sw_id: u64) -> u64 {
        META_BASE + (sw_id % self.cfg.metadata_slots as u64) * self.element_bytes
    }

    /// Worker-side fast path: request / fetch / execute / retire one task.
    /// Returns `true` if a task was executed.
    fn try_execute_one(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> bool {
        let core = ctx.core();
        let requested = self.workers[core].outstanding_requests == 0;
        if requested {
            let (lat, out) = fabric.ready_task_request(core, ctx.now());
            ctx.spend(lat);
            if out.is_success() {
                self.workers[core].outstanding_requests += 1;
            }
        }
        let (lat, out) = fabric.fetch_sw_id(core, ctx.now());
        ctx.spend(lat);
        let FabricOutcome::Success(sw_id) = out else {
            // The next poll repeats this one unless a request just went through.
            let accepted = requested && self.workers[core].outstanding_requests > 0;
            if !accepted {
                self.workers[core].idle_poll = Some(IdlePoll { rejected_request: requested });
            }
            return false;
        };
        let (lat, out) = fabric.fetch_picos_id(core, ctx.now());
        ctx.spend(lat);
        let FabricOutcome::Success(picos_id) = out else { return false };
        ctx.observe_task(TaskStage::Dispatched, sw_id);
        self.workers[core].outstanding_requests =
            self.workers[core].outstanding_requests.saturating_sub(1);

        // Read the task metadata element (one or two cache lines, written by the submitter).
        ctx.read(self.meta_addr(sw_id), self.element_bytes);
        let spec = self.source.spec(sw_id).clone();
        let start = ctx.now();
        ctx.execute_task_payload(sw_id, spec.payload);
        let end = ctx.now();
        if self.collect_records {
            self.records.push(ExecRecord { task: spec.id, core, start, end });
        }

        let lat = fabric.retire_task(core, picos_id, ctx.now());
        ctx.spend(lat);
        ctx.observe_task(TaskStage::Retired, sw_id);
        self.source.retire_at(sw_id, ctx.now());
        self.workers[core].private_retired += 1;
        self.workers[core].failures_since_flush = 0;
        self.total_retired += 1;
        if self.cfg.eager_shared_counter {
            self.flush_private(ctx);
        }
        true
    }

    /// Folds a core's private retirement counter into the shared atomic counter.
    fn flush_private(&mut self, ctx: &mut CoreCtx<'_>) {
        let core = ctx.core();
        if self.workers[core].private_retired == 0 {
            return;
        }
        ctx.atomic(SHARED_RETIRE_COUNTER);
        self.shared_retired += self.workers[core].private_retired;
        self.workers[core].private_retired = 0;
        self.workers[core].failures_since_flush = 0;
    }

    /// Submits the task at the program cursor. Returns `true` if the submission completed.
    fn submit_current(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric, spec: &TaskSpec) -> bool {
        let core = ctx.core();
        ctx.observe_task(TaskStage::Submitted, spec.id.raw());
        // Fill the metadata element (function arguments, payload description).
        ctx.call();
        ctx.write(self.meta_addr(spec.id.raw()), self.element_bytes);
        encode_prefix_into(spec.id.raw(), &spec.deps, &mut self.packet_scratch);
        let (lat, out) = fabric.submission_request(core, self.packet_scratch.len() as u32, ctx.now());
        ctx.spend(lat);
        if !out.is_success() {
            return false;
        }
        // Submit Three Packets: the non-zero packet count is always a multiple of three.
        for chunk in self.packet_scratch.chunks(3) {
            let (lat, out) = fabric.submit_packets(core, chunk, ctx.now());
            ctx.spend(lat);
            debug_assert!(out.is_success(), "packets following an accepted request are always accepted");
        }
        self.submitted += 1;
        true
    }

    fn step_main(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        if self.done {
            return CoreStatus::Finished;
        }
        // Pull the next op on demand. A blocked source (in-flight window full) is handled like
        // saturated hardware: execute resident work so retirements free the window. Streamed
        // dependences only point backwards, so the in-flight set always holds runnable work and
        // this cannot deadlock.
        if self.pending.is_none() && !self.source_done {
            // Time-aware sources (the multi-tenant merger) gate spawn release on the polling
            // core's clock; plain sources ignore this (default no-op).
            self.source.advance_to(ctx.now());
            match self.source.poll() {
                SourcePoll::Op(op) => self.pending = Some(op),
                SourcePoll::Blocked => {
                    if !self.try_execute_one(ctx, fabric) {
                        ctx.spin_backoff();
                    }
                    return CoreStatus::Progressed;
                }
                SourcePoll::Done => self.source_done = true,
            }
        }
        match self.pending.clone() {
            Some(ProgramOp::Spawn(spec)) => {
                if self.submit_current(ctx, fabric, &spec) {
                    self.pending = None;
                } else {
                    // Non-blocking submission failed (hardware saturated): do useful work
                    // instead of stalling — the deadlock-avoidance pattern of Section IV-C.
                    if !self.try_execute_one(ctx, fabric) {
                        ctx.spin_backoff();
                    }
                }
                CoreStatus::Progressed
            }
            Some(ProgramOp::TaskWait) => {
                let target = self.submitted;
                self.flush_private(ctx);
                ctx.read(SHARED_RETIRE_COUNTER, 8);
                if self.shared_retired >= target {
                    self.pending = None;
                    return CoreStatus::Progressed;
                }
                if self.try_execute_one(ctx, fabric) {
                    return CoreStatus::Progressed;
                }
                CoreStatus::Waiting { until: ctx.now() + self.cfg.taskwait_poll_interval }
            }
            None => {
                // Implicit final barrier, then publish the done flag.
                let target = self.submitted;
                self.flush_private(ctx);
                ctx.read(SHARED_RETIRE_COUNTER, 8);
                if self.shared_retired >= target {
                    ctx.write(DONE_FLAG, 8);
                    self.done = true;
                    self.workers[ctx.core()].finished = true;
                    return CoreStatus::Progressed;
                }
                if self.try_execute_one(ctx, fabric) {
                    return CoreStatus::Progressed;
                }
                CoreStatus::Waiting { until: ctx.now() + self.cfg.taskwait_poll_interval }
            }
        }
    }

    fn step_worker(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        let core = ctx.core();
        if self.workers[core].finished {
            return CoreStatus::Finished;
        }
        self.workers[core].idle_poll = None;
        if self.try_execute_one(ctx, fabric) {
            return CoreStatus::Progressed;
        }
        self.workers[core].failures_since_flush += 1;
        if self.workers[core].private_retired > 0 {
            // A later poll flushes the retirements instead of repeating this one.
            self.workers[core].idle_poll = None;
            if self.workers[core].failures_since_flush >= self.cfg.flush_after_failures {
                self.flush_private(ctx);
                return CoreStatus::Progressed;
            }
        }
        if self.done {
            // Observe the done flag (a real read of the shared line) and terminate.
            ctx.read(DONE_FLAG, 8);
            self.workers[core].finished = true;
            return CoreStatus::Finished;
        }
        CoreStatus::Waiting { until: ctx.now() + self.cfg.worker_backoff }
    }
}

impl RuntimeSystem for Phentos {
    fn name(&self) -> &'static str {
        "phentos"
    }

    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        if ctx.core() == 0 {
            self.step_main(ctx, fabric)
        } else {
            self.step_worker(ctx, fabric)
        }
    }

    fn is_finished(&self) -> bool {
        self.done
    }

    fn exec_records(&self) -> Vec<ExecRecord> {
        self.records.clone()
    }

    fn tasks_retired(&self) -> u64 {
        self.total_retired
    }

    fn peak_resident_tasks(&self) -> u64 {
        self.source.peak_resident() as u64
    }

    fn tenant_reports(&self) -> Vec<tis_taskmodel::TenantReport> {
        self.source.tenant_reports()
    }

    /// A worker with nothing to flush whose poll failed at *Fetch SW ID*. The main thread
    /// never qualifies: its polls read the shared retirement counter.
    fn idle_poll(&self, core: usize) -> Option<IdlePoll> {
        if core == 0 {
            return None;
        }
        self.workers[core].idle_poll
    }

    fn charge_idle_polls(&mut self, core: usize, n: u64) {
        let w = &mut self.workers[core];
        w.failures_since_flush = w.failures_since_flush.saturating_add(u32::try_from(n).unwrap_or(u32::MAX));
    }
}

impl Phentos {
    /// Descriptive name including the program (useful in multi-run reports).
    pub fn qualified_name(&self) -> &str {
        &self.name
    }

    /// Mutable access to the task source, for post-run recovery of source-side state (the
    /// multi-tenant harness downcasts it to take the tenant assignment).
    pub fn source_mut(&mut self) -> &mut dyn TaskSource {
        self.source.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::TisFabric;
    use tis_machine::{run_machine, MachineConfig};
    use tis_taskmodel::{Dependence, Payload, ProgramBuilder};

    fn run(program: &TaskProgram, cores: usize) -> tis_machine::ExecutionReport {
        let cfg = MachineConfig::rocket_with_cores(cores);
        let mut runtime = Phentos::new(program, cores, PhentosConfig::default());
        let mut fabric = TisFabric::with_cores(cores);
        run_machine(&cfg, &mut runtime, &mut fabric).expect("phentos run completes")
    }

    #[test]
    fn independent_tasks_run_and_validate() {
        let mut b = ProgramBuilder::new("indep");
        for i in 0..20u64 {
            b.spawn(Payload::compute(2_000), vec![Dependence::write(0x1_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let report = run(&p, 4);
        assert_eq!(report.tasks_retired, 20);
        assert_eq!(report.records.len(), 20);
        report.validate_against(&p).expect("dependences and core exclusivity hold");
    }

    #[test]
    fn dependent_chain_executes_in_order() {
        let mut b = ProgramBuilder::new("chain");
        for _ in 0..10 {
            b.spawn(Payload::compute(500), vec![Dependence::read_write(0x2_0000)]);
        }
        b.taskwait();
        let p = b.build();
        let report = run(&p, 4);
        assert_eq!(report.tasks_retired, 10);
        report.validate_against(&p).expect("chain order must hold");
        // A pure chain cannot go faster than the sum of its payloads.
        assert!(report.total_cycles >= 10 * 500);
    }

    #[test]
    fn parallel_speedup_on_coarse_tasks() {
        let mut b = ProgramBuilder::new("coarse");
        for i in 0..64u64 {
            b.spawn(Payload::compute(100_000), vec![Dependence::write(0x3_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let serial = p.serial_cycles(16.0, 8);
        let report = run(&p, 8);
        let speedup = report.speedup_over(serial);
        assert!(speedup > 5.0, "coarse independent tasks on 8 cores should scale well, got {speedup:.2}");
        report.validate_against(&p).unwrap();
    }

    #[test]
    fn fine_grained_overhead_is_hundreds_of_cycles() {
        // Task-Free-style microbenchmark on a single core: total cycles per task is the
        // lifetime scheduling overhead, which must land in the few-hundred-cycle range of
        // Figure 7 (Phentos row), far below the ~12k of Nanos-RV.
        let mut b = ProgramBuilder::new("taskfree");
        for i in 0..200u64 {
            b.spawn(Payload::empty(), vec![Dependence::write(0x5_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let report = run(&p, 1);
        let per_task = report.mean_cycles_per_task();
        assert!(
            per_task > 50.0 && per_task < 1_500.0,
            "phentos lifetime overhead should be hundreds of cycles, got {per_task:.0}"
        );
    }

    #[test]
    fn taskwait_phases_are_respected() {
        let mut b = ProgramBuilder::new("phases");
        for i in 0..6u64 {
            b.spawn(Payload::compute(1_000), vec![Dependence::write(0x6_0000 + i * 64)]);
        }
        b.taskwait();
        for i in 0..6u64 {
            b.spawn(Payload::compute(1_000), vec![Dependence::write(0x7_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let report = run(&p, 4);
        assert_eq!(report.tasks_retired, 12);
        report.validate_against(&p).expect("barrier must separate the two phases");
    }

    #[test]
    fn metadata_element_size_follows_dependence_count() {
        let mut small = ProgramBuilder::new("small");
        small.spawn(Payload::empty(), (0..7u64).map(|i| Dependence::write(i * 64)).collect());
        let mut big = ProgramBuilder::new("big");
        big.spawn(Payload::empty(), (0..15u64).map(|i| Dependence::write(i * 64)).collect());
        assert_eq!(Phentos::new(&small.build(), 2, PhentosConfig::default()).metadata_element_bytes(), 64);
        assert_eq!(Phentos::new(&big.build(), 2, PhentosConfig::default()).metadata_element_bytes(), 128);
    }

    #[test]
    fn workers_whose_ready_request_was_rejected_report_an_idle_poll_too() {
        use crate::fabric::TisConfig;
        use crate::manager::ManagerConfig;
        /// Forwards Phentos and records the idle polls its agents report after each step.
        struct Probe {
            inner: Phentos,
            seen: Vec<(usize, IdlePoll)>,
        }
        impl RuntimeSystem for Probe {
            fn name(&self) -> &'static str {
                self.inner.name()
            }
            fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
                let status = self.inner.step_core(ctx, fabric);
                if let Some(poll) = self.inner.idle_poll(ctx.core()) {
                    assert!(matches!(status, CoreStatus::Waiting { .. }), "an idle poll backs off");
                    self.seen.push((ctx.core(), poll));
                }
                status
            }
            fn is_finished(&self) -> bool {
                self.inner.is_finished()
            }
            fn exec_records(&self) -> Vec<ExecRecord> {
                self.inner.exec_records()
            }
            fn tasks_retired(&self) -> u64 {
                self.inner.tasks_retired()
            }
        }
        // One routing slot for three workers: at most one holds a request, the others' are
        // rejected poll after poll.
        let mut b = ProgramBuilder::new("few");
        for i in 0..6u64 {
            b.spawn(Payload::compute(20_000), vec![Dependence::write(0x9_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let tis = TisConfig {
            manager: ManagerConfig { routing_queue_depth: 1, ..ManagerConfig::default() },
            ..TisConfig::default()
        };
        let mut probe = Probe { inner: Phentos::new(&p, 4, PhentosConfig::default()), seen: Vec::new() };
        run_machine(&MachineConfig::rocket_with_cores(4), &mut probe, &mut TisFabric::new(4, tis)).unwrap();
        assert!(probe.seen.iter().all(|&(core, _)| core != 0), "the main thread never parks");
        for rejected_request in [false, true] {
            assert!(
                probe.seen.iter().any(|&(_, poll)| poll == IdlePoll { rejected_request }),
                "no idle poll with rejected_request = {rejected_request}"
            );
        }
    }

    #[test]
    fn main_thread_executes_tasks_when_hardware_saturates() {
        // More independent tasks than the Picos task memory can hold: the main thread's
        // submissions start failing and it must pick up work itself (Section IV-C pattern).
        use crate::fabric::TisConfig;
        use tis_picos::{PicosConfig, TrackerConfig};
        let mut b = ProgramBuilder::new("saturate");
        for i in 0..40u64 {
            b.spawn(Payload::compute(200), vec![Dependence::write(0x8_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let cores = 1usize; // only the main thread exists, so it must execute everything
        let cfg = MachineConfig::rocket_with_cores(cores);
        let tis = TisConfig {
            picos: PicosConfig {
                tracker: TrackerConfig { task_memory_entries: 4, address_table_entries: 64 },
                ..PicosConfig::default()
            },
            ..TisConfig::default()
        };
        let mut runtime = Phentos::new(&p, cores, PhentosConfig::default());
        let mut fabric = TisFabric::new(cores, tis);
        let report = run_machine(&cfg, &mut runtime, &mut fabric).expect("no deadlock despite saturation");
        assert_eq!(report.tasks_retired, 40);
        report.validate_against(&p).unwrap();
    }
}
