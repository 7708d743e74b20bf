//! The deterministic execution engine.
//!
//! One runtime *agent* runs per core (the paper pins one runtime thread per hardware core). The
//! engine repeatedly advances the agent whose local clock is furthest behind, handing it a
//! [`CoreCtx`] to spend cycles through and the machine's [`SchedulerFabric`] to issue Table-I
//! operations against. The run ends when the [`RuntimeSystem`] declares the program finished, or
//! with an error if no agent makes progress (a genuine deadlock, e.g. when the blocking-
//! instruction ablation of Section IV-C is enabled) or the configured cycle cap is exceeded.
//!
//! An agent whose step was an [`IdlePoll`] — a failed request for work that it repeats
//! unchanged — is *parked*: the engine skips its repeats while the fabric stays quiet for its
//! core and charges them in closed form, with exactly the stepwise result (see
//! [`RuntimeSystem::idle_poll`] and [`SchedulerFabric::quiet_horizon`]).

use tis_mem::{BandwidthModel, FaultDiagnosis, MemorySystem};
use tis_obs::{MemEvent, MetricsSample, Observer, TaskEvent, TaskStage};
use tis_sim::Cycle;

use crate::config::MachineConfig;
use crate::context::{CoreCtx, CoreStats};
use crate::fabric::{IdlePoll, SchedulerFabric};
use crate::report::ExecutionReport;
use tis_taskmodel::ExecRecord;

/// What a runtime agent reports after one step on its core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// The agent did useful work and should be stepped again.
    Progressed,
    /// The agent has nothing to do before (approximately) the given cycle.
    Waiting {
        /// Cycle at which the agent wants to be polled again.
        until: Cycle,
    },
    /// The agent has terminated and must not be stepped again.
    Finished,
}

/// A runtime plugged into the machine: it owns the program being executed and the per-core agent
/// state, and spends cycles exclusively through the [`CoreCtx`] it is handed.
///
/// Runtimes are *pull-based*: the engine never hands them work — each step the agent decides
/// what to do next, pulling ops from its task source (materialized or streaming) and task
/// identities from the fabric. This keeps the single inner loop of `run_machine_inner`
/// workload-shape agnostic: a million-task streamed cell and a 40-task materialized one drive
/// the exact same engine code.
pub trait RuntimeSystem {
    /// Human-readable runtime name (e.g. `"phentos"`, `"nanos-sw"`).
    fn name(&self) -> &'static str;

    /// Advances the agent pinned to `ctx.core()` by one step.
    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus;

    /// Whether the whole program has completed (every task submitted, executed and retired, and
    /// the main thread has passed its final barrier).
    fn is_finished(&self) -> bool;

    /// Per-task execution records for validation against the reference dependence graph.
    fn exec_records(&self) -> Vec<ExecRecord>;

    /// Number of tasks the runtime has retired so far.
    fn tasks_retired(&self) -> u64;

    /// High-water mark of task descriptors resident in the runtime's task source over the whole
    /// run — the memory-footprint proxy the streaming-scale gate checks against the configured
    /// in-flight window. Runtimes that do not stream (every test double, and any runtime built
    /// before the streaming refactor) report `0`.
    fn peak_resident_tasks(&self) -> u64 {
        0
    }

    /// Per-tenant serving metrics, if the runtime's task source multiplexes tenants. Empty for
    /// single-program runs and for every runtime predating multi-tenant serving, which keeps
    /// legacy [`ExecutionReport`]s bit-identical.
    fn tenant_reports(&self) -> Vec<tis_taskmodel::TenantReport> {
        Vec::new()
    }

    /// Whether the step just taken on `core` was an [`IdlePoll`] that the agent repeats
    /// unchanged while the fabric keeps refusing it: it spent only the latencies of its fabric
    /// operations plus the `Waiting` backoff, touched no memory, changed no state the next step
    /// depends on, and the next step issues the same operations. The engine then skips the
    /// repeats the fabric declares quiet. The default, `None`, steps every poll.
    fn idle_poll(&self, _core: usize) -> Option<IdlePoll> {
        None
    }

    /// Accounts `n` skipped repeats of `core`'s idle poll in the agent's own state, exactly as
    /// if each had been stepped.
    fn charge_idle_polls(&mut self, _core: usize, _n: u64) {}
}

/// Errors terminating a simulation without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No agent made progress for a long stretch of simulated time while the program was still
    /// unfinished — the system is deadlocked or livelocked.
    NoProgress {
        /// Simulated cycle at which the engine gave up.
        cycle: Cycle,
        /// Runtime that was executing.
        runtime: String,
    },
    /// The configured `max_cycles` cap was exceeded.
    CycleLimitExceeded {
        /// The configured limit.
        limit: Cycle,
        /// Runtime that was executing.
        runtime: String,
    },
    /// Every agent terminated but the runtime still reports unfinished work.
    AllAgentsFinishedEarly {
        /// Runtime that was executing.
        runtime: String,
    },
    /// An injected fault exhausted its recovery budget (a message's route crosses a dead NoC
    /// link): the engine aborts with the detector's precise diagnosis — which resource
    /// faulted, which message hit it, and how many tasks were left blocked — instead of
    /// hanging or silently computing a wrong answer.
    UnrecoverableFault {
        /// What the fault detector recorded: the dead link and the message that hit it.
        diagnosis: FaultDiagnosis,
        /// Simulated cycle at which the engine observed the diagnosis and gave up.
        cycle: Cycle,
        /// Tasks retired before the fault struck.
        tasks_retired: u64,
        /// Submitted tasks left blocked by the fault (submitted minus retired).
        tasks_blocked: u64,
        /// Runtime that was executing.
        runtime: String,
    },
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::NoProgress { cycle, runtime } => {
                write!(f, "no progress by any core of runtime '{runtime}' around cycle {cycle} (deadlock)")
            }
            EngineError::CycleLimitExceeded { limit, runtime } => {
                write!(f, "runtime '{runtime}' exceeded the {limit}-cycle simulation cap")
            }
            EngineError::AllAgentsFinishedEarly { runtime } => {
                write!(f, "all agents of runtime '{runtime}' terminated before the program completed")
            }
            EngineError::UnrecoverableFault { diagnosis, cycle, tasks_retired, tasks_blocked, runtime } => {
                write!(
                    f,
                    "unrecoverable fault in runtime '{runtime}': dead link {} never delivered the \
                     message from core {} to core {} issued at cycle {} ({} attempts); detected at \
                     cycle {cycle} with {tasks_retired} tasks retired and {tasks_blocked} blocked",
                    diagnosis.link, diagnosis.from, diagnosis.to, diagnosis.cycle, diagnosis.attempts
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// How long (in simulated cycles) the engine tolerates a complete absence of progress before
/// declaring a deadlock.
const NO_PROGRESS_WINDOW: Cycle = 50_000_000;

/// Runs `runtime` on a machine described by `cfg`, using `fabric` as the task-scheduling
/// hardware, and returns the execution report.
///
/// # Errors
///
/// Returns an [`EngineError`] if the simulation deadlocks, exceeds the configured cycle cap, or
/// every agent terminates with work outstanding.
pub fn run_machine(
    cfg: &MachineConfig,
    runtime: &mut dyn RuntimeSystem,
    fabric: &mut dyn SchedulerFabric,
) -> Result<ExecutionReport, EngineError> {
    run_machine_inner(cfg, runtime, fabric, None)
}

/// [`run_machine`] with an observer attached: task-lifecycle events, memory events (when the
/// observer wants them) and cycle-bucketed metrics samples flow to `obs` as the run executes.
///
/// Observation is pure: it never spends simulated cycles, so the returned report — makespan,
/// per-core stats, fabric and memory statistics — is identical to the unobserved run's.
///
/// # Errors
///
/// Exactly as [`run_machine`].
pub fn run_machine_observed(
    cfg: &MachineConfig,
    runtime: &mut dyn RuntimeSystem,
    fabric: &mut dyn SchedulerFabric,
    obs: &mut dyn Observer,
) -> Result<ExecutionReport, EngineError> {
    run_machine_inner(cfg, runtime, fabric, Some(obs))
}

/// Snapshot of every gauge at `cycle`, assembled from the engine's own accounting plus the
/// fabric's and memory system's occupancy/statistics views.
fn build_sample(
    cycle: Cycle,
    fabric: &dyn SchedulerFabric,
    core_stats: &[CoreStats],
    mem: &MemorySystem,
) -> MetricsSample {
    let (in_flight, ready) = fabric.occupancy();
    let ms = mem.stats();
    MetricsSample {
        cycle,
        tracker_in_flight: in_flight as u64,
        ready_queue_len: ready as u64,
        core_busy_cycles: core_stats.iter().map(|s| s.payload_cycles + s.runtime_cycles).collect(),
        core_idle_cycles: core_stats.iter().map(|s| s.idle_cycles).collect(),
        mem_accesses: ms.accesses,
        mem_stall_cycles: ms.stall_cycles,
        dram_fetches: ms.dram_fetches,
        dram_writebacks: ms.dram_writebacks,
        invalidations: ms.invalidations,
        dirty_bounces: ms.dirty_bounces,
        noc_messages: ms.noc_messages,
        noc_flits: ms.noc_flits,
        noc_link_wait_cycles: ms.noc_link_wait_cycles,
        max_link_occupancy: ms.max_link_occupancy,
    }
}

/// A core whose repeated [`IdlePoll`]s the engine skips instead of stepping.
#[derive(Debug, Clone, Copy)]
struct Parked {
    poll: IdlePoll,
    /// Start cycle of the earliest skipped poll not yet charged.
    next: Cycle,
    /// Cycles from one poll's start to the next.
    period: Cycle,
    /// Runtime cycles each poll spends on its fabric operations; the rest of the period is
    /// idle backoff.
    busy: Cycle,
}

impl Parked {
    /// Start cycle of the first poll at or after `t`.
    fn poll_at_or_after(&self, t: Cycle) -> Cycle {
        if t <= self.next {
            return self.next;
        }
        let k = (t - self.next).div_ceil(self.period);
        self.next.saturating_add(k.saturating_mul(self.period))
    }

    /// Charges the skipped polls that start before `until`, as their steps would have.
    fn charge(
        &mut self,
        core: usize,
        until: Cycle,
        stats: &mut CoreStats,
        runtime: &mut dyn RuntimeSystem,
        fabric: &mut dyn SchedulerFabric,
    ) {
        if until <= self.next {
            return;
        }
        let n = (until - self.next).div_ceil(self.period);
        stats.runtime_cycles += n * self.busy;
        stats.idle_cycles += n * (self.period - self.busy);
        runtime.charge_idle_polls(core, n);
        fabric.charge_failed_polls(core, self.poll, n);
        self.next += n * self.period;
    }
}

/// First cycle at which a poll by `core` comes after the step `stepped` took at `now` in the
/// engine's order: the laggard steps first, ties going to the lowest core.
fn first_after(core: usize, now: Cycle, stepped: usize) -> Cycle {
    if core < stepped {
        now + 1
    } else {
        now
    }
}

/// Idle-poll parking. A core whose last step was an [`IdlePoll`] is not stepped again until
/// its first poll at or after the earliest of the fabric's quiet horizon for it, the next
/// metrics-sample boundary, the cycle cap and the watchdog bound. Its `core_time` holds that
/// wake poll, so the laggard order is the stepwise one.
///
/// The result is exact. A skipped poll fails without changing anything another core can see,
/// so every other step happens as it would have. Another core's step can change what a
/// parked core's polls would see, so every step re-derives every parked core's wake poll.
/// Skipped polls are charged in closed form when their core wakes and, for every parked core,
/// before each metrics sample, on an error and at the end of the run: each time exactly the
/// polls that precede the current step in engine order.
struct Parking {
    cores: Vec<Option<Parked>>,
    count: usize,
}

impl Parking {
    fn new(cores: usize) -> Self {
        Parking { cores: vec![None; cores], count: 0 }
    }

    /// Unparks `core`, whose wake poll at `now` the engine is about to step, charging the
    /// polls it skipped before it.
    fn wake(
        &mut self,
        core: usize,
        now: Cycle,
        stats: &mut CoreStats,
        runtime: &mut dyn RuntimeSystem,
        fabric: &mut dyn SchedulerFabric,
    ) {
        if let Some(mut p) = self.cores[core].take() {
            self.count -= 1;
            p.charge(core, now, stats, runtime, fabric);
        }
    }

    /// After the step `stepped` took at `now`: re-derives every parked core's wake poll, then
    /// parks `stepped` if its step was the `idle` poll. No wake is later than `bound`.
    fn update(
        &mut self,
        now: Cycle,
        stepped: usize,
        idle: Option<Parked>,
        bound: Cycle,
        core_time: &mut [Cycle],
        fabric: &dyn SchedulerFabric,
    ) {
        for (core, slot) in self.cores.iter().enumerate() {
            if let Some(p) = slot {
                let quiet = fabric.quiet_horizon(core, p.poll).min(bound);
                core_time[core] = p.poll_at_or_after(quiet.max(first_after(core, now, stepped)));
            }
        }
        if let Some(p) = idle {
            let wake = p.poll_at_or_after(fabric.quiet_horizon(stepped, p.poll).min(bound));
            if wake > p.next {
                core_time[stepped] = wake;
                self.cores[stepped] = Some(p);
                self.count += 1;
            }
        }
    }

    /// Charges every parked core's skipped polls that come before the step `stepped` took at
    /// `now`.
    fn settle(
        &mut self,
        now: Cycle,
        stepped: usize,
        stats: &mut [CoreStats],
        runtime: &mut dyn RuntimeSystem,
        fabric: &mut dyn SchedulerFabric,
    ) {
        if self.count == 0 {
            return;
        }
        for (core, slot) in self.cores.iter_mut().enumerate() {
            if let Some(p) = slot {
                p.charge(core, first_after(core, now, stepped), &mut stats[core], runtime, fabric);
            }
        }
    }
}

fn run_machine_inner(
    cfg: &MachineConfig,
    runtime: &mut dyn RuntimeSystem,
    fabric: &mut dyn SchedulerFabric,
    mut obs: Option<&mut dyn Observer>,
) -> Result<ExecutionReport, EngineError> {
    cfg.validate();
    let cores = cfg.cores;
    let mut mem =
        MemorySystem::with_model_and_faults(cores, cfg.l1, cfg.mem_latencies, cfg.memory_model, cfg.fault);
    let mut dram = BandwidthModel::new(cfg.dram_bytes_per_cycle);
    // Arm the buffered observability paths only when a run carries an observer; unobserved runs
    // keep every flag false and every emission a dead branch.
    let sample_interval = match obs.as_deref_mut() {
        Some(o) => {
            fabric.set_observing(true);
            mem.set_observing(o.wants_mem_events());
            o.sample_interval()
        }
        None => None,
    };
    // First bucket boundary; `now` below is non-decreasing (the engine always steps the
    // laggard core), so crossing boundaries in step order yields a monotone timeline.
    let mut next_sample: Cycle = sample_interval.unwrap_or(Cycle::MAX);
    // Under fault injection the caller may tighten the deadlock watchdog so a dead link is
    // diagnosed in test-sized budgets rather than after the default 50M-cycle window.
    let watchdog_window = if cfg.fault.watchdog_cycles > 0 { cfg.fault.watchdog_cycles } else { NO_PROGRESS_WINDOW };
    let mut core_time: Vec<Cycle> = vec![0; cores];
    let mut core_stats: Vec<CoreStats> = vec![CoreStats::default(); cores];
    let mut finished: Vec<bool> = vec![false; cores];
    let mut last_progress: Cycle = 0;
    let mut parking = Parking::new(cores);
    // The last step taken, `(now, core)`: parked cores are charged up to it when the run ends.
    let mut last_step: Option<(Cycle, usize)> = None;
    // Debug builds audit the memory system's global invariants (SWMR, directory precision)
    // every few thousand steps, catching a corrupted sharer set mid-run instead of at the
    // end of a property test. Stride-based so the check stays off the per-step hot path;
    // compiled out entirely in release builds.
    #[cfg(debug_assertions)]
    let mut steps_since_audit: u32 = 0;

    loop {
        if runtime.is_finished() {
            break;
        }
        #[cfg(debug_assertions)]
        {
            steps_since_audit += 1;
            if steps_since_audit >= 8192 {
                steps_since_audit = 0;
                if let Err(e) = mem.check_coherence_invariants() {
                    panic!("coherence invariant violated mid-run (runtime '{}'): {e}", runtime.name());
                }
            }
        }
        // Pick the live core that is furthest behind in time.
        let Some(core) = (0..cores).filter(|&c| !finished[c]).min_by_key(|&c| core_time[c]) else {
            return Err(EngineError::AllAgentsFinishedEarly { runtime: runtime.name().to_string() });
        };
        let now = core_time[core];
        parking.wake(core, now, &mut core_stats[core], runtime, fabric);
        if now > cfg.max_cycles {
            parking.settle(now, core, &mut core_stats, runtime, fabric);
            return Err(EngineError::CycleLimitExceeded {
                limit: cfg.max_cycles,
                runtime: runtime.name().to_string(),
            });
        }
        if now.saturating_sub(last_progress) > watchdog_window {
            parking.settle(now, core, &mut core_stats, runtime, fabric);
            return Err(EngineError::NoProgress { cycle: now, runtime: runtime.name().to_string() });
        }

        let status;
        let end_time;
        {
            fabric.set_time_horizon(now);
            let mut ctx = CoreCtx::new(core, now, &mut mem, &mut dram, &cfg.costs, &mut core_stats[core]);
            if let Some(o) = obs.as_deref_mut() {
                ctx = ctx.with_observer(o);
            }
            status = runtime.step_core(&mut ctx, fabric);
            end_time = ctx.finish();
        }
        last_step = Some((now, core));
        if let Some(o) = obs.as_deref_mut() {
            // Device-side dependence resolutions surface through the fabric's ready log: the
            // scheduler, not a core, crossed these tasks into Ready.
            fabric.drain_ready_log(&mut |cycle, sw_id| {
                o.on_task(&TaskEvent { cycle, task: sw_id, core: None, stage: TaskStage::Ready, arg: 0 });
            });
            mem.drain_noc_legs(&mut |leg| {
                o.on_mem(&MemEvent::NocLeg {
                    cycle: leg.at,
                    from: leg.from,
                    to: leg.to,
                    flits: leg.flits,
                    wait_cycles: leg.wait_cycles,
                });
            });
            if now >= next_sample {
                parking.settle(now, core, &mut core_stats, runtime, fabric);
                o.on_sample(&build_sample(now, fabric, &core_stats, &mem));
                let interval = sample_interval.unwrap_or(Cycle::MAX);
                next_sample = (now / interval + 1).saturating_mul(interval);
            }
        }
        // The step as a parkable poll, if it was one: it repeats from `resume` on.
        let mut idle = None;
        match status {
            CoreStatus::Progressed => {
                // Guarantee forward motion even if the agent forgot to spend cycles.
                core_time[core] = end_time.max(now + 1);
                last_progress = last_progress.max(core_time[core]);
            }
            CoreStatus::Waiting { until } => {
                let resume = until.max(end_time).max(now + 1);
                core_stats[core].idle_cycles += resume - end_time;
                core_time[core] = resume;
                idle = runtime.idle_poll(core).map(|poll| Parked {
                    poll,
                    next: resume,
                    period: resume - now,
                    busy: end_time - now,
                });
            }
            CoreStatus::Finished => {
                core_time[core] = end_time.max(now);
                finished[core] = true;
                last_progress = last_progress.max(core_time[core]);
            }
        }
        // A dead-link diagnosis recorded during this step means some message can never be
        // delivered: abort with the detector's report instead of spinning until the watchdog.
        if let Some(diagnosis) = mem.fault_diagnosis() {
            parking.settle(now, core, &mut core_stats, runtime, fabric);
            let retired = runtime.tasks_retired();
            let submitted = fabric.stats().tasks_submitted;
            return Err(EngineError::UnrecoverableFault {
                diagnosis,
                cycle: core_time[core],
                tasks_retired: retired,
                tasks_blocked: submitted.saturating_sub(retired),
                runtime: runtime.name().to_string(),
            });
        }
        if parking.count > 0 || idle.is_some() {
            // A parked core must step for real at its first poll that would take a metrics
            // sample, pass the cycle cap or trip the watchdog.
            let bound = next_sample
                .min(cfg.max_cycles.saturating_add(1))
                .min(last_progress.saturating_add(watchdog_window).saturating_add(1));
            parking.update(now, core, idle, bound, &mut core_time, fabric);
        }
    }
    // Parked cores end where stepping them would have left them: at their first poll after
    // the last step.
    if let Some((now, stepped)) = last_step {
        parking.settle(now, stepped, &mut core_stats, runtime, fabric);
        for (c, slot) in parking.cores.iter().enumerate() {
            if let Some(p) = slot {
                core_time[c] = p.next;
            }
        }
    }

    // The program's makespan is the time of the latest agent that actually did something; idle
    // workers parked far in the future (waiting for work that never came) do not extend it.
    let total_cycles = core_time
        .iter()
        .zip(core_stats.iter())
        .filter(|(_, s)| s.total_cycles() > 0)
        .map(|(&t, _)| t)
        .max()
        .unwrap_or_else(|| core_time.iter().copied().max().unwrap_or(0));

    if let Some(o) = obs {
        // One closing sample at the makespan so the timeline always ends on the final state.
        if sample_interval.is_some() {
            o.on_sample(&build_sample(total_cycles, fabric, &core_stats, &mem));
        }
        fabric.set_observing(false);
        mem.set_observing(false);
    }

    Ok(ExecutionReport {
        runtime: runtime.name().to_string(),
        fabric: fabric.name().to_string(),
        cores,
        total_cycles,
        core_stats,
        records: runtime.exec_records(),
        fabric_stats: fabric.stats(),
        memory_stats: mem.stats(),
        tasks_retired: runtime.tasks_retired(),
        peak_resident_tasks: runtime.peak_resident_tasks(),
        tenants: runtime.tenant_reports(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::NullFabric;
    use tis_taskmodel::TaskId;

    /// A toy runtime: each core executes `per_core` dummy "tasks" of 100 cycles each.
    struct ToyRuntime {
        per_core: u64,
        done: Vec<u64>,
        records: Vec<ExecRecord>,
    }

    impl ToyRuntime {
        fn new(cores: usize, per_core: u64) -> Self {
            ToyRuntime { per_core, done: vec![0; cores], records: Vec::new() }
        }
    }

    impl RuntimeSystem for ToyRuntime {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn step_core(&mut self, ctx: &mut CoreCtx<'_>, _fabric: &mut dyn SchedulerFabric) -> CoreStatus {
            let core = ctx.core();
            if self.done[core] >= self.per_core {
                return CoreStatus::Finished;
            }
            let start = ctx.now();
            ctx.spend(100);
            let id = (core as u64) * self.per_core + self.done[core];
            self.records.push(ExecRecord { task: TaskId(id), core, start, end: ctx.now() });
            self.done[core] += 1;
            CoreStatus::Progressed
        }
        fn is_finished(&self) -> bool {
            self.done.iter().all(|&d| d >= self.per_core)
        }
        fn exec_records(&self) -> Vec<ExecRecord> {
            self.records.clone()
        }
        fn tasks_retired(&self) -> u64 {
            self.done.iter().sum()
        }
    }

    /// A runtime that never progresses: every core waits forever.
    struct StuckRuntime;
    impl RuntimeSystem for StuckRuntime {
        fn name(&self) -> &'static str {
            "stuck"
        }
        fn step_core(&mut self, ctx: &mut CoreCtx<'_>, _f: &mut dyn SchedulerFabric) -> CoreStatus {
            CoreStatus::Waiting { until: ctx.now() + 1_000 }
        }
        fn is_finished(&self) -> bool {
            false
        }
        fn exec_records(&self) -> Vec<ExecRecord> {
            Vec::new()
        }
        fn tasks_retired(&self) -> u64 {
            0
        }
    }

    #[test]
    fn toy_runtime_runs_to_completion() {
        let cfg = MachineConfig::small_test();
        let mut rt = ToyRuntime::new(cfg.cores, 5);
        let mut fabric = NullFabric::new();
        let report = run_machine(&cfg, &mut rt, &mut fabric).unwrap();
        assert_eq!(report.tasks_retired, 10);
        assert_eq!(report.records.len(), 10);
        assert_eq!(report.total_cycles, 500, "each core runs 5 x 100 cycles in parallel");
        assert_eq!(report.cores, 2);
        assert_eq!(report.runtime, "toy");
        assert!(report.core_stats.iter().all(|s| s.runtime_cycles == 500));
    }

    #[test]
    fn toy_runtime_runs_under_the_directory_model_too() {
        let cfg =
            MachineConfig::small_test().with_memory_model(tis_mem::MemoryModel::directory_mesh());
        let mut rt = ToyRuntime::new(cfg.cores, 5);
        let mut fabric = NullFabric::new();
        let report = run_machine(&cfg, &mut rt, &mut fabric).unwrap();
        assert_eq!(report.tasks_retired, 10);
        assert_eq!(report.total_cycles, 500, "a memory-silent runtime is model-independent");
        assert_eq!(report.memory_stats.bus_transactions, 0);
    }

    #[test]
    fn stuck_runtime_is_detected() {
        let mut cfg = MachineConfig::small_test();
        cfg.max_cycles = 1_000_000;
        let mut rt = StuckRuntime;
        let mut fabric = NullFabric::new();
        let err = run_machine(&cfg, &mut rt, &mut fabric).unwrap_err();
        match err {
            EngineError::CycleLimitExceeded { limit, .. } => assert_eq!(limit, 1_000_000),
            EngineError::NoProgress { .. } => {}
            other => panic!("expected a progress error, got {other:?}"),
        }
    }

    #[test]
    fn all_agents_finished_early_is_an_error() {
        struct QuitRuntime;
        impl RuntimeSystem for QuitRuntime {
            fn name(&self) -> &'static str {
                "quit"
            }
            fn step_core(&mut self, _ctx: &mut CoreCtx<'_>, _f: &mut dyn SchedulerFabric) -> CoreStatus {
                CoreStatus::Finished
            }
            fn is_finished(&self) -> bool {
                false
            }
            fn exec_records(&self) -> Vec<ExecRecord> {
                Vec::new()
            }
            fn tasks_retired(&self) -> u64 {
                0
            }
        }
        let cfg = MachineConfig::small_test();
        let err = run_machine(&cfg, &mut QuitRuntime, &mut NullFabric::new()).unwrap_err();
        assert!(matches!(err, EngineError::AllAgentsFinishedEarly { .. }));
        assert!(err.to_string().contains("quit"));
    }

    #[test]
    fn engine_error_display() {
        let e = EngineError::NoProgress { cycle: 123, runtime: "x".into() };
        assert!(e.to_string().contains("deadlock"));
        let e = EngineError::CycleLimitExceeded { limit: 7, runtime: "x".into() };
        assert!(e.to_string().contains('7'));
    }

    /// A runtime whose cores read each other's cache lines, so directory traffic crosses the
    /// mesh and the fault layer (when configured) sees real NoC messages.
    struct SharingRuntime {
        rounds: u64,
        done: Vec<u64>,
    }

    impl SharingRuntime {
        fn new(cores: usize, rounds: u64) -> Self {
            SharingRuntime { rounds, done: vec![0; cores] }
        }
    }

    impl RuntimeSystem for SharingRuntime {
        fn name(&self) -> &'static str {
            "sharing"
        }
        fn step_core(&mut self, ctx: &mut CoreCtx<'_>, _f: &mut dyn SchedulerFabric) -> CoreStatus {
            let core = ctx.core();
            if self.done[core] >= self.rounds {
                return CoreStatus::Finished;
            }
            // Read a line homed on (and written by) the *other* core.
            let peer = (core + 1) % self.done.len();
            ctx.write(64 * core as u64, 8);
            ctx.read(64 * peer as u64, 8);
            self.done[core] += 1;
            CoreStatus::Progressed
        }
        fn is_finished(&self) -> bool {
            self.done.iter().all(|&d| d >= self.rounds)
        }
        fn exec_records(&self) -> Vec<ExecRecord> {
            Vec::new()
        }
        fn tasks_retired(&self) -> u64 {
            self.done.iter().sum()
        }
    }

    #[test]
    fn zero_rate_faults_leave_the_engine_bit_identical() {
        let base =
            MachineConfig::small_test().with_memory_model(tis_mem::MemoryModel::directory_mesh());
        let mut faulted = base;
        faulted.fault = tis_mem::FaultConfig::zero_rate();
        let a = run_machine(&base, &mut SharingRuntime::new(base.cores, 50), &mut NullFabric::new())
            .unwrap();
        let b = run_machine(&faulted, &mut SharingRuntime::new(base.cores, 50), &mut NullFabric::new())
            .unwrap();
        assert!(a.memory_stats.noc_messages > 0, "the runtime must exercise the mesh");
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.memory_stats, b.memory_stats);
        assert_eq!(a.core_stats, b.core_stats);
    }

    #[test]
    fn dead_links_surface_as_a_diagnosed_unrecoverable_fault() {
        let mut cfg =
            MachineConfig::small_test().with_memory_model(tis_mem::MemoryModel::directory_mesh());
        cfg.fault = tis_mem::FaultConfig { dead_links: u32::MAX, ..tis_mem::FaultConfig::none() };
        let err = run_machine(&cfg, &mut SharingRuntime::new(cfg.cores, 50), &mut NullFabric::new())
            .unwrap_err();
        match err {
            EngineError::UnrecoverableFault { diagnosis, runtime, .. } => {
                assert_eq!(runtime, "sharing");
                assert_ne!(diagnosis.from, diagnosis.to, "the faulted leg crosses tiles");
                assert_eq!(diagnosis.attempts, cfg.fault.max_retries + 1);
            }
            other => panic!("expected an unrecoverable-fault diagnosis, got {other:?}"),
        }
    }

    #[test]
    fn fault_watchdog_tightens_the_no_progress_window() {
        let mut cfg = MachineConfig::small_test();
        cfg.fault = tis_mem::FaultConfig { watchdog_cycles: 10_000, ..tis_mem::FaultConfig::none() };
        let err = run_machine(&cfg, &mut StuckRuntime, &mut NullFabric::new()).unwrap_err();
        match err {
            EngineError::NoProgress { cycle, .. } => {
                assert!(cycle < 100_000, "the tightened watchdog fires early, at cycle {cycle}")
            }
            other => panic!("expected the watchdog, got {other:?}"),
        }
    }

    #[test]
    fn unrecoverable_fault_display_names_the_resource_and_blocked_work() {
        let e = EngineError::UnrecoverableFault {
            diagnosis: tis_mem::FaultDiagnosis { link: 9, from: 1, to: 2, cycle: 40, attempts: 4 },
            cycle: 500,
            tasks_retired: 3,
            tasks_blocked: 2,
            runtime: "x".into(),
        };
        let msg = e.to_string();
        for needle in ["dead link 9", "core 1", "core 2", "4 attempts", "3 tasks retired", "2 blocked"] {
            assert!(msg.contains(needle), "missing {needle:?} in {msg:?}");
        }
    }
}
