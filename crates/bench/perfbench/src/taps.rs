//! Timing taps: pass-through wrappers around the engine's public trait boundaries.
//!
//! [`TapRuntime`], [`TapFabric`] and [`TapSource`] implement the same trait as the value they
//! wrap and forward every call unchanged, so a tapped run simulates exactly what an untapped
//! one does. Around each forwarded call they read the host clock and bump a counter in a
//! shared [`Tally`]. Nothing inside the simulator changes; per-layer host time is attributed
//! from outside, at the boundaries the engine already exposes.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tis_machine::fabric::{CoreId, FabricOutcome};
use tis_machine::{CoreCtx, CoreStatus, FabricStats, NullFabric, RuntimeSystem, SchedulerFabric};
use tis_sim::Cycle;
use tis_taskmodel::{ExecRecord, SourcePoll, TaskSource, TaskSpec, TenantReport};

/// Which crate's code a runtime or fabric tap measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `tis-core`: the Phentos runtime and the tightly-integrated `TisFabric` (with Picos).
    Core,
    /// `tis-nanos`: the Nanos runtimes and their AXI (or empty) fabric.
    Nanos,
}

/// Which crate's code a source tap measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceLayer {
    /// `tis-exp`: `StreamingSynth`, including its inline `WindowedPreflight`.
    Exp,
    /// `tis-taskmodel`: the `TenantSource` merging tenant streams.
    Tenant,
}

/// Host cost of one tap. Of each tapped call's overhead, `inside_s` lands inside the timed
/// window (and so in the tapped layer's time) and `outside_s` lands in whatever encloses the
/// call, the enclosing step or the engine loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapCost {
    /// Seconds per tap inside its own timed window: about one clock read.
    pub inside_s: f64,
    /// Seconds per tap outside its window: the other clock read and the tally update.
    pub outside_s: f64,
}

impl TapCost {
    /// Measures the cost of one tap: a tapped `NullFabric` operation against an untapped
    /// one, in batches, keeping each part's lowest batch (interference only adds time).
    pub fn calibrate() -> TapCost {
        const CALLS: u64 = 200_000;
        const BATCHES: usize = 7;
        let mut best = TapCost {
            inside_s: f64::INFINITY,
            outside_s: f64::INFINITY,
        };
        for _ in 0..BATCHES {
            let tally = SharedTally::default();
            let mut plain = NullFabric::new();
            let mut tapped = TapFabric::new(NullFabric::new(), Layer::Core, tally.clone());
            let bare_s = time_retires(&mut plain, CALLS);
            let whole_s = time_retires(&mut tapped, CALLS);
            let window_s = tally.borrow().fabric_op_s[Layer::Core as usize];
            let n = CALLS as f64;
            let inside = ((window_s - bare_s) / n).max(0.0);
            best.inside_s = best.inside_s.min(inside);
            best.outside_s = best
                .outside_s
                .min(((whole_s - bare_s) / n - inside).max(0.0));
        }
        best
    }

    /// Seconds of one whole tap.
    pub fn total_s(&self) -> f64 {
        self.inside_s + self.outside_s
    }

    /// This cost, scaled (split kept) so that `taps` tapped calls cost `overhead_s` in all. A
    /// clock read costs more inside the engine's loop than in the calibration loop, so the
    /// traced rep's time over its untraced twin is the better measure of the total.
    pub fn scaled_to(self, overhead_s: f64, taps: u64) -> TapCost {
        let calibrated_s = taps as f64 * self.total_s();
        if calibrated_s <= 0.0 {
            return self;
        }
        let k = overhead_s.max(0.0) / calibrated_s;
        TapCost {
            inside_s: self.inside_s * k,
            outside_s: self.outside_s * k,
        }
    }
}

/// Host seconds for `calls` fabric retires through a trait object, as the engine calls them.
fn time_retires(fabric: &mut dyn SchedulerFabric, calls: u64) -> f64 {
    let fabric = std::hint::black_box(fabric);
    let t0 = Instant::now();
    for now in 0..calls {
        fabric.retire_task(0, 0, now);
    }
    t0.elapsed().as_secs_f64()
}

/// Host time (seconds) and call counts gathered by the taps of one or more runs. Arrays are
/// indexed by [`Layer`] or [`SourceLayer`]. Times are raw, tap overhead included; the
/// accessor methods subtract a [`TapCost`] per tapped call.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Host seconds inside `step_core`, by runtime layer.
    pub step_s: [f64; 2],
    /// `step_core` calls, by runtime layer.
    pub step_calls: [u64; 2],
    /// Host seconds inside Table I fabric operations, by fabric layer.
    pub fabric_op_s: [f64; 2],
    /// Host seconds inside `set_time_horizon`, which the engine loop calls outside steps.
    pub horizon_s: [f64; 2],
    /// `set_time_horizon` calls, by fabric layer.
    pub horizon_calls: [u64; 2],
    /// Host seconds inside the tapped calls a step makes directly (fabric operations and the
    /// outermost source call of each nest), by the stepping runtime's layer.
    pub step_inner_s: [f64; 2],
    /// Those calls, by the stepping runtime's layer.
    pub step_inner_calls: [u64; 2],
    /// Host seconds inside source calls (nested calls included).
    pub source_s: [f64; 2],
    /// Source calls of every kind (`poll`, `retire`, `retire_at`, `advance_to`).
    pub source_calls: [u64; 2],
    /// Source calls made from inside another source call.
    pub nested_source_calls: u64,
    /// `step_core` results: progressed, waiting, finished.
    pub steps: [u64; 3],
    /// Table I fabric operations issued.
    pub fabric_ops: [u64; 2],
    /// Source polls.
    pub source_polls: [u64; 2],
    /// `Blocked` answers to those polls.
    pub source_blocked: [u64; 2],
    /// Runtime layer of the step in progress.
    stepping: usize,
    /// Current source-call nesting depth.
    depth: u32,
}

impl Tally {
    /// Host time of `layer`'s fabric: its operations plus its time-horizon updates.
    pub fn fabric_s(&self, layer: Layer, cost: TapCost) -> f64 {
        let i = layer as usize;
        self.fabric_op_s[i] + self.horizon_s[i]
            - (self.fabric_ops[i] + self.horizon_calls[i]) as f64 * cost.inside_s
    }

    /// `step_core` host time of runtime `layer` minus the fabric and source time spent inside
    /// its steps.
    pub fn step_self_s(&self, layer: Layer, cost: TapCost) -> f64 {
        let i = layer as usize;
        self.step_s[i]
            - self.step_inner_s[i]
            - self.step_calls[i] as f64 * cost.inside_s
            - self.step_inner_calls[i] as f64 * cost.outside_s
    }

    /// Host time of engine-loop work that is not a step: everything in `run_s` outside
    /// `step_core` and `set_time_horizon`.
    pub fn loop_self_s(&self, run_s: f64, cost: TapCost) -> f64 {
        let calls: u64 = self.step_calls.iter().chain(&self.horizon_calls).sum();
        run_s
            - self.step_s.iter().sum::<f64>()
            - self.horizon_s.iter().sum::<f64>()
            - calls as f64 * cost.outside_s
    }

    /// Host time inside `layer`'s source calls, nested calls included.
    pub fn source_time_s(&self, layer: SourceLayer, cost: TapCost) -> f64 {
        let i = layer as usize;
        self.source_s[i] - self.source_calls[i] as f64 * cost.inside_s
    }

    /// Host time of the tenant merger alone: `TenantSource` time minus its inner sources.
    pub fn tenant_self_s(&self, cost: TapCost) -> f64 {
        if self.source_calls[SourceLayer::Tenant as usize] == 0 {
            return 0.0;
        }
        self.source_time_s(SourceLayer::Tenant, cost)
            - self.source_time_s(SourceLayer::Exp, cost)
            - self.nested_source_calls as f64 * cost.total_s()
    }

    /// Total `step_core` calls.
    pub fn total_steps(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Total tapped calls.
    pub fn total_taps(&self) -> u64 {
        self.step_calls.iter().sum::<u64>()
            + self.fabric_ops.iter().sum::<u64>()
            + self.horizon_calls.iter().sum::<u64>()
            + self.source_calls.iter().sum::<u64>()
    }
}

/// Shared handle to the [`Tally`] every tap of one run writes into.
pub type SharedTally = Rc<RefCell<Tally>>;

/// Wraps a runtime, timing every `step_core` and counting its [`CoreStatus`].
#[derive(Debug)]
pub struct TapRuntime<R> {
    inner: R,
    layer: Layer,
    tally: SharedTally,
}

impl<R> TapRuntime<R> {
    /// Taps `inner`, charging its step time to `layer`.
    pub fn new(inner: R, layer: Layer, tally: SharedTally) -> Self {
        TapRuntime {
            inner,
            layer,
            tally,
        }
    }

    /// The wrapped runtime.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: RuntimeSystem> RuntimeSystem for TapRuntime<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        self.tally.borrow_mut().stepping = self.layer as usize;
        let t0 = Instant::now();
        let status = self.inner.step_core(ctx, fabric);
        let dt = t0.elapsed().as_secs_f64();
        let mut t = self.tally.borrow_mut();
        t.step_s[self.layer as usize] += dt;
        t.step_calls[self.layer as usize] += 1;
        t.steps[match status {
            CoreStatus::Progressed => 0,
            CoreStatus::Waiting { .. } => 1,
            CoreStatus::Finished => 2,
        }] += 1;
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

    fn peak_resident_tasks(&self) -> u64 {
        self.inner.peak_resident_tasks()
    }

    fn tenant_reports(&self) -> Vec<TenantReport> {
        self.inner.tenant_reports()
    }
}

/// Wraps a fabric, timing and counting every Table I operation.
#[derive(Debug)]
pub struct TapFabric<F> {
    inner: F,
    layer: Layer,
    tally: SharedTally,
}

impl<F> TapFabric<F> {
    /// Taps `inner`, charging its operation time to `layer`.
    pub fn new(inner: F, layer: Layer, tally: SharedTally) -> Self {
        TapFabric {
            inner,
            layer,
            tally,
        }
    }
}

impl<F: SchedulerFabric> TapFabric<F> {
    fn op<T>(&mut self, f: impl FnOnce(&mut F) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let dt = t0.elapsed().as_secs_f64();
        let mut t = self.tally.borrow_mut();
        t.fabric_op_s[self.layer as usize] += dt;
        t.fabric_ops[self.layer as usize] += 1;
        let runtime = t.stepping;
        t.step_inner_s[runtime] += dt;
        t.step_inner_calls[runtime] += 1;
        out
    }
}

impl<F: SchedulerFabric> SchedulerFabric for TapFabric<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_time_horizon(&mut self, safe_now: Cycle) {
        let t0 = Instant::now();
        self.inner.set_time_horizon(safe_now);
        let dt = t0.elapsed().as_secs_f64();
        let mut t = self.tally.borrow_mut();
        t.horizon_s[self.layer as usize] += dt;
        t.horizon_calls[self.layer as usize] += 1;
    }

    fn submission_request(
        &mut self,
        core: CoreId,
        packet_count: u32,
        now: Cycle,
    ) -> (Cycle, FabricOutcome<()>) {
        self.op(|f| f.submission_request(core, packet_count, now))
    }

    fn submit_packets(
        &mut self,
        core: CoreId,
        packets: &[u32],
        now: Cycle,
    ) -> (Cycle, FabricOutcome<()>) {
        self.op(|f| f.submit_packets(core, packets, now))
    }

    fn ready_task_request(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.op(|f| f.ready_task_request(core, now))
    }

    fn fetch_sw_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u64>) {
        self.op(|f| f.fetch_sw_id(core, now))
    }

    fn fetch_picos_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u32>) {
        self.op(|f| f.fetch_picos_id(core, now))
    }

    fn retire_task(&mut self, core: CoreId, picos_id: u32, now: Cycle) -> Cycle {
        self.op(|f| f.retire_task(core, picos_id, now))
    }

    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    fn set_observing(&mut self, on: bool) {
        self.inner.set_observing(on);
    }

    fn drain_ready_log(&mut self, sink: &mut dyn FnMut(Cycle, u64)) {
        self.inner.drain_ready_log(sink);
    }

    fn occupancy(&self) -> (usize, usize) {
        self.inner.occupancy()
    }
}

/// Wraps a task source, timing `poll`, `retire` and `advance_to` and counting polls.
#[derive(Debug)]
pub struct TapSource<S> {
    inner: S,
    layer: SourceLayer,
    tally: SharedTally,
}

impl<S> TapSource<S> {
    /// Taps `inner`, charging its host time to `layer`.
    pub fn new(inner: S, layer: SourceLayer, tally: SharedTally) -> Self {
        TapSource {
            inner,
            layer,
            tally,
        }
    }
}

impl<S: TaskSource> TapSource<S> {
    fn call<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let outermost = {
            let mut t = self.tally.borrow_mut();
            t.depth += 1;
            t.depth == 1
        };
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let dt = t0.elapsed().as_secs_f64();
        let mut t = self.tally.borrow_mut();
        t.depth -= 1;
        t.source_s[self.layer as usize] += dt;
        t.source_calls[self.layer as usize] += 1;
        if outermost {
            let runtime = t.stepping;
            t.step_inner_s[runtime] += dt;
            t.step_inner_calls[runtime] += 1;
        } else {
            t.nested_source_calls += 1;
        }
        out
    }
}

impl<S: TaskSource> TaskSource for TapSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self) -> SourcePoll {
        let out = self.call(|s| s.poll());
        let mut t = self.tally.borrow_mut();
        t.source_polls[self.layer as usize] += 1;
        if matches!(out, SourcePoll::Blocked) {
            t.source_blocked[self.layer as usize] += 1;
        }
        out
    }

    fn spec(&self, sw_id: u64) -> &TaskSpec {
        self.inner.spec(sw_id)
    }

    fn retire(&mut self, sw_id: u64) {
        self.call(|s| s.retire(sw_id));
    }

    fn retire_at(&mut self, sw_id: u64, now: u64) {
        self.call(|s| s.retire_at(sw_id, now));
    }

    fn advance_to(&mut self, now: u64) {
        self.call(|s| s.advance_to(now));
    }

    fn tenant_reports(&self) -> Vec<TenantReport> {
        self.inner.tenant_reports()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }

    fn max_deps(&self) -> usize {
        self.inner.max_deps()
    }

    fn resident(&self) -> usize {
        self.inner.resident()
    }

    fn peak_resident(&self) -> usize {
        self.inner.peak_resident()
    }
}

/// Marks the host instant of a source's first poll — the first simulated cycle of a run,
/// since the main core's first step pulls the first op. Otherwise a plain pass-through: the
/// untraced runs carry this tap and no other.
#[derive(Debug)]
pub struct FirstPoll<S> {
    inner: S,
    stamp: Rc<std::cell::Cell<Option<Instant>>>,
}

impl<S> FirstPoll<S> {
    /// Wraps `inner`; the first poll of any source sharing `stamp` sets it.
    pub fn new(inner: S, stamp: Rc<std::cell::Cell<Option<Instant>>>) -> Self {
        FirstPoll { inner, stamp }
    }
}

impl<S: TaskSource> TaskSource for FirstPoll<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self) -> SourcePoll {
        if self.stamp.get().is_none() {
            self.stamp.set(Some(Instant::now()));
        }
        self.inner.poll()
    }

    fn spec(&self, sw_id: u64) -> &TaskSpec {
        self.inner.spec(sw_id)
    }

    fn retire(&mut self, sw_id: u64) {
        self.inner.retire(sw_id);
    }

    fn retire_at(&mut self, sw_id: u64, now: u64) {
        self.inner.retire_at(sw_id, now);
    }

    fn advance_to(&mut self, now: u64) {
        self.inner.advance_to(now);
    }

    fn tenant_reports(&self) -> Vec<TenantReport> {
        self.inner.tenant_reports()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }

    fn max_deps(&self) -> usize {
        self.inner.max_deps()
    }

    fn resident(&self) -> usize {
        self.inner.resident()
    }

    fn peak_resident(&self) -> usize {
        self.inner.peak_resident()
    }
}
