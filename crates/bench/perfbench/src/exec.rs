//! Tapped execution: the harness's platform wiring, rebuilt around timing taps.
//!
//! `tis_bench::Harness` constructs the runtime and fabric inside its `run*` methods, so a tap
//! cannot reach them there. [`run_tapped`] builds the same runtime and fabric from the same
//! harness fields, wraps both, and drives them through the same engine entry points. The
//! traced run's report is checked against the untraced harness run's, so the two cannot drift
//! apart unnoticed.

use tis_bench::{Harness, Platform};
use tis_core::{Phentos, TisFabric};
use tis_machine::{
    run_machine, run_machine_observed, EngineError, ExecutionReport, NullFabric, RuntimeSystem,
    SchedulerFabric,
};
use tis_nanos::{AxiFabric, Nanos, NanosVariant};
use tis_obs::Observer;
use tis_taskmodel::{TaskSource, TenantRunData, TenantSource};

use crate::taps::{Layer, SharedTally, TapFabric, TapRuntime};

/// The fabric crate a platform's scheduling operations run in.
pub fn fabric_layer(platform: Platform) -> Layer {
    match platform {
        Platform::Phentos | Platform::NanosRv => Layer::Core,
        Platform::NanosAxi | Platform::NanosSw => Layer::Nanos,
    }
}

/// Runs `source` on `platform` exactly as `Harness::run_source` / `Harness::run_tenants`
/// would, with the runtime and fabric tapped into `tally`. Returns the report plus, for a
/// tenant source, its run data.
pub fn run_tapped(
    harness: &Harness,
    platform: Platform,
    source: Box<dyn TaskSource>,
    collect_records: bool,
    obs: Option<&mut dyn Observer>,
    tally: &SharedTally,
) -> Result<(ExecutionReport, Option<TenantRunData>), EngineError> {
    let cores = harness.machine.cores;
    let drive = |runtime: &mut dyn RuntimeSystem, fabric: &mut dyn SchedulerFabric| match obs {
        Some(o) => run_machine_observed(&harness.machine, runtime, fabric, o),
        None => run_machine(&harness.machine, runtime, fabric),
    };
    let layer = fabric_layer(platform);
    let mut fabric: Box<dyn SchedulerFabric> = match platform {
        Platform::Phentos | Platform::NanosRv => Box::new(TapFabric::new(
            TisFabric::new(cores, harness.tis),
            layer,
            tally.clone(),
        )),
        Platform::NanosAxi => Box::new(TapFabric::new(
            AxiFabric::new(cores, harness.axi),
            layer,
            tally.clone(),
        )),
        Platform::NanosSw => Box::new(TapFabric::new(NullFabric::new(), layer, tally.clone())),
    };
    let variant = match platform {
        Platform::Phentos => {
            let mut inner = Phentos::from_source(source, cores, harness.phentos);
            inner.set_collect_records(collect_records);
            let mut runtime = TapRuntime::new(inner, Layer::Core, tally.clone());
            let report = drive(&mut runtime, fabric.as_mut())?;
            return Ok((report, take_run_data(runtime.into_inner().source_mut())));
        }
        Platform::NanosRv => NanosVariant::PicosRocc,
        Platform::NanosAxi => NanosVariant::PicosAxi,
        Platform::NanosSw => NanosVariant::Software,
    };
    let mut inner = Nanos::from_source(source, cores, variant, harness.nanos);
    inner.set_collect_records(collect_records);
    let mut runtime = TapRuntime::new(inner, Layer::Nanos, tally.clone());
    let report = drive(&mut runtime, fabric.as_mut())?;
    Ok((report, take_run_data(runtime.into_inner().source_mut())))
}

/// A tenant source's names and global-ID assignment, taken out after the run.
fn take_run_data(source: &mut dyn TaskSource) -> Option<TenantRunData> {
    source
        .as_any_mut()
        .and_then(|any| any.downcast_mut::<TenantSource>())
        .map(TenantSource::take_run_data)
}
