//! Chrome trace-event / Perfetto export.
//!
//! Renders an observed run as a JSON document in the [Chrome trace-event format] — the
//! `TRACE_*.json` artifacts load directly in `ui.perfetto.dev` (or `chrome://tracing`). Task
//! spans become three slices per task on the executing core's track (dispatch overhead, task
//! body, retire overhead), and the sampled gauges become counter tracks (tracker occupancy,
//! ready-queue depth, NoC activity). Timestamps are simulated cycles reported in the format's
//! microsecond field: read "1 µs" as "1 cycle".
//!
//! [Chrome trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::events::MetricsSample;
use crate::span::TaskSpan;
use tis_sim::json::{JsonText, JsonValue, JsonWriter};

/// Process id used for all tracks (one simulated machine = one Perfetto process).
const PID: u64 = 0;

/// Renders task spans plus the gauge timeline as a Chrome trace-event document.
///
/// `label` names the process in the UI (typically the sweep cell or workload label);
/// `cores` sizes the per-core thread tracks (cores with no executed task still get a named
/// track, making idle cores visible).
pub fn trace_json(label: &str, cores: usize, spans: &[TaskSpan], samples: &[MetricsSample]) -> JsonText {
    let mut w = begin_trace();
    meta(&mut w, "process_name", PID, None, "name", label);
    for core in 0..cores {
        let tid = core as u64;
        meta(&mut w, "thread_name", PID, Some(tid), "name", format_args!("core {core}"));
        meta(&mut w, "thread_sort_index", PID, Some(tid), "sort_index", tid);
    }
    for span in spans {
        task_slices(&mut w, span, None);
    }
    for s in samples {
        counters(&mut w, PID, s);
    }
    end_trace(w)
}

/// [`trace_json`] with a tenant dimension: each tenant of a co-scheduled run becomes its own
/// Perfetto *process* (track group), so the UI collapses and filters per tenant.
///
/// `names[t]` labels tenant `t`'s track group; `assignment` maps global task id → tenant (as
/// recovered from the multi-tenant source after the run). Task slices are drawn on thread
/// `core` of the owning tenant's process; tasks outside `assignment` are skipped. The sampled
/// machine-wide gauges land in a separate `machine` process (pid `names.len()`) since
/// tracker/NoC occupancy is shared hardware, not any one tenant's.
pub fn trace_json_tenants(
    label: &str,
    cores: usize,
    spans: &[TaskSpan],
    samples: &[MetricsSample],
    names: &[String],
    assignment: &[u32],
) -> JsonText {
    let machine_pid = names.len() as u64;
    let mut w = begin_trace();
    for (t, name) in names.iter().enumerate() {
        let pid = t as u64;
        meta(&mut w, "process_name", pid, None, "name", format_args!("{label} / tenant {t}: {name}"));
        meta(&mut w, "process_sort_index", pid, None, "sort_index", pid);
        for core in 0..cores {
            meta(&mut w, "thread_name", pid, Some(core as u64), "name", format_args!("core {core}"));
        }
    }
    meta(&mut w, "process_name", machine_pid, None, "name", format_args!("{label} / machine"));
    for span in spans {
        // A task outside the tenant assignment has no tenant to attribute it to.
        if let Some(&tenant) = assignment.get(span.task as usize) {
            task_slices(&mut w, span, Some(u64::from(tenant)));
        }
    }
    for s in samples {
        counters(&mut w, machine_pid, s);
    }
    end_trace(w)
}

/// Opens the document and its `traceEvents` array.
fn begin_trace() -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_obj().key("traceEvents").begin_arr();
    w
}

/// Closes `traceEvents` and writes the document's trailing keys.
fn end_trace(mut w: JsonWriter) -> JsonText {
    w.end_arr().field("displayTimeUnit", "ns");
    w.key("otherData").begin_obj().field("timeUnit", "simulated cycles").end_obj().end_obj();
    w.finish()
}

/// A metadata (`M`) event naming or ordering a process (`tid` `None`) or one of its threads.
fn meta(w: &mut JsonWriter, name: &str, pid: u64, tid: Option<u64>, arg: &str, value: impl JsonValue) {
    w.begin_obj().field("name", name).field("ph", "M").field("pid", pid);
    if let Some(tid) = tid {
        w.field("tid", tid);
    }
    w.key("args").begin_obj().field(arg, value).end_obj().end_obj();
}

/// A span's three slices on its core's thread: the fetch/meta-read overhead before the body,
/// the body (with the full lifecycle in args for the selection panel), and the retirement
/// notification overhead after it. A tenant trace draws them in the tenant's process and names
/// the tenant in the body's args. An incomplete span (nothing executed) draws nothing.
fn task_slices(w: &mut JsonWriter, span: &TaskSpan, tenant: Option<u64>) {
    let (Some(core), Some(dispatch), Some(start), Some(end), Some(retire)) =
        (span.core, span.dispatch, span.exec_start, span.exec_end, span.retire)
    else {
        return;
    };
    let (track, task) = ((tenant.unwrap_or(PID), core as u64), span.task);
    slice(w, "fetch", "sched", track, dispatch, start - dispatch, task).end_obj().end_obj();
    let body = slice(w, "task", "task", track, start, end - start, task);
    if let Some(tenant) = tenant {
        body.field("tenant", tenant);
    }
    body.field("submit", span.submit).field("ready", span.ready).field("dispatch", dispatch);
    body.field("retire", retire).field("payload_mem_cycles", span.payload_mem_cycles).end_obj().end_obj();
    slice(w, "retire", "sched", track, end, retire - end, task).end_obj().end_obj();
}

/// Opens a complete (`X`) slice event named `"{name} {task}"` on the `(pid, tid)` track, up to
/// the `task` entry of its `args`; the caller adds any further args and closes both objects.
fn slice<'w>(
    w: &'w mut JsonWriter,
    name: &str,
    cat: &str,
    (pid, tid): (u64, u64),
    ts: u64,
    dur: u64,
    task: u64,
) -> &'w mut JsonWriter {
    w.begin_obj().field("name", format_args!("{name} {task}")).field("cat", cat).field("ph", "X");
    w.field("ts", ts).field("dur", dur).field("pid", pid).field("tid", tid);
    w.key("args").begin_obj().field("task", task)
}

/// One sample's counter (`C`) events on process `pid`.
fn counters(w: &mut JsonWriter, pid: u64, s: &MetricsSample) {
    for (name, series, value) in [
        ("tracker in-flight", "tasks", s.tracker_in_flight),
        ("ready queue", "tasks", s.ready_queue_len),
        ("noc flits (cum)", "flits", s.noc_flits),
        ("noc link wait (cum)", "cycles", s.noc_link_wait_cycles),
        ("mem stall (cum)", "cycles", s.mem_stall_cycles),
    ] {
        w.begin_obj().field("name", name).field("ph", "C").field("ts", s.cycle).field("pid", pid);
        w.key("args").begin_obj().field(series, value).end_obj().end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_sim::json::Json;

    fn complete_span(task: u64, core: usize, base: u64) -> TaskSpan {
        TaskSpan {
            task,
            core: Some(core),
            submit: Some(base),
            ready: Some(base + 10),
            dispatch: Some(base + 20),
            exec_start: Some(base + 25),
            exec_end: Some(base + 125),
            retire: Some(base + 130),
            payload_mem_cycles: 40,
        }
    }

    #[test]
    fn every_event_satisfies_the_trace_event_schema() {
        let spans = [complete_span(0, 0, 0), complete_span(1, 1, 50)];
        let samples =
            [MetricsSample { cycle: 0, ..Default::default() }, MetricsSample { cycle: 1024, ..Default::default() }];
        let text = trace_json("unit", 2, &spans, &samples).render();
        let doc = Json::parse(&text).expect("the document parses (valid JSON)");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        assert!(!events.is_empty());
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).expect("every event has a phase");
            assert!(matches!(ph, "M" | "X" | "C"), "unexpected phase {ph}");
            assert!(e.get("name").is_some());
            assert!(e.get("pid").is_some());
            if ph == "X" {
                assert!(e.get("ts").is_some() && e.get("dur").is_some() && e.get("tid").is_some());
            }
            if ph == "C" {
                assert!(e.get("ts").is_some() && e.get("args").is_some());
            }
        }
        // Three slices per complete span.
        let slices = events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"));
        assert_eq!(slices.count(), 6);
        // The streamed document is laid out exactly as its value tree renders.
        assert_eq!(doc.render(), text);
    }

    #[test]
    fn tenant_export_groups_tasks_into_per_tenant_processes() {
        // Round-robin assignment: globals 0,2 → tenant 0; globals 1,3 → tenant 1.
        let spans = [
            complete_span(0, 0, 0),
            complete_span(1, 1, 50),
            complete_span(2, 0, 200),
            complete_span(3, 1, 250),
        ];
        let names = vec!["alpha".to_string(), "beta".to_string()];
        let assignment = [0u32, 1, 0, 1];
        let samples = [MetricsSample { cycle: 1024, ..Default::default() }];
        let text = trace_json_tenants("mt", 2, &spans, &samples, &names, &assignment).render();
        let doc = Json::parse(&text).expect("the document parses (valid JSON)");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { panic!("traceEvents") };
        // Every task slice lives on its tenant's pid.
        for e in events {
            if e.get("cat").and_then(|c| c.as_str()) == Some("task") {
                let task = e.get("args").and_then(|a| a.get("task")).and_then(|t| t.as_f64()).unwrap();
                let pid = e.get("pid").and_then(|p| p.as_f64()).unwrap();
                assert_eq!(pid, f64::from(assignment[task as usize]));
            }
        }
        // Counters land on the separate machine process, pid = tenant count.
        for e in events {
            if e.get("ph").and_then(|p| p.as_str()) == Some("C") {
                assert_eq!(e.get("pid").and_then(|p| p.as_f64()), Some(2.0));
            }
        }
        // Both tenant track groups are named after their tenant.
        let process_names: Vec<String> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()).map(String::from))
            .collect();
        assert!(process_names.iter().any(|n| n.contains("tenant 0: alpha")));
        assert!(process_names.iter().any(|n| n.contains("tenant 1: beta")));
        assert!(process_names.iter().any(|n| n.contains("machine")));
        assert_eq!(doc.render(), text);
    }

    #[test]
    fn incomplete_spans_draw_nothing_but_tracks_remain() {
        let spans = [TaskSpan { task: 9, submit: Some(3), ..TaskSpan::default() }];
        let doc = Json::parse(&trace_json("unit", 4, &spans, &[]).render()).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { unreachable!() };
        assert!(events.iter().all(|e| e.get("ph").and_then(|p| p.as_str()) != Some("X")));
        // 1 process_name + 4 × (thread_name + thread_sort_index).
        assert_eq!(events.len(), 9);
    }
}
