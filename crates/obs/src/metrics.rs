//! The metrics registry: counters, histograms, and the cycle-bucketed gauge timeline.
//!
//! The registry is owned by the run's [`Recorder`](crate::Recorder) and exported as one JSON
//! document (`METRICS_*.json`) in the layout of the `BENCH_*.json` artifacts. The export
//! streams the registry straight through [`tis_sim::json::JsonWriter`]; no value tree is built.

use crate::events::{MemAccessKind, MemEvent, MetricsSample};
use tis_sim::json::{JsonText, JsonValue, JsonWriter};
use tis_sim::stats::Histogram;
use tis_sim::Cycle;

/// Counters, histograms and the sampled gauge timeline of one observed run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    samples: Vec<MetricsSample>,
    // Named counters fed by the memory-event stream (all zero when it is disarmed).
    coherence_reads: u64,
    coherence_writes: u64,
    coherence_atomics: u64,
    l1_misses: u64,
    remote_dirty_hits: u64,
    noc_legs: u64,
    noc_wait_cycles: u64,
    access_latency: Histogram,
    noc_leg_wait: Histogram,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Ingests one memory event into the counter/histogram set.
    pub fn record_mem(&mut self, event: &MemEvent) {
        match *event {
            MemEvent::Coherence { kind, latency, l1_hit, remote_dirty, .. } => {
                match kind {
                    MemAccessKind::Read => self.coherence_reads += 1,
                    MemAccessKind::Write => self.coherence_writes += 1,
                    MemAccessKind::Atomic => self.coherence_atomics += 1,
                }
                if !l1_hit {
                    self.l1_misses += 1;
                }
                if remote_dirty {
                    self.remote_dirty_hits += 1;
                }
                self.access_latency.record(latency);
            }
            MemEvent::NocLeg { flits: _, wait_cycles, .. } => {
                self.noc_legs += 1;
                self.noc_wait_cycles += wait_cycles;
                self.noc_leg_wait.record(wait_cycles);
            }
        }
    }

    /// Appends one gauge snapshot to the timeline.
    pub fn push_sample(&mut self, sample: &MetricsSample) {
        self.samples.push(sample.clone());
    }

    /// The sampled timeline, oldest first.
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }

    /// Number of coherence transactions seen on the event stream.
    pub fn coherence_transactions(&self) -> u64 {
        self.coherence_reads + self.coherence_writes + self.coherence_atomics
    }

    /// Number of NoC legs seen on the event stream.
    pub fn noc_legs(&self) -> u64 {
        self.noc_legs
    }

    /// Renders the registry as the `METRICS_*.json` document.
    ///
    /// Shape: a `counters` object, a `histograms` object (count/mean/quantiles per histogram),
    /// and a `timeline` object of parallel arrays keyed by gauge name — the cycle-bucketed
    /// time series. Cumulative series are monotone; consumers difference adjacent entries for
    /// per-bucket rates.
    pub fn to_json(&self, label: &str, makespan: Cycle) -> JsonText {
        let mut w = JsonWriter::new();
        w.begin_obj().field("schema", "tis-metrics-v1").field("label", label);
        w.field("makespan_cycles", makespan).field("sample_count", self.samples.len() as u64);
        w.key("counters").begin_obj();
        w.field("coherence_reads", self.coherence_reads);
        w.field("coherence_writes", self.coherence_writes);
        w.field("coherence_atomics", self.coherence_atomics);
        w.field("l1_misses", self.l1_misses);
        w.field("remote_dirty_hits", self.remote_dirty_hits);
        w.field("noc_legs", self.noc_legs);
        w.field("noc_wait_cycles", self.noc_wait_cycles);
        w.end_obj().key("histograms").begin_obj();
        histogram(&mut w, "access_latency", &self.access_latency);
        histogram(&mut w, "noc_leg_wait", &self.noc_leg_wait);
        w.end_obj().key("timeline").begin_obj();
        let samples = &self.samples[..];
        series(&mut w, "cycle", samples, |s| s.cycle);
        series(&mut w, "tracker_in_flight", samples, |s| s.tracker_in_flight);
        series(&mut w, "ready_queue_len", samples, |s| s.ready_queue_len);
        series(&mut w, "core_busy_cycles", samples, |s| s.core_busy_cycles.as_slice());
        series(&mut w, "core_idle_cycles", samples, |s| s.core_idle_cycles.as_slice());
        series(&mut w, "mem_accesses", samples, |s| s.mem_accesses);
        series(&mut w, "mem_stall_cycles", samples, |s| s.mem_stall_cycles);
        series(&mut w, "dram_fetches", samples, |s| s.dram_fetches);
        series(&mut w, "dram_writebacks", samples, |s| s.dram_writebacks);
        series(&mut w, "invalidations", samples, |s| s.invalidations);
        series(&mut w, "dirty_bounces", samples, |s| s.dirty_bounces);
        series(&mut w, "noc_messages", samples, |s| s.noc_messages);
        series(&mut w, "noc_flits", samples, |s| s.noc_flits);
        series(&mut w, "noc_link_wait_cycles", samples, |s| s.noc_link_wait_cycles);
        series(&mut w, "max_link_occupancy", samples, |s| s.max_link_occupancy);
        w.end_obj().end_obj();
        w.finish()
    }
}

/// Writes `key` as a histogram's count, mean and quantiles.
fn histogram(w: &mut JsonWriter, key: &str, h: &Histogram) {
    w.key(key).begin_obj().field("count", h.count()).field("mean", h.mean());
    w.field("p50", h.quantile(0.50)).field("p90", h.quantile(0.90)).field("p99", h.quantile(0.99));
    w.field("max", h.max()).end_obj();
}

/// Writes `key` as one gauge's time series: the array of `value` over the samples.
fn series<'s, V: JsonValue>(
    w: &mut JsonWriter,
    key: &str,
    samples: &'s [MetricsSample],
    value: impl Fn(&'s MetricsSample) -> V,
) {
    w.key(key).begin_arr();
    for s in samples {
        w.value(value(s));
    }
    w.end_arr();
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_sim::json::Json;

    #[test]
    fn mem_events_feed_the_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.record_mem(&MemEvent::Coherence {
            cycle: 10,
            core: 0,
            kind: MemAccessKind::Read,
            latency: 40,
            l1_hit: false,
            remote_dirty: true,
        });
        m.record_mem(&MemEvent::Coherence {
            cycle: 12,
            core: 1,
            kind: MemAccessKind::Write,
            latency: 1,
            l1_hit: true,
            remote_dirty: false,
        });
        m.record_mem(&MemEvent::NocLeg { cycle: 15, from: 0, to: 3, flits: 4, wait_cycles: 9 });
        assert_eq!(m.coherence_transactions(), 2);
        assert_eq!(m.noc_legs(), 1);
        let doc = Json::parse(&m.to_json("unit", 100).render()).unwrap();
        assert_eq!(doc.get("counters").unwrap().get("l1_misses"), Some(&Json::UInt(1)));
        assert_eq!(doc.get("counters").unwrap().get("noc_wait_cycles"), Some(&Json::UInt(9)));
        let lat = doc.get("histograms").unwrap().get("access_latency").unwrap();
        assert_eq!(lat.get("count"), Some(&Json::UInt(2)));
    }

    #[test]
    fn timeline_arrays_stay_parallel() {
        let mut m = MetricsRegistry::new();
        for cycle in [0u64, 1024, 2048] {
            m.push_sample(&MetricsSample {
                cycle,
                tracker_in_flight: cycle / 100,
                core_busy_cycles: vec![cycle, cycle / 2],
                core_idle_cycles: vec![0, cycle / 2],
                ..MetricsSample::default()
            });
        }
        let rendered = m.to_json("unit", 2048).render();
        let doc = Json::parse(&rendered).unwrap();
        let t = doc.get("timeline").unwrap();
        for key in ["cycle", "tracker_in_flight", "core_busy_cycles", "noc_flits"] {
            match t.get(key) {
                Some(Json::Arr(a)) => assert_eq!(a.len(), 3, "series {key}"),
                other => panic!("series {key} missing or not an array: {other:?}"),
            }
        }
        // The streamed document is laid out exactly as its value tree renders.
        assert_eq!(doc.render(), rendered);
    }
}
