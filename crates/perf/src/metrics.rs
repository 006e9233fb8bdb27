//! The metric names, units and directions `BENCHMARK.json` declares. A test
//! keeps the two in step.

/// An end-to-end metric: the median over a run's measured blocks.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const CPU_US_PER_OP: &str = "cpu_us_per_op";

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: CPU_US_PER_OP,
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`. Layers are this repository's
/// crates; `process`, `closure` and `trace` are the benchmark's own views.
pub const PER_LAYER: [(&str, &str, &str); 39] = [
    ("envs.step_us", "us", "lower"),
    ("algos.act_us", "us", "lower"),
    ("algos.ingest_us", "us", "lower"),
    ("algos.train_us", "us", "lower"),
    ("nn.forward_us", "us", "lower"),
    ("nn.backward_us", "us", "lower"),
    ("nn.gflops", "GFLOP/s", "higher"),
    ("message.encode_us", "us", "lower"),
    ("message.decode_us", "us", "lower"),
    ("message.body_bytes", "bytes", "lower"),
    ("message.compress_us", "us", "lower"),
    ("message.decompress_us", "us", "lower"),
    ("message.compress_ratio", "ratio", "higher"),
    ("comm.store_put_us", "us", "lower"),
    ("comm.store_get_us", "us", "lower"),
    ("comm.deliver_p50_us", "us", "lower"),
    ("comm.deliver_p99_us", "us", "lower"),
    ("comm.loaded_p50_us", "us", "lower"),
    ("comm.loaded_p99_us", "us", "lower"),
    ("comm.fanout2_us", "us", "lower"),
    ("netsim.transfer_ms", "ms", "lower"),
    ("netsim.wire_bytes_per_op", "bytes", "lower"),
    ("replay.ingest_us", "us", "lower"),
    ("replay.sample_us", "us", "lower"),
    ("core.param_encode_us", "us", "lower"),
    ("core.param_apply_us", "us", "lower"),
    ("core.param_frame_bytes", "bytes", "lower"),
    ("core.learner_wait_frac", "ratio", "lower"),
    ("core.train_frac", "ratio", "higher"),
    ("core.rollout_latency_mean_ms", "ms", "lower"),
    ("core.session_period_ms", "ms", "lower"),
    ("core.spawn_ms", "ms", "lower"),
    ("process.allocs_per_op", "count", "lower"),
    ("process.alloc_bytes_per_op", "bytes", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("process.sys_cpu_frac", "ratio", "lower"),
    ("closure.attributed_frac", "ratio", "higher"),
    ("closure.unattributed_us_per_op", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<name>", "unit": "<unit>", "better": "<better>"` as
    /// `BENCHMARK.json` writes a metric.
    fn declared(name: &str, unit: &str, better: &str) -> String {
        format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in &END_TO_END {
            let line = format!(
                "{{{}, \"bound\": {}}}",
                declared(m.name, m.unit, m.better),
                m.bound
            );
            assert!(file.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for (name, unit, better) in PER_LAYER {
            let line = format!("{{{}}}", declared(name, unit, better));
            assert!(file.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for w in crate::workloads::Workload::ALL {
            assert!(file.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
        let metrics = file.matches("\"better\": ").count();
        assert_eq!(
            metrics,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares other metrics too"
        );
        assert_eq!(
            file.matches("\"why\": ").count(),
            crate::workloads::Workload::ALL.len()
        );
    }
}
