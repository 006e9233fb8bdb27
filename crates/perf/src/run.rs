//! One run of one workload: the timed run that yields the end-to-end
//! metrics, and the separate traced run that yields the per-layer ones.

use crate::alloc::Counting;
use crate::clock::{peak_rss_mb, user_sys_cpu_s};
use crate::json::Json;
use crate::metrics::{CPU_US_PER_OP, END_TO_END, OPS_PER_S, PER_LAYER, SETUP_S};
use crate::probes::{self, Effort};
use crate::stats::{median, p99, quartiles};
use crate::workloads::{run_block, Block, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Times set-up is repeated in a run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 9;
/// A set-up's warm-up block is this share of a measured block.
const SETUP_DIV: u64 = 10;
/// `--quick` blocks are this share of a measured block: a training session or
/// two, small enough for an unoptimised test build.
const QUICK_DIV: u64 = 200;
/// Measured blocks a run never has fewer of, however short `--seconds` is.
const MIN_BLOCKS: usize = 5;
/// Pairs of uncounted and counted in-situ blocks in a traced run.
const INSITU_PAIRS: u64 = 2;
/// One-session deployments timed for `core.spawn_ms`.
const SPAWN_REPEATS: u64 = 5;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// Inputs are made from this; block `b` of a run uses `seed + b`.
    pub seed: u64,
    /// How long the measured blocks of a timed run go on for.
    pub seconds: f64,
    /// One set-up and one measured block at a two-hundredth of the size.
    pub quick: bool,
    /// Where result files go; `None` writes none.
    pub out: Option<PathBuf>,
}

/// A named result with its unit and, where there are any, the samples it is
/// the median of.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None`: the workload has no call this metric measures.
    pub value: Option<f64>,
    pub samples: Vec<f64>,
}

impl Metric {
    /// The median of `samples`; of none (every block failed), no value.
    fn of_samples(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: (!samples.is_empty()).then(|| median(&samples)),
            samples,
        }
    }

    fn detail(&self) -> Json {
        let mut pairs = vec![
            ("value", self.value.map_or(Json::str("n/a"), Json::Num)),
            ("unit", Json::str(self.unit)),
        ];
        if !self.samples.is_empty() {
            let [q1, _, q3] = quartiles(&self.samples);
            pairs.extend([
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("n", Json::Int(self.samples.len() as u64)),
                ("samples", Json::nums(&self.samples)),
            ]);
        }
        Json::obj(pairs)
    }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub args: Args,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub faults: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Further keys of the result file (`blocks`, `probe_calls`, ...).
    pub extra: Vec<(&'static str, Json)>,
    /// The spans of a traced run, as the trace file holds them.
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }

    /// The line the benchmark contract asks for: a metric the workload has
    /// no call for reads 0 there (the result file says `n/a`).
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value.unwrap_or(0.0))),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }

    /// Every metric by name with its unit, one per line, for a reader.
    pub fn table(&self) -> String {
        let w = self.args.workload;
        let mut out = format!(
            "workload {} (one op = {}), seed {}, {}\n",
            w.name(),
            w.op(),
            self.args.seed,
            if self.traced {
                "traced run"
            } else {
                "timed run"
            }
        );
        for m in &self.metrics {
            let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
            out.push_str(&format!("  {:<32} {:>16} {}", m.name, value, m.unit));
            if m.samples.len() > 1 {
                let [q1, _, q3] = quartiles(&m.samples);
                out.push_str(&format!(
                    "   (q1 {q1:.6}, q3 {q3:.6}, n {})",
                    m.samples.len()
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  failed_ops {} of attempted_ops {}\n",
            self.failed, self.attempted
        ));
        for fault in &self.faults {
            out.push_str(&format!("  FAULT: {fault}\n"));
        }
        out
    }

    /// The result file.
    pub fn file(&self) -> Json {
        let mut pairs = vec![
            ("benchmark", Json::str("xt-perf")),
            ("workload", Json::str(self.args.workload.name())),
            ("op", Json::str(self.args.workload.op())),
            (
                "run",
                Json::str(if self.traced { "traced" } else { "timed" }),
            ),
            ("seed", Json::Int(self.args.seed)),
            ("seconds", Json::Num(self.args.seconds)),
            ("quick", Json::Bool(self.args.quick)),
            ("nproc", Json::Int(nproc() as u64)),
            ("git_rev", Json::str(git_rev())),
            ("correct", Json::Bool(self.correct())),
            ("attempted_ops", Json::Int(self.attempted)),
            ("failed_ops", Json::Int(self.failed)),
            (
                "faults",
                Json::Arr(self.faults.iter().map(Json::str).collect()),
            ),
        ];
        pairs.extend(self.extra.iter().cloned());
        pairs.push((
            "metrics",
            Json::obj(self.metrics.iter().map(|m| (m.name, m.detail()))),
        ));
        Json::obj(pairs)
    }

    /// Writes the result file (and the trace file of a traced run) into the
    /// output directory, if there is one.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing a file.
    pub fn write_files(&self) -> std::io::Result<()> {
        let Some(dir) = &self.args.out else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        let name = self.args.workload.name();
        let suffix = if self.traced { "layers.json" } else { "json" };
        std::fs::write(dir.join(format!("{name}.{suffix}")), self.file().pretty())?;
        if let Some(trace) = &self.trace {
            std::fs::write(dir.join(format!("{name}.trace.json")), trace.compact())?;
        }
        Ok(())
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the working directory is at, read from `.git` without running
/// git; `unknown` outside a repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        rev => rev.chars().take(12).collect(),
    }
}

/// Adds up what the blocks of a run attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, block: &Block) {
        self.attempted += block.attempted;
        self.failed += block.failed;
        self.faults
            .extend(block.faults.iter().map(|f| format!("{what}: {f}")));
    }
}

/// The timed run: set-up several times, then fixed-work blocks for
/// `args.seconds`; every end-to-end metric is a median. No span, counter or
/// allocator wrapper is active.
pub fn timed(args: &Args) -> Outcome {
    let w = args.workload;
    let (repeats, setup_ops, block_ops) = if args.quick {
        (1, w.block_ops() / QUICK_DIV, w.block_ops() / QUICK_DIV)
    } else {
        (SETUP_REPEATS, w.block_ops() / SETUP_DIV, w.block_ops())
    };
    let mut tally = Tally::default();

    // Set-up: make the inputs, bring the system up, push a first small batch
    // of work through it and take it down.
    let mut setups = Vec::new();
    for i in 0..repeats {
        let t0 = Instant::now();
        let block = run_block(w, args.seed + i, setup_ops, false);
        setups.push(t0.elapsed().as_secs_f64());
        tally.add(&format!("set-up {i}"), &block);
    }

    let mut blocks: Vec<Block> = Vec::new();
    let started = Instant::now();
    loop {
        let b = blocks.len() as u64;
        let block = run_block(w, args.seed + repeats + b, block_ops, false);
        tally.add(&format!("block {b}"), &block);
        blocks.push(block);
        let elapsed = started.elapsed().as_secs_f64();
        let mean_block = elapsed / blocks.len() as f64;
        let time_is_up = elapsed + mean_block / 2.0 >= args.seconds;
        if args.quick || (time_is_up && blocks.len() >= MIN_BLOCKS) {
            break;
        }
    }
    // A block that completed nothing has no rate; its failure is counted.
    let done: Vec<&Block> = blocks.iter().filter(|b| b.ops > 0).collect();
    let per_block = |f: fn(&Block) -> f64| -> Vec<f64> { done.iter().map(|b| f(b)).collect() };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let samples = match m.name {
                OPS_PER_S => per_block(Block::ops_per_s),
                CPU_US_PER_OP => per_block(Block::cpu_us_per_op),
                SETUP_S => setups.clone(),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            Metric::of_samples(m.name, m.unit, samples)
        })
        .collect();
    let extra = vec![
        ("blocks", Json::Int(blocks.len() as u64)),
        ("block_ops", Json::Int(block_ops)),
        (
            "block_wall_s",
            Json::nums(&blocks.iter().map(|b| b.wall_s).collect::<Vec<_>>()),
        ),
        ("setup_repeats", Json::Int(repeats)),
        ("setup_ops", Json::Int(setup_ops)),
    ];
    Outcome {
        args: args.clone(),
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        faults: tally.faults,
        metrics,
        extra,
        trace: None,
    }
}

/// The traced run: in-situ blocks under the counting allocator, then the
/// layer probes. Produces every per-layer metric and the span file.
pub fn traced(args: &Args, counter: &Counting) -> Outcome {
    let w = args.workload;
    let (pairs, block_ops, effort) = if args.quick {
        (1, w.block_ops() / QUICK_DIV, Effort::QUICK)
    } else {
        (INSITU_PAIRS, w.block_ops(), Effort::FULL)
    };
    let mut tally = Tally::default();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // In situ: whole blocks, alternately without and with allocation counting.
    let mut plain: Vec<Block> = Vec::new();
    let mut counted: Vec<Block> = Vec::new();
    let (mut allocs_per_op, mut alloc_bytes_per_op, mut sys_frac) =
        (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let block = run_block(w, args.seed + 2 * pair, block_ops, false);
        tally.add(&format!("in-situ block {}", 2 * pair), &block);
        plain.push(block);

        let (allocs0, bytes0) = counter.totals();
        let (user0, sys0) = user_sys_cpu_s();
        counter.set_counting(true);
        let block = run_block(w, args.seed + 2 * pair + 1, block_ops, true);
        counter.set_counting(false);
        let (user1, sys1) = user_sys_cpu_s();
        let (allocs1, bytes1) = counter.totals();
        tally.add(&format!("in-situ block {}", 2 * pair + 1), &block);
        if block.ops > 0 {
            allocs_per_op.push((allocs1 - allocs0) as f64 / block.ops as f64);
            alloc_bytes_per_op.push((bytes1 - bytes0) as f64 / block.ops as f64);
            sys_frac.push((sys1 - sys0) / ((user1 - user0) + (sys1 - sys0)));
        }
        counted.push(block);
    }
    values.push(("process.peak_rss_mb", peak_rss_mb()));
    let rate = |blocks: &[Block], f: fn(&Block) -> f64| -> Option<f64> {
        let v: Vec<f64> = blocks.iter().filter(|b| b.ops > 0).map(f).collect();
        (!v.is_empty()).then(|| median(&v))
    };
    if !allocs_per_op.is_empty() {
        values.push(("process.allocs_per_op", median(&allocs_per_op)));
        values.push(("process.alloc_bytes_per_op", median(&alloc_bytes_per_op)));
        values.push(("process.sys_cpu_frac", median(&sys_frac)));
    }
    if let (Some(off), Some(on)) = (
        rate(&plain, Block::ops_per_s),
        rate(&counted, Block::ops_per_s),
    ) {
        values.push(("trace.overhead_frac", 1.0 - on / off));
    }
    let insitu: Vec<_> = plain
        .iter()
        .chain(&counted)
        .filter_map(|b| b.insitu)
        .collect();
    if !insitu.is_empty() {
        let med = |f: fn(&crate::workloads::InSitu) -> f64| {
            median(&insitu.iter().map(f).collect::<Vec<_>>())
        };
        values.push((
            "core.learner_wait_frac",
            med(|i| i.learner_wait_s / i.report_wall_s),
        ));
        values.push(("core.train_frac", med(|i| i.train_s / i.report_wall_s)));
        values.push((
            "core.rollout_latency_mean_ms",
            med(|i| i.rollout_latency_mean_ms),
        ));
        values.push((
            "core.session_period_ms",
            med(|i| i.report_wall_s * 1e3 / i.train_sessions.max(1) as f64),
        ));
    }
    let loaded: Vec<f64> = counted
        .iter()
        .flat_map(|b| b.latencies_us.iter().copied())
        .collect();
    if !loaded.is_empty() {
        values.push(("comm.loaded_p50_us", median(&loaded)));
        if let Some(tail) = p99(&loaded) {
            values.push(("comm.loaded_p99_us", tail));
        }
    }

    // Bringing a deployment up, through one training session, and down again.
    if w.deployment(0, 1).is_some() {
        let spawn_ms: Vec<f64> = (0..SPAWN_REPEATS)
            .map(|i| {
                let block = run_block(w, args.seed + 100 + i, 1, false);
                tally.add(&format!("one-session deployment {i}"), &block);
                block.wall_s * 1e3
            })
            .collect();
        values.push(("core.spawn_ms", median(&spawn_ms)));
    }

    let probed = probes::run(w, args.seed, effort);
    tally.attempted += probed.tracer.spans().len() as u64;
    tally.failed += probed.faults.len() as u64;
    tally
        .faults
        .extend(probed.faults.iter().map(|f| format!("probe: {f}")));
    values.extend(probed.values.iter().copied());
    if let Some(measured) = rate(&plain, Block::cpu_us_per_op) {
        values.push((
            "closure.attributed_frac",
            probed.attributed_us_per_op / measured,
        ));
        values.push((
            "closure.unattributed_us_per_op",
            measured - probed.attributed_us_per_op,
        ));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            Metric {
                name,
                unit,
                value,
                samples: Vec::new(),
            }
        })
        .collect();
    let calls = probed
        .calls
        .iter()
        .map(|&(span, n)| (span, Json::Int(n as u64)));
    let extra = vec![
        ("insitu_blocks", Json::Int(2 * pairs)),
        ("block_ops", Json::Int(block_ops)),
        ("probe_calls", Json::obj(calls)),
        ("spans", Json::Int(probed.tracer.spans().len() as u64)),
    ];
    Outcome {
        args: args.clone(),
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        faults: tally.faults,
        metrics,
        extra,
        trace: Some(probed.tracer.to_json(w.name())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload) -> Args {
        Args {
            workload,
            seed: 12,
            seconds: 1.0,
            quick: true,
            out: None,
        }
    }

    fn quick_timed_run_is_correct(workload: Workload) {
        let outcome = timed(&quick(workload));
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.faults
        );
        assert!(outcome.attempted > 0);
        let names: Vec<_> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, [OPS_PER_S, CPU_US_PER_OP, SETUP_S]);
        for m in &outcome.metrics {
            assert!(
                m.value.is_some_and(|v| v > 0.0 && v.is_finite()),
                "{} {}",
                workload.name(),
                m.name
            );
        }
        let line = outcome.result_line();
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
        assert_eq!(
            crate::json::metric_value(&line, SETUP_S),
            outcome.metrics[2].value
        );
    }

    #[test]
    fn quick_impala_async() {
        quick_timed_run_is_correct(Workload::ImpalaAsync);
    }

    // DQN's 2 000-step warm-up into a 400 MB replay plane and PPO's four
    // epochs over 1 000 rows take 40 s and 7 s unoptimised.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow unoptimised; run with cargo test --release"
    )]
    fn quick_dqn_replay() {
        quick_timed_run_is_correct(Workload::DqnReplay);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow unoptimised; run with cargo test --release"
    )]
    fn quick_ppo_sync_2m() {
        quick_timed_run_is_correct(Workload::PpoSync2m);
    }

    #[test]
    fn quick_xfer_small() {
        quick_timed_run_is_correct(Workload::XferSmall);
    }

    #[test]
    fn quick_traced_run_names_every_per_layer_metric() {
        // Not the global allocator here, so it counts nothing; the traced
        // binary installs its own.
        static COUNTER: Counting = Counting::new();
        let outcome = traced(&quick(Workload::XferSmall), &COUNTER);
        assert!(outcome.correct(), "{:?}", outcome.faults);
        assert_eq!(outcome.metrics.len(), PER_LAYER.len());
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value)
        };
        assert!(value("comm.store_put_us").is_some_and(|v| v > 0.0));
        assert!(value("comm.loaded_p50_us").is_some_and(|v| v > 0.0));
        assert_eq!(value("message.body_bytes"), Some(1024.0));
        assert_eq!(
            value("envs.step_us"),
            None,
            "xfer_small steps no environment"
        );
        assert!(outcome
            .file()
            .pretty()
            .contains("\"envs.step_us\": {\n      \"value\": \"n/a\""));
        assert!(outcome.trace.is_some());
    }
}
