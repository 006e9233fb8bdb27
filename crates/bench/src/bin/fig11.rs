//! Fig. 11 — Scalability Results.
//!
//! IMPALA on BeamRider with a growing explorer fleet: 2–64 explorers on one
//! machine, 128 on two machines, 256 on four machines (paper's deployment).
//! Reports learner throughput for XingTian and the RLLib-style baseline at
//! each scale. The paper's shapes: near-linear scaling up to 32 explorers,
//! learner saturation beyond, and at 256 explorers across four machines the
//! pull model *loses* throughput while XingTian still gains (+91.12% over
//! RLLib there).

use baselines::raylite::run_raylite;
use baselines::CostModel;
use xingtian::Deployment;
use xt_bench::{deployment_for, header, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let obs_dim = if args.full { None } else { Some(args.obs_dim.unwrap_or(512)) };
    let seconds = args.seconds.unwrap_or(if args.full { 3600.0 } else { 25.0 });
    // (explorers, machines) pairs; the paper uses 1 machine up to 64
    // explorers, then 2 and 4 machines.
    let scales: Vec<(u32, usize)> = if args.full {
        vec![(2, 1), (4, 1), (8, 1), (16, 1), (32, 1), (64, 1), (128, 2), (256, 4)]
    } else {
        vec![(4, 1), (8, 1), (16, 1), (32, 1), (64, 2)]
    };

    header(&format!("Fig. 11: IMPALA scalability on BeamRider ({seconds:.0}s per point)"));
    println!("{:>10} {:>9} {:>14} {:>14} {:>10}", "explorers", "machines", "XT steps/s", "ray steps/s", "XT adv");
    for (explorers, machines) in scales {
        let (_, latency_us) = xt_bench::paper_regime("IMPALA");
        let config = deployment_for("IMPALA", "BeamRider", explorers, obs_dim)
            .with_step_latency_us(latency_us)
            .with_goal_steps(u64::MAX / 2)
            .with_max_seconds(seconds)
            .spread_across(machines);
        let xt = Deployment::run(config.clone()).expect("XingTian run");
        let ray = run_raylite(config, CostModel::default()).expect("raylite run");
        println!(
            "{:>10} {:>9} {:>14.0} {:>14.0} {:>9.1}%",
            explorers,
            machines,
            xt.mean_throughput(),
            ray.mean_throughput(),
            (xt.mean_throughput() / ray.mean_throughput() - 1.0) * 100.0
        );
    }
    println!(
        "\n(paper at 256 explorers / 4 machines: XT 18,076 vs RLLib drops — +91.12% for XingTian; \
         note this host is single-core, so absolute scaling saturates much earlier)"
    );

    // ── Extension: the paper's deployment scale, 256 explorers on 4
    // machines, against the same raylite baseline. The interesting
    // observables are drops (must stay zero under 256-way fan-in) and the
    // XT-vs-pull gap.
    let ext_seconds = args.seconds.unwrap_or(if args.full { 120.0 } else { 10.0 });
    let (_, latency_us) = xt_bench::paper_regime("IMPALA");
    header(&format!("Fig. 11 extension: 256 explorers / 4 machines ({ext_seconds:.0}s per point)"));
    println!("{:>14} {:>14} {:>10}", "XT steps/s", "ray steps/s", "XT adv");
    // Observations shrink to 64 floats at this scale: 256 paced explorers'
    // inference on the paper-size observation wants ~3 cores, and on this
    // single-core host that measures scheduler thrash, not the fabric. The
    // small body keeps aggregate explorer CPU inside the core so the channel
    // stays the variable.
    let big = deployment_for("IMPALA", "BeamRider", 256, Some(64))
        .with_step_latency_us(latency_us)
        .with_goal_steps(u64::MAX / 2)
        .with_max_seconds(ext_seconds)
        .spread_across(4);
    let ray = run_raylite(big.clone(), CostModel::default()).expect("raylite 256x4");
    let xt = Deployment::run(big).expect("XT 256x4");
    assert_eq!(xt.dropped_messages, 0, "256x4 must not drop");
    println!(
        "{:>14.0} {:>14.0} {:>9.1}%",
        xt.mean_throughput(),
        ray.mean_throughput(),
        (xt.mean_throughput() / ray.mean_throughput() - 1.0) * 100.0
    );

    // ── Extension: the 1K-explorer fleet. Past the paper's largest
    // deployment, what matters is that the fabric keeps absorbing fan-in
    // without dropping: 512 and 1024 explorers across 4 machines.
    // Observations are kept small (64 floats) — fan-in scale is the
    // variable here, not body size — and producers self-regulate through
    // store backpressure, so zero drops is a real claim about the channel,
    // not about the learner keeping up.
    header(&format!("Fig. 11 extension: 1K-explorer fleet, 4 machines ({ext_seconds:.0}s per point)"));
    println!("{:>10} {:>14} {:>12} {:>10}", "explorers", "XT steps/s", "rollouts/s", "dropped");
    for explorers in [512u32, 1024] {
        // Slow environments (20 ms/step) and short rollouts (50 steps): each
        // explorer contributes ~1 rollout/s, so the fleet exercises 512- and
        // 1024-way *fan-in* — many concurrent senders, ~1K msg/s aggregate —
        // within the core budget, instead of drowning the host in inference.
        let config = deployment_for("IMPALA", "BeamRider", explorers, Some(64))
            .with_rollout_len(50)
            .with_step_latency_us(20_000)
            .with_goal_steps(u64::MAX / 2)
            .with_max_seconds(ext_seconds)
            .spread_across(4);
        let xt = Deployment::run(config).expect("XT 1K sweep");
        assert_eq!(xt.dropped_messages, 0, "{explorers}-explorer fleet must not drop");
        println!(
            "{:>10} {:>14.0} {:>12.0} {:>10}",
            explorers,
            xt.mean_throughput(),
            xt.mean_throughput() / 50.0,
            xt.dropped_messages
        );
    }

    if !args.full {
        println!("\n(quick profile; pass --full for the 2–256 explorer sweep)");
    }
}
