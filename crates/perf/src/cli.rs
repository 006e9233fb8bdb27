//! Command line: one workload per process, plus `all` and `selfcheck`, which
//! start a fresh process per workload and run.

use crate::alloc::Counting;
use crate::json::metric_value;
use crate::metrics::END_TO_END;
use crate::run::{self, Args};
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  xt-perf --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]
      one run of one workload; the last line of standard output is the result
  xt-perf all [--seed <n>] [--seconds <s>] [--out <dir>]
      a timed and a traced run of every workload, each in a fresh process;
      writes <dir>/BENCH.json besides the per-workload files
  xt-perf selfcheck [--seed <n>] [--seconds <s>] [--out <dir>]
      `all` twice, in opposite workload order, and a PASS/FAIL per metric
workloads: impala_async dqn_replay ppo_sync_2m xfer_small
defaults: --seed 12 --seconds 22 --trace 0 --out crates/perf/out";

/// The name of the binary that installs the counting allocator.
const TRACE_BINARY: &str = "xt-perf-trace";

#[derive(Debug, PartialEq)]
enum Mode {
    One { workload: Workload, trace: bool },
    All,
    Selfcheck,
}

#[derive(Debug, PartialEq)]
struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    quick: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::All,
        seed: 12,
        seconds: 22.0,
        quick: false,
        out: PathBuf::from("crates/perf/out"),
    };
    let (mut workload, mut trace, mut mode) = (None, false, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "all" => mode = Some(Mode::All),
            "selfcheck" => mode = Some(Mode::Selfcheck),
            "--quick" => cli.quick = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cli.mode = match (mode, workload) {
        (None, Some(workload)) => Mode::One { workload, trace },
        (Some(mode), None) => mode,
        (None, None) => return Err("name a workload, `all` or `selfcheck`".into()),
        (Some(_), Some(_)) => return Err("`all` and `selfcheck` take no --workload".into()),
    };
    Ok(cli)
}

/// Entry point of both binaries. `counter` is the allocator the binary
/// installed, if it installed one: only that binary can make a traced run,
/// and the other one hands a traced run over to it.
pub fn main(counter: Option<&'static Counting>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("xt-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.mode {
        Mode::One { workload, trace } => {
            let run_args = Args {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                quick: cli.quick,
                out: Some(cli.out),
            };
            let outcome = match (trace, counter) {
                (false, _) => run::timed(&run_args),
                (true, Some(counter)) => run::traced(&run_args, counter),
                (true, None) => return hand_over(&args),
            };
            if let Err(e) = outcome.write_files() {
                eprintln!("xt-perf: cannot write result files: {e}");
            }
            print!("{}", outcome.table());
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Mode::All => match suite(&cli, &Workload::ALL, "BENCH.json") {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xt-perf: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Selfcheck => selfcheck(&cli),
    }
}

/// Replaces this process with the tracing binary that sits beside it.
fn hand_over(args: &[String]) -> ExitCode {
    use std::os::unix::process::CommandExt;
    let sibling = std::env::current_exe().map(|exe| exe.with_file_name(TRACE_BINARY));
    let error = match sibling {
        Ok(path) => Command::new(path).args(args).exec(),
        Err(e) => e,
    };
    eprintln!("xt-perf: cannot start {TRACE_BINARY} (built beside xt-perf by `cargo build -p xt-perf`): {error}");
    ExitCode::FAILURE
}

/// The result lines of one workload's two runs.
struct Lines {
    workload: Workload,
    timed: String,
    traced: String,
}

/// Runs this binary again for one workload and returns its result line.
fn child(cli: &Cli, workload: Workload, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &cli.seed.to_string(),
        "--seconds",
        &cli.seconds.to_string(),
    ])
    .arg("--out")
    .arg(&cli.out)
    .stdout(Stdio::piped());
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) failed: {}",
            workload.name(),
            u8::from(trace),
            output.status
        ));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{} printed nothing", workload.name()))
}

/// A timed and a traced run of each of `order`, then `file`: the result
/// files of all of them in one document.
fn suite(cli: &Cli, order: &[Workload], file: &str) -> Result<Vec<Lines>, String> {
    let mut lines = Vec::new();
    for &workload in order {
        lines.push(Lines {
            workload,
            timed: child(cli, workload, false)?,
            traced: child(cli, workload, true)?,
        });
    }
    let mut parts = Vec::new();
    for workload in Workload::ALL {
        for suffix in ["json", "layers.json"] {
            let path = cli.out.join(format!("{}.{suffix}", workload.name()));
            parts.push(
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
    }
    let document = format!(
        "{{\"benchmark\": \"xt-perf\", \"runs\": [\n{}]}}\n",
        parts.join(",")
    );
    let path = cli.out.join(file);
    std::fs::write(&path, document).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(lines)
}

/// Two suites on the same binary, the second in reverse workload order; every
/// end-to-end median must agree within its bound and the simulated wire bytes
/// exactly.
fn selfcheck(cli: &Cli) -> ExitCode {
    let reversed: Vec<Workload> = Workload::ALL.into_iter().rev().collect();
    let sets = suite(cli, &Workload::ALL, "BENCH.selfcheck-1.json")
        .and_then(|first| Ok((first, suite(cli, &reversed, "BENCH.selfcheck-2.json")?)));
    let (first, second) = match sets {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("xt-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut pass = true;
    println!(
        "{:<14} {:<26} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "first", "second", "diff"
    );
    for a in &first {
        let b = second
            .iter()
            .find(|b| b.workload == a.workload)
            .expect("both suites run every workload");
        let mut row = |metric: &str, x: Option<f64>, y: Option<f64>, bound: f64| {
            let (Some(x), Some(y)) = (x, y) else {
                pass = false;
                println!("{:<14} {:<26} missing", a.workload.name(), metric);
                return;
            };
            let diff = if x == y { 0.0 } else { (y - x) / x };
            let ok = diff.abs() <= bound;
            pass &= ok;
            println!(
                "{:<14} {:<26} {:>16.4} {:>16.4} {:>+8.2}%  {} (bound {:.0}%)",
                a.workload.name(),
                metric,
                x,
                y,
                diff * 100.0,
                if ok { "PASS" } else { "FAIL" },
                bound * 100.0
            );
        };
        for m in &END_TO_END {
            row(
                m.name,
                metric_value(&a.timed, m.name),
                metric_value(&b.timed, m.name),
                m.bound,
            );
        }
        let wire = "netsim.wire_bytes_per_op";
        row(
            wire,
            metric_value(&a.traced, wire),
            metric_value(&b.traced, wire),
            0.0,
        );
    }
    println!("selfcheck: {}", if pass { "PASS" } else { "FAIL" });
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse(&strings(&[
            "--workload",
            "dqn_replay",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]));
        let cli = cli.expect("valid");
        assert_eq!(
            cli.mode,
            Mode::One {
                workload: Workload::DqnReplay,
                trace: true
            }
        );
        assert_eq!((cli.seed, cli.seconds, cli.quick), (7, 20.0, false));
        assert_eq!(
            parse(&strings(&["selfcheck", "--quick"]))
                .expect("valid")
                .mode,
            Mode::Selfcheck
        );
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            &["--workload", "pong"][..],
            &["--workload"],
            &["--trace", "2", "--workload", "xfer_small"],
            &["--seconds", "0", "--workload", "xfer_small"],
            &["--seed", "-1", "--workload", "xfer_small"],
            &["all", "--workload", "xfer_small"],
            &["--frobnicate"],
            &[],
        ] {
            assert!(parse(&strings(bad)).is_err(), "{bad:?} should not parse");
        }
    }
}
