//! The HammerBlade-RS simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gemm-16x8|graph-16x8|compute-8x4|campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced run that measures the per-layer metrics. Every metric is printed
//! by name with its unit, and the last line of standard output is the
//! result object. `perfbench/README.md` lists the metrics and workloads.

mod campaign;
mod components;
mod kernels;
mod report;
mod sim;
mod trace;

use hb_core::CellDim;
use kernels::Kernel;
use report::{median, percentile, ratio, Report};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <gemm-16x8|graph-16x8|compute-8x4|campaign> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where runs leave their spans and campaign stores, inside the checkout.
pub const WORK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/work");

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Gemm16x8,
    Graph16x8,
    Compute8x4,
    Campaign,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "gemm-16x8" => Workload::Gemm16x8,
            "graph-16x8" => Workload::Graph16x8,
            "compute-8x4" => Workload::Compute8x4,
            "campaign" => Workload::Campaign,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Gemm16x8 => "gemm-16x8",
            Workload::Graph16x8 => "graph-16x8",
            Workload::Compute8x4 => "compute-8x4",
            Workload::Campaign => "campaign",
        }
    }

    /// The simulation workloads' Cell shape and kernels.
    fn sim(self) -> Option<(CellDim, &'static [Kernel])> {
        match self {
            Workload::Gemm16x8 => Some((CellDim { x: 16, y: 8 }, &[Kernel::Sgemm])),
            Workload::Graph16x8 => {
                Some((CellDim { x: 16, y: 8 }, &[Kernel::PageRank, Kernel::Bfs]))
            }
            Workload::Compute8x4 => Some((
                CellDim { x: 8, y: 4 },
                &[Kernel::SmithWaterman, Kernel::Aes],
            )),
            Workload::Campaign => None,
        }
    }
}

pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Output of a command, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Today's UTC date as `YYYY-MM-DD` (days-to-civil conversion).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Value of a `key: value` line in a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_owned())
    })
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_metadata(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: cores={cores} cpu={:?} rustc={:?} date={} git_rev={}",
        proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_owned()),
        command_line("rustc", &["--version"]),
        utc_date(),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    println!(
        "knobs: threads=1 event_core=on telemetry=off profile=off race_check=off \
         (pinned in the workload; HB_THREADS/HB_EVENT_CORE are ignored)"
    );
    println!(
        "note: modelled caches start empty on every launch, as on a real launch; \
         the model is not validated against silicon, so no accuracy figure is given"
    );
}

fn secs_ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// The per-layer metrics of a profiled simulation loop.
fn layer_metrics(r: &mut Report, lr: &sim::LoopResult) {
    let mut phases = hb_core::PhaseTimes::default();
    let mut work = sim::Work::default();
    for it in &lr.iters {
        work.add(&it.work);
        sim::add_phases(&mut phases, &it.phases);
    }
    let total = secs_ns(phases.total());
    let cycles = work.cycles as f64;
    let share = |d: Duration| ratio(secs_ns(d), total) * 100.0;
    let shares = [
        phases.network,
        phases.memory,
        phases.tiles,
        phases.sched,
        phases.sync,
        phases.inject,
    ]
    .map(share);
    let sum: f64 = shares.iter().sum();
    if (sum - 100.0).abs() > 0.5 {
        r.errors
            .push(format!("phase shares sum to {sum:.3}%, not 100%"));
    }
    // Counts are those of one iteration: exact, and equal on every run.
    let one = lr.work;
    r.metric(
        "noc.ns_per_cycle",
        ratio(secs_ns(phases.network), cycles),
        "ns",
    );
    r.metric("noc.phase_share", shares[0], "%");
    r.metric(
        "noc.ns_per_flit",
        ratio(secs_ns(phases.network), work.flits as f64),
        "ns",
    );
    r.metric("noc.flits", one.flits as f64, "count");
    r.metric("noc.ejected", one.ejected as f64, "count");
    r.metric(
        "noc.stalled_share",
        ratio(
            one.link_stalled as f64,
            (one.link_busy + one.link_stalled) as f64,
        ) * 100.0,
        "%",
    );
    r.metric(
        "mem.ns_per_cycle",
        ratio(secs_ns(phases.memory), cycles),
        "ns",
    );
    r.metric("mem.phase_share", shares[1], "%");
    r.metric("cache.accesses", one.cache_accesses as f64, "count");
    r.metric(
        "cache.hit_ratio",
        ratio(one.cache_hits as f64, one.cache_accesses as f64) * 100.0,
        "%",
    );
    r.metric("cache.rejected", one.cache_rejected as f64, "count");
    r.metric("hbm.reads", one.hbm_reads as f64, "count");
    r.metric("hbm.writes", one.hbm_writes as f64, "count");
    r.metric(
        "hbm.row_hit_ratio",
        ratio(one.hbm_row_hits as f64, one.hbm_row_accesses as f64) * 100.0,
        "%",
    );
    r.metric(
        "hbm.data_utilization",
        ratio(one.hbm_data_cycles as f64, one.hbm_cycles as f64) * 100.0,
        "%",
    );
    r.metric(
        "tiles.ns_per_step",
        ratio(secs_ns(phases.tiles), work.stepped as f64),
        "ns",
    );
    r.metric("tiles.phase_share", shares[2], "%");
    r.metric("tiles.instrs", one.instrs as f64, "count");
    r.metric(
        "tiles.ipc",
        ratio(one.instrs as f64, one.cycles as f64),
        "instr/cycle",
    );
    r.metric("sched.stepped", one.stepped as f64, "count");
    r.metric("sched.skipped", one.skipped as f64, "count");
    r.metric(
        "sched.skip_ratio",
        ratio(one.skipped as f64, (one.stepped + one.skipped) as f64) * 100.0,
        "%",
    );
    r.metric(
        "sched.ns_per_cycle",
        ratio(secs_ns(phases.sched), cycles),
        "ns",
    );
    r.metric("sched.phase_share", shares[3], "%");
    r.metric(
        "sync.ns_per_cycle",
        ratio(secs_ns(phases.sync), cycles),
        "ns",
    );
    r.metric("sync.phase_share", shares[4], "%");
    r.metric("inject.phase_share", shares[5], "%");
    r.metric("sim.cycles", one.cycles as f64, "count");
    for (name, secs) in sim::stage_medians(&lr.iters) {
        r.metric(&format!("{name}_s"), secs, "s");
    }
    let validate: Vec<f64> = lr.iters.iter().map(|it| it.validate_s).collect();
    r.metric("validate.golden_s", median(&validate), "s");
    // Paired within each iteration, so host-speed drift between
    // iterations cancels.
    let slowdown: Vec<f64> = lr
        .iters
        .iter()
        .map(|it| it.run_s / it.plain_run_s)
        .collect();
    r.metric("trace.overhead_pct", (median(&slowdown) - 1.0) * 100.0, "%");
}

/// End-to-end metrics of an unprofiled simulation loop. A job is one pass
/// over the workload's kernels, setup to validated output.
///
/// Rates are taken at the iteration whose time is the 90th percentile
/// (nearest rank). A shared host can switch between a contended speed and
/// one up to ~1.8x faster for seconds at a time; a median moves with the
/// share of a run spent at each speed, while the 90th percentile follows
/// the contended speed whenever a run holds a few contended iterations.
/// The cycle and instruction counts are the same on every iteration.
fn sim_metrics(r: &mut Report, lr: &sim::LoopResult) {
    let per_iter =
        |f: &dyn Fn(&sim::Iteration) -> f64| -> Vec<f64> { lr.iters.iter().map(f).collect() };
    let run_s = per_iter(&|it| it.run_s);
    let p90_run_s = percentile(&run_s, 0.9);
    r.metric(
        "sim_cycles_per_s",
        lr.work.cycles as f64 / p90_run_s,
        "cycles/s",
    );
    r.metric(
        "guest_mips",
        lr.work.instrs as f64 / p90_run_s / 1e6,
        "MIPS",
    );
    r.metric("setup_s", median(&per_iter(&|it| it.setup_s)), "s");
    println!(
        "cycles/s per iteration: {}",
        run_s
            .iter()
            .map(|s| format!("{:.0}", lr.work.cycles as f64 / s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let walls = per_iter(&|it| it.wall_s * 1e3);
    let p90_ms = percentile(&walls, 0.9);
    r.metric("jobs_per_s", 1e3 / p90_ms, "1/s");
    r.metric("job_ms_p90", p90_ms, "ms");
    println!(
        "info job_ms_p50 {:.6} ms over {} jobs (not gated: moves with host speed)",
        median(&walls),
        walls.len()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print_metadata(&args);
    let tracer = Tracer::new(args.trace);
    let mut r = Report::default();
    let iters = match args.workload.sim() {
        Some((dim, kernels)) => {
            let cfg = sim::config(dim);
            let lr = sim::timed_loop(kernels, &cfg, args.seed, args.seconds, args.trace, &tracer);
            r.attempted += lr.attempted;
            r.failed += lr.failed;
            r.errors.extend(lr.errors.iter().cloned());
            if args.trace {
                layer_metrics(&mut r, &lr);
            } else {
                sim_metrics(&mut r, &lr);
            }
            println!(
                "work per iteration ({}): {:?}",
                kernels
                    .iter()
                    .map(|k| k.label())
                    .collect::<Vec<_>>()
                    .join("+"),
                lr.work
            );
            lr.iters.len()
        }
        None => campaign::workload(&args, &tracer, &mut r),
    };
    if args.trace {
        if args.workload != Workload::Campaign {
            campaign::mini(&args, &tracer, &mut r);
        }
        components::measure(&args, &mut r);
        r.metric(
            "failed_share",
            ratio(r.failed as f64, r.attempted as f64),
            "ratio",
        );
        for st in tracer.self_times() {
            println!(
                "span {:<20} count {:>6} total {:>10.3} s self {:>10.3} s",
                st.name, st.count, st.total_s, st.self_s
            );
        }
        let path = format!(
            "{WORK_DIR}/spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        );
        if let Err(e) =
            std::fs::create_dir_all(WORK_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            r.errors.push(format!("cannot write spans to {path}: {e}"));
        } else {
            println!("spans: {path}");
        }
    } else {
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    println!(
        "iterations: measured={iters} warmup_discarded={} seed={}",
        sim::WARMUP,
        args.seed
    );
    r.print();
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
