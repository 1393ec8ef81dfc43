//! The F-Box benchmark: four seeded workloads driven through the public
//! API of the `fbox-*` crates, one closed-loop client each.
//!
//! ```text
//! fbox-perfbench --workload <audit|explore|ingest|mitigate> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The line before it holds the run's
//! host-noise diagnostics. Reports and spans go to `perfbench-out/`.
//! See README.md.

mod audit;
mod explore;
mod host;
mod ingest;
mod metrics;
mod mitigate;
mod rng;
mod stats;
mod trace;
mod workload;

use metrics::Values;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{drive, Samples, TraceMode, Workload};

/// Set-ups timed in fresh child processes, besides the run's own.
const SETUP_CHILDREN: usize = 6;

/// How long a traced run drives each of the other workloads, so that it
/// reports every layer.
const SIDE_PASS: Duration = Duration::from_secs(1);

const WORKLOADS: [&str; 4] = ["audit", "explore", "ingest", "mitigate"];

const OUT_DIR: &str = "perfbench-out";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-child" {
            setup_child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_child { 0 } else { seconds.ok_or("--seconds is required")? },
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fbox-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let result = match args.workload {
        "audit" => run::<audit::Audit>(&args),
        "explore" => run::<explore::Explore>(&args),
        "ingest" => run::<ingest::Ingest>(&args),
        _ => run::<mitigate::Mitigate>(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fbox-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pins the program's worker count to the machine's cores, and turns off
/// its own tracing, telemetry and fault injection. Runs before any
/// thread starts; set-up children inherit it.
fn pin_environment() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    std::env::set_var("FBOX_THREADS", cores.to_string());
    for var in ["FBOX_TRACE", "FBOX_TELEMETRY", "FBOX_FAULTS"] {
        std::env::remove_var(var);
    }
}

fn work_dir(workload: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{workload}-{}", std::process::id()))
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    if args.setup_child {
        let setup = time_setup::<W>(args.seed, &work_dir(args.workload));
        println!("setup_s {setup}");
        return Ok(());
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let cpu_start = host::CpuSample::read();
    let load_start = host::loadavg();

    let mut setups = Vec::new();
    if !args.trace {
        for _ in 0..SETUP_CHILDREN {
            setups.push(setup_in_child(args)?);
        }
    }
    let dir = work_dir(args.workload);
    let input = W::prepare(args.seed, &dir);
    let mut tr = Tracer::new(args.trace);
    let t = Instant::now();
    let mut w = W::setup(input, &mut tr);
    setups.push(t.elapsed().as_secs_f64());
    tr.set_enabled(false);

    let mode = if args.trace { TraceMode::Alternate } else { TraceMode::Off };
    let samples = drive(&mut w, &mut tr, Duration::from_secs(args.seconds), mode);
    let mut correct = w.setup_ok() && samples.failed == 0;

    let mut values = Values::new();
    let defs = if args.trace {
        let untraced = stats::median(samples.untraced_ms.samples()).ok_or("no untraced op")?;
        let traced = stats::median(samples.traced_ms.samples()).ok_or("no traced op")?;
        values.insert("bench.trace_overhead_pct", (traced / untraced - 1.0) * 100.0);
        w.layers(&mut tr, &mut values);
        write_spans(args, &tr)?;
        drop(w);
        correct &= side_passes(args, &mut values);
        metrics::PER_LAYER
    } else {
        drop(w);
        end_to_end(&samples, &setups, &mut values)?;
        metrics::END_TO_END
    };
    let rendered = metrics::render(defs, &values)?;

    let noise = match (cpu_start, host::CpuSample::read(), load_start, host::loadavg()) {
        (Some(a), Some(b), Some(l0), Some(l1)) => host::Noise::between(a, b, l0, l1).to_json(),
        _ => "null".to_string(),
    };
    // The latency sample count, and the highest percentile it supports
    // with ten samples beyond it (null: not even the median does).
    let n = samples.untraced_ms.samples().len();
    let tail = stats::tail_percentile(n).map_or("null".to_string(), |p| p.to_string());
    let diagnostics = format!(
        r#"{{"workload": "{}", "seed": {}, "trace": {}, "workers": {}, "ops": {}, "latency_samples": {n}, "tail_percentile": {tail}, "setup_samples_s": {:?}, "host": {noise}}}"#,
        args.workload,
        args.seed,
        u8::from(args.trace),
        fbox_par::max_threads(),
        samples.attempted,
        setups,
    );
    let report = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &report,
        format!("{{\"diagnostics\": {diagnostics}, \"metrics\": {rendered}}}\n"),
    )
    .map_err(|e| format!("{}: {e}", report.display()))?;
    println!("{diagnostics}");
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {rendered}}}"#,
        samples.attempted, samples.failed
    );
    Ok(())
}

/// Prepares inputs, then times the set-up alone.
fn time_setup<W: Workload>(seed: u64, dir: &Path) -> f64 {
    let input = W::prepare(seed, dir);
    let t = Instant::now();
    let w = W::setup(input, &mut Tracer::new(false));
    let s = t.elapsed().as_secs_f64();
    drop(w);
    let _ = std::fs::remove_dir_all(dir);
    s
}

/// Times one cold set-up in a fresh process of this program.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload, "--seed", &args.seed.to_string(), "--setup-child"])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("set-up child failed ({}): {}", out.status, stdout.trim()));
    }
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("setup_s "))
        .next_back()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up child printed no time: {}", stdout.trim()))
}

fn end_to_end(s: &Samples, setups: &[f64], values: &mut Values) -> Result<(), String> {
    let ops = s.untraced_ms.samples();
    values.insert("setup_s", stats::median(setups).ok_or("no set-up sample")?);
    values.insert("op_ms.p50", stats::median(ops).ok_or("no op sample")?);
    // A p99 with fewer than ten samples beyond it is one or two ops a
    // neighbour happened to slow; fall back to the highest percentile
    // that has ten (the median on audit's few dozen ops).
    let tail = stats::tail_percentile(ops.len()).unwrap_or(50.0).min(99.0);
    values.insert("op_ms.p99", stats::percentile(ops, tail).ok_or("no op sample")?);
    values.insert("peak_rss_mb", host::peak_rss_mb().ok_or("VmHWM unreadable")?);
    Ok(())
}

fn write_spans(args: &Args, tr: &Tracer) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let fold = Path::new(OUT_DIR).join(format!("{}-seed{}.selftime.txt", args.workload, args.seed));
    let mut text = String::from("span\tcount\ttotal_ms\tself_ms\n");
    for (name, f) in tr.fold() {
        text += &format!(
            "{name}\t{}\t{:.3}\t{:.3}\n",
            f.count,
            f.total_ns as f64 / 1e6,
            f.self_ns as f64 / 1e6
        );
    }
    std::fs::write(&fold, text).map_err(|e| format!("{}: {e}", fold.display()))
}

/// Drives every other workload briefly, all ops traced, for the layers
/// the traced workload does not reach. A layer the traced workload timed
/// keeps its own value. Returns whether every side op passed its check.
fn side_passes(args: &Args, values: &mut Values) -> bool {
    let mut all_ok = true;
    for name in WORKLOADS.into_iter().filter(|w| *w != args.workload) {
        let mut side = Values::new();
        let ok = match name {
            "audit" => side_pass::<audit::Audit>(args.seed, name, &mut side),
            "explore" => side_pass::<explore::Explore>(args.seed, name, &mut side),
            "ingest" => side_pass::<ingest::Ingest>(args.seed, name, &mut side),
            _ => side_pass::<mitigate::Mitigate>(args.seed, name, &mut side),
        };
        if !ok {
            eprintln!("fbox-perfbench: a {name} op failed its check in the side pass");
        }
        all_ok &= ok;
        for (k, v) in side {
            values.entry(k).or_insert(v);
        }
    }
    all_ok
}

fn side_pass<W: Workload>(seed: u64, name: &str, out: &mut Values) -> bool {
    let input = W::prepare(seed, &work_dir(name));
    let mut tr = Tracer::new(true);
    let mut w = W::setup(input, &mut tr);
    let s = drive(&mut w, &mut tr, SIDE_PASS, TraceMode::All);
    w.layers(&mut tr, out);
    w.setup_ok() && s.failed == 0
}
