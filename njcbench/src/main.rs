//! End-to-end benchmark of the njc pipeline, with a per-layer trace.
//!
//! ```text
//! cargo run --release --manifest-path njcbench/Cargo.toml -- \
//!     --workload compile_corpus --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client thread drives a closed loop of ops through the public
//! functions of each layer and checks every op's output. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `NOTES.md` for the workloads and metrics.

mod calib;
mod common;
mod compile;
mod execute;
mod host;
mod service;
mod storm;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use trace::Rec;

/// One workload: a list of ops (one pass) the loop cycles through.
pub trait Workload {
    /// Ops in one pass.
    fn pass_len(&self) -> usize;
    /// Runs op `i` of the pass and checks its output.
    fn op(&mut self, i: usize, rec: &mut Rec) -> Result<(), String>;
    /// Corrupts one reference output, for the self-test that the checks
    /// catch a wrong answer.
    fn plant_wrong_reference(&mut self);
    /// Counters whose first-pass sums must repeat exactly for a seed.
    fn deterministic(&self) -> &'static [&'static str] {
        &[
            "bench.code_bytes",
            "bench.model_cycles",
            "bench.guest_insts",
            "bench.traps",
            "vm.insts",
            "vm.traps",
            "recover.recoveries",
            "emit.sites",
            "emit.verify.findings",
            "opt.checks_eliminated",
            "opt.implicit_converted",
            "opt.ir_insts_out",
            "codegen.minsts_out",
        ]
    }
    /// Per-layer metrics only this workload can compute.
    fn layer_metrics(&self, _rec: &Rec) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

const WORKLOADS: [&str; 4] = [
    "compile_corpus",
    "execute_corpus",
    "trap_storm",
    "service_fleet",
];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Sub-windows the timed window is split into; each end-to-end statistic
/// is the second-best over them.
const SUB_WINDOWS: usize = 10;
/// Op latencies a window's buffer holds before it grows.
const WINDOW_OPS_RESERVED: usize = 1 << 15;
/// Seconds between host-speed readings inside a window.
const SPEED_EVERY_S: f64 = 0.1;
/// Fewest ops a (sub-)window reports percentiles over: p90 then has at
/// least ten samples beyond it.
const MIN_OPS: usize = 100;
/// Where a traced run writes its spans.
const TRACE_DIR: &str = ".bench_out";
/// Failed ops whose message is printed.
const MAX_REPORTED_FAILURES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        plant: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--plant-wrong-reference" => args.plant = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "compile_corpus" => Box::new(compile::CompileCorpus::setup(seed)?),
        "execute_corpus" => Box::new(execute::ExecuteCorpus::setup(seed)?),
        "trap_storm" => Box::new(storm::TrapStorm::setup(seed)?),
        "service_fleet" => Box::new(service::ServiceFleet::setup(seed)?),
        other => unreachable!("workload {other} was validated"),
    })
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(xs, 0.5)
}

/// Op latencies and process resource use over one timed window.
struct Window {
    /// Op latencies, ascending.
    op_ms: Vec<f64>,
    wall_s: f64,
    cpu_ms: f64,
    /// Host speed over the window (see `calib`).
    speed: f64,
}

impl Window {
    fn percentile(&self, p: f64) -> f64 {
        percentile(&self.op_ms, p)
    }
}

struct Loop<'a> {
    work: &'a mut dyn Workload,
    rec: Rec,
    next: usize,
    op_id: u64,
    attempted: u64,
    failed: u64,
}

impl Loop<'_> {
    fn one(&mut self) -> f64 {
        let i = self.next % self.work.pass_len();
        self.next += 1;
        self.op_id += 1;
        let t = Instant::now();
        self.rec.begin("bench.op", self.op_id);
        let res = self.work.op(i, &mut self.rec);
        self.rec.end();
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            if self.failed as usize <= MAX_REPORTED_FAILURES {
                eprintln!("njcbench: op {i} failed: {e}");
            }
        }
        ms
    }

    /// Runs ops until `seconds` have passed, at least `min_ops` ran and the
    /// pass through the op list is complete, reading the host speed every
    /// [`SPEED_EVERY_S`] between ops. Whole passes give every window the
    /// same mix of ops, so its percentiles do not move with where it cut a
    /// pass: op latencies vary by more than 10× within a pass.
    fn window(&mut self, seconds: f64, min_ops: usize) -> Window {
        let mut meter = calib::Speedometer::default();
        meter.read();
        let cpu0 = host::cpu_ms();
        let t = Instant::now();
        let mut next_read = SPEED_EVERY_S;
        // Written through once, so the buffer's pages count in the peak RSS
        // whether or not the window fills it: the RSS then does not grow
        // with the host's speed.
        let mut op_ms = vec![1.0; WINDOW_OPS_RESERVED];
        op_ms.clear();
        let pass = self.work.pass_len();
        while op_ms.len() < min_ops
            || t.elapsed().as_secs_f64() < seconds
            || !self.next.is_multiple_of(pass)
        {
            op_ms.push(self.one());
            if t.elapsed().as_secs_f64() >= next_read {
                meter.read();
                next_read += SPEED_EVERY_S;
            }
        }
        let wall_s = t.elapsed().as_secs_f64() - meter.spent_s;
        let cpu_ms = host::cpu_ms() - cpu0 - meter.spent_s * 1000.0;
        op_ms.sort_by(f64::total_cmp);
        Window {
            wall_s,
            cpu_ms,
            op_ms,
            speed: meter.speed(),
        }
    }
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("njcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::record(&args.workload, args.seed);
    println!("host: {host}");

    // Set-up: generate inputs from the seed, compile what the workload
    // needs compiled and compute the references. Repeated; median reported.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_meter = calib::Speedometer::default();
    let mut work = None;
    for _ in 0..SETUPS {
        drop(work.take());
        setup_meter.read();
        let t = Instant::now();
        match setup(&args.workload, args.seed) {
            Ok(w) => work = Some(w),
            Err(e) => {
                eprintln!("njcbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    setup_meter.read();
    let setup_speed = setup_meter.speed();
    let mut work = work.expect("at least one set-up ran");
    if args.plant {
        work.plant_wrong_reference();
    }

    // Warm-up: one full pass, untimed. It fills the caches and records the
    // deterministic counts. A traced run traces it, so its counts are the
    // ones counted under tracing, then drops its spans: the per-layer
    // times cover the timed window only.
    let mut lp = Loop {
        work: work.as_mut(),
        rec: Rec::new(args.trace),
        next: 0,
        op_id: 0,
        attempted: 0,
        failed: 0,
    };
    let pass = lp.work.pass_len();
    for _ in 0..pass {
        lp.one();
    }
    lp.rec.end_first_pass();
    lp.rec.set_tracing(false);
    lp.rec.clear_spans();
    let counts: Vec<String> = lp
        .work
        .deterministic()
        .iter()
        .map(|n| format!("\"{n}\": {}", lp.rec.pass_count(n)))
        .collect();
    println!("counts: {{{}}}", counts.join(", "));

    let mut metrics = String::new();
    if !args.trace {
        // Each statistic is taken from the second-best of equal
        // sub-windows: interference from other processes on the host only
        // ever slows a window, and may last most of a run, while one lucky
        // window is left out. Each time is also scaled to reference host
        // speed (see `calib`). The unscaled figures are on the `raw:` line.
        let windows: Vec<Window> = (0..SUB_WINDOWS)
            .map(|_| lp.window(args.seconds / SUB_WINDOWS as f64, MIN_OPS))
            .collect();
        let second = |f: &dyn Fn(&Window) -> f64, higher_is_better: bool| {
            let mut v: Vec<f64> = windows.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            if higher_is_better {
                v[v.len() - 2]
            } else {
                v[1]
            }
        };
        let over = |f: &dyn Fn(&Window) -> f64| second(f, false);
        let ops_per_s = |w: &Window| w.op_ms.len() as f64 / w.wall_s;
        let cpu_per_op = |w: &Window| w.cpu_ms / w.op_ms.len() as f64;
        let setup = median(&mut setup_s);
        let mut raw = String::new();
        metric(&mut raw, "setup_s", setup, "s");
        metric(&mut raw, "ops_per_s", second(&ops_per_s, true), "1/s");
        metric(&mut raw, "op_ms_p50", over(&|w| w.percentile(0.5)), "ms");
        metric(&mut raw, "op_ms_p90", over(&|w| w.percentile(0.9)), "ms");
        metric(&mut raw, "cpu_ms_per_op", over(&cpu_per_op), "ms");
        metric(&mut raw, "host_speed", second(&|w| w.speed, true), "ratio");
        println!("raw: {{{raw}}}");
        metric(&mut metrics, "setup_s", setup * setup_speed, "s");
        metric(
            &mut metrics,
            "ops_per_s",
            second(&|w| ops_per_s(w) / w.speed, true),
            "1/s",
        );
        metric(
            &mut metrics,
            "op_ms_p50",
            over(&|w| w.percentile(0.5) * w.speed),
            "ms",
        );
        metric(
            &mut metrics,
            "op_ms_p90",
            over(&|w| w.percentile(0.9) * w.speed),
            "ms",
        );
        metric(
            &mut metrics,
            "cpu_ms_per_op",
            over(&|w| cpu_per_op(w) * w.speed),
            "ms",
        );
        metric(&mut metrics, "peak_rss_mb", host::peak_rss_mb(), "MB");
        println!(
            "{}: {} timed ops in {:.2} s",
            args.workload,
            windows.iter().map(|w| w.op_ms.len()).sum::<usize>(),
            windows.iter().map(|w| w.wall_s).sum::<f64>()
        );
    } else {
        // Half the window untraced, half traced: the p50 ratio is the
        // tracing overhead, and the per-layer figures cover the traced half.
        let plain = lp.window(args.seconds / 2.0, MIN_OPS);
        lp.rec.set_tracing(true);
        let traced = lp.window(args.seconds / 2.0, MIN_OPS);
        let layers = layer_metrics(&lp, &plain, &traced);
        for (name, value, unit) in &layers {
            metric(&mut metrics, name, *value, unit);
        }
        let n = traced.op_ms.len() as f64;
        let op_ms: f64 = traced.op_ms.iter().sum::<f64>() / n;
        if let Some((name, t)) = lp.rec.top_layer() {
            let ms = t.self_ns as f64 / 1e6 / n;
            println!(
                "top layer by self time on {}: {name} {ms:.4} ms/op ({:.1}% of {op_ms:.4} ms/op)",
                args.workload,
                100.0 * ms / op_ms
            );
        }
        for (name, t) in lp.rec.layers_by_self() {
            println!(
                "  {name:<20} self {:>10.4} ms/op  total {:>10.4} ms/op  calls {}",
                t.self_ns as f64 / 1e6 / n,
                t.total_ns as f64 / 1e6 / n,
                t.calls
            );
        }
        let path = format!(
            "{}/trace-{}-seed{}.json",
            TRACE_DIR, args.workload, args.seed
        );
        let meta = format!(
            "{{\"host\": {host}, \"counts\": {{{}}}}}",
            counts.join(", ")
        );
        match std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, lp.rec.chrome_trace(&meta)))
        {
            Ok(()) => println!("trace: {path}"),
            Err(e) => {
                eprintln!("njcbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let correct = lp.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        lp.attempted, lp.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not exercise report 0.
fn layer_metrics(
    lp: &Loop<'_>,
    plain: &Window,
    traced: &Window,
) -> Vec<(&'static str, f64, &'static str)> {
    let rec = &lp.rec;
    let n = traced.op_ms.len() as f64;
    let self_ms = |layer: &str| rec.layer(layer).self_ns as f64 / 1e6 / n;
    let total_s = |layer: &str| rec.layer(layer).total_ns as f64 / 1e9;
    let per_op = |counter: &str| rec.traced_count(counter) / n;
    let rate = |num: f64, secs: f64| if secs > 0.0 { num / secs } else { 0.0 };
    let pass = |counter: &str| rec.pass_count(counter);
    let traced_ms: f64 = traced.op_ms.iter().sum();
    let mut out = vec![
        ("ir.parse.self_ms", self_ms("ir.parse"), "ms"),
        (
            "ir.parse.kb_per_s",
            rate(
                rec.traced_count("ir.parse.bytes") / 1000.0,
                total_s("ir.parse"),
            ),
            "kB/s",
        ),
        ("ir.verify.self_ms", self_ms("ir.verify"), "ms"),
        ("opt.optimize.self_ms", self_ms("opt.optimize"), "ms"),
        (
            "opt.pass.inline.cpu_ms",
            per_op("opt.pass.inline.cpu_ms"),
            "ms",
        ),
        (
            "opt.pass.intrinsics.cpu_ms",
            per_op("opt.pass.intrinsics.cpu_ms"),
            "ms",
        ),
        (
            "opt.pass.nullcheck.cpu_ms",
            per_op("opt.pass.nullcheck.cpu_ms"),
            "ms",
        ),
        (
            "opt.pass.boundcheck.cpu_ms",
            per_op("opt.pass.boundcheck.cpu_ms"),
            "ms",
        ),
        (
            "opt.pass.scalar.cpu_ms",
            per_op("opt.pass.scalar.cpu_ms"),
            "ms",
        ),
        (
            "opt.pass.cleanup.cpu_ms",
            per_op("opt.pass.cleanup.cpu_ms"),
            "ms",
        ),
        (
            "opt.pass.interproc.cpu_ms",
            per_op("opt.pass.interproc.cpu_ms"),
            "ms",
        ),
        (
            "opt.pass.other.cpu_ms",
            per_op("opt.pass.other.cpu_ms"),
            "ms",
        ),
        (
            "analysis.validate.self_ms",
            self_ms("analysis.validate"),
            "ms",
        ),
        ("codegen.lower.self_ms", self_ms("codegen.lower"), "ms"),
        ("emit.emit.self_ms", self_ms("emit.emit"), "ms"),
        ("emit.verify.self_ms", self_ms("emit.verify"), "ms"),
        ("emit.elf.self_ms", self_ms("emit.elf"), "ms"),
        ("bench.unaccounted_ms", self_ms("bench.op"), "ms"),
        ("bench.check.self_ms", self_ms("bench.check"), "ms"),
        ("opt.ir_insts_out", pass("opt.ir_insts_out"), "count"),
        (
            "opt.checks_eliminated",
            pass("opt.checks_eliminated"),
            "count",
        ),
        (
            "opt.implicit_converted",
            pass("opt.implicit_converted"),
            "count",
        ),
        ("codegen.minsts_out", pass("codegen.minsts_out"), "count"),
        ("emit.sites", pass("emit.sites"), "count"),
        (
            "emit.verify.findings",
            pass("emit.verify.findings"),
            "count",
        ),
        ("vm.run.self_ms", self_ms("vm.run"), "ms"),
        (
            "vm.minsts_per_s",
            rate(rec.traced_count("vm.insts") / 1e6, total_s("vm.run")),
            "Minst/s",
        ),
        ("vm.insts", pass("vm.insts"), "count"),
        ("codegen.machine.self_ms", self_ms("codegen.machine"), "ms"),
        (
            "codegen.machine.minsts_per_s",
            rate(
                rec.traced_count("codegen.machine.insts") / 1e6,
                total_s("codegen.machine"),
            ),
            "Minst/s",
        ),
        ("emit.bytes.self_ms", self_ms("emit.bytes"), "ms"),
        (
            "emit.bytes.minsts_per_s",
            rate(
                rec.traced_count("emit.bytes.insts") / 1e6,
                total_s("emit.bytes"),
            ),
            "Minst/s",
        ),
        ("vm.traps", pass("vm.traps"), "count"),
        (
            "vm.traps_per_kinst",
            rate(pass("vm.traps") * 1000.0, pass("vm.insts")),
            "1/kinst",
        ),
        ("recover.recoveries", pass("recover.recoveries"), "count"),
        ("vm.trap_overhead_ns", 0.0, "ns"),
        ("emit.bytes.trap_overhead_ns", 0.0, "ns"),
        ("runtime.run.self_ms", self_ms("runtime.run"), "ms"),
        ("runtime.queue.wait_us_p50", 0.0, "us"),
        ("runtime.queue.wait_us_p99", 0.0, "us"),
        ("runtime.queue.wait_samples", 0.0, "count"),
        (
            "runtime.queue.submitted",
            per_op("runtime.queue.submitted"),
            "count",
        ),
        (
            "runtime.queue.coalesced",
            per_op("runtime.queue.coalesced"),
            "count",
        ),
        (
            "runtime.queue.rejected",
            per_op("runtime.queue.rejected"),
            "count",
        ),
        ("runtime.compiles", per_op("runtime.compiles"), "count"),
        (
            "runtime.isolated_compiles",
            per_op("runtime.isolated_compiles"),
            "count",
        ),
        ("runtime.dedup_ratio", 0.0, "ratio"),
        ("runtime.dedup_base", 0.0, "count"),
        ("runtime.cache.hit_ratio", 0.0, "ratio"),
        (
            "runtime.cache.lookups",
            per_op("runtime.cache.lookups"),
            "count",
        ),
        (
            "runtime.cache.evictions",
            per_op("runtime.cache.evictions"),
            "count",
        ),
        (
            "runtime.cache.admission_rejects",
            per_op("runtime.cache.admission_rejects"),
            "count",
        ),
        (
            "runtime.mid_run_swaps",
            per_op("runtime.mid_run_swaps"),
            "count",
        ),
        (
            "runtime.compile_panics",
            per_op("runtime.compile_panics"),
            "count",
        ),
        ("vm.adaptive_insts", pass("vm.adaptive_insts"), "count"),
        ("vm.steady_insts", pass("vm.steady_insts"), "count"),
        ("bench.code_bytes", pass("bench.code_bytes"), "bytes"),
        ("bench.model_cycles", pass("bench.model_cycles"), "cycles"),
        (
            "bench.guest_minsts_per_s",
            rate(
                rec.traced_count("bench.guest_insts") / 1e6,
                traced_ms / 1000.0,
            ),
            "Minst/s",
        ),
        (
            "bench.error_rate",
            lp.failed as f64 / lp.attempted.max(1) as f64,
            "ratio",
        ),
        (
            "bench.trace_overhead_pct",
            100.0
                * ((traced.percentile(0.5) * traced.speed) / (plain.percentile(0.5) * plain.speed)
                    - 1.0),
            "%",
        ),
        ("bench.traced_ops", n, "count"),
        ("bench.host_speed", traced.speed, "ratio"),
    ];
    for (name, value) in lp.work.layer_metrics(rec) {
        let slot = out
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .expect("workload metrics are declared above");
        slot.1 = value;
    }
    out
}
