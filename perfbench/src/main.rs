//! The repository benchmark: three workloads over the Adaptic stack, one
//! result schema, and a traced mode that attributes host time to layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <svm_train|plan_corpus|serve_mix> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run checks the outputs it produces and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured with tracing off. With
//! `--trace 1` the workload runs twice — untraced, then traced — and the
//! metrics are the per-layer set, taken from the traced run's spans and
//! counters, plus the tracing overhead (traced minus untraced) of every
//! end-to-end metric. The line before the result is the full report: every
//! metric with unit, direction, median, tail percentile and sample count,
//! plus the git revision and host core count. The spans and the report are
//! also written under `$CARGO_TARGET_DIR/perfbench/`.
//!
//! `BENCHMARK.json` lists `svm_train` and `plan_corpus`. `serve_mix` runs on
//! its own as well, but its wall-clock latency on a shared two-vCPU host
//! moved by up to 2x between quiet and busy minutes, and a p99 driven by
//! host wake-up jitter varied 2–7 ms even when quiet, so it is not a listed
//! workload. Instead, the traced run of every other workload adds a short
//! serving companion, so the serve, fleet and KMU layers are still measured.
//!
//! Simulated device time (`sim_device_ms`) is the paper's result and is
//! deterministic; everything else is host time, the cost of this
//! implementation. The two are reported side by side, never mixed. Set-up
//! and throughput are wall-clock. The cost of one operation
//! (`cpu_p50_ms`, `cpu_p99_ms`) is the process's CPU time, every thread
//! included: wall time also counts the time a shared virtual host gives
//! to other guests. Over ten 40 s `svm_train` runs on a two-vCPU VM, the
//! quartile distance of the wall-clock p50 of one training run was 13% of
//! its median, that of the CPU-time p50 5%. The wall-clock percentiles
//! (`latency_p50_ms`, `latency_p99_ms`) are in the report line.

mod corpus;
mod replay;
mod report;
mod serve;
mod svm;
mod sys;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::{metric_json, result_line, string, Better, Metric};
use trace::{self_time_by_layer, Tracer, LAYERS};

/// Length of the serving companion of a traced run (s).
const COMPANION_SECONDS: f64 = 5.0;

/// Least time between two set-up repetitions made between timed rounds
/// (s). Set-up repeats through the run, not only before it, so that its
/// median covers the same minutes of host load as the timed rounds: on a
/// shared host, back-to-back repetitions all caught one moment's speed,
/// which moved up to 2x from run to run.
pub const SETUP_EVERY_S: f64 = 1.0;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SvmTrain,
    PlanCorpus,
    ServeMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "svm_train" => Some(Workload::SvmTrain),
            "plan_corpus" => Some(Workload::PlanCorpus),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SvmTrain => "svm_train",
            Workload::PlanCorpus => "plan_corpus",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// Wall and process CPU time (ms) of each operation of one round.
#[derive(Debug, Default)]
pub struct OpTimes {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
}

/// Both clocks, read at the start of one operation.
pub struct OpClock {
    wall: Instant,
    cpu_s: f64,
}

impl OpClock {
    pub fn start() -> OpClock {
        OpClock {
            wall: Instant::now(),
            cpu_s: sys::process_cpu_s(),
        }
    }

    /// Record the operation's wall and CPU time in `times`.
    pub fn stop(self, times: &mut OpTimes) {
        times.cpu_ms.push((sys::process_cpu_s() - self.cpu_s) * 1e3);
        times.wall_ms.push(self.wall.elapsed().as_secs_f64() * 1e3);
    }
}

/// What one execution of a workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall seconds of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// The workload's operations per host second, one sample per round.
    pub throughput: Vec<f64>,
    /// Per-operation latency (ms), grouped by round (serve: by one-second
    /// window of due times).
    pub latency_ms: Vec<Vec<f64>>,
    /// Per-operation process CPU time (ms), grouped by round (serve: one
    /// round, the open loop's CPU time per completed request).
    pub cpu_ms: Vec<Vec<f64>>,
    /// Simulated device time (ms); deterministic per seed.
    pub sim_device_ms: f64,
    /// Operations attempted, including output checks.
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
    /// Outputs that were wrong, or simulated numbers that did not repeat.
    pub wrong: u64,
    /// Workload-specific end-to-end metrics (report only).
    pub extra: Vec<Metric>,
    /// Per-layer counters and distributions not derived from spans.
    pub layer: Vec<Metric>,
}

impl Run {
    /// Count one checked operation; `ok == false` marks it failed and wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// End-to-end metrics, identical in name and unit on every workload.
/// Per-operation cost is process CPU time: wall latency on a shared host
/// follows the time the host gives to other guests (see [`latency`]).
fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        Metric::median_of("setup_s", "s", Better::Lower, run.setup_s.clone()),
        Metric::median_of(
            "throughput_per_s",
            "1/s",
            Better::Higher,
            run.throughput.clone(),
        ),
        round_percentile("cpu_p50_ms", 50.0, &run.cpu_ms),
        round_percentile("cpu_p99_ms", 99.0, &run.cpu_ms),
        Metric::total("sim_device_ms", "ms", Better::Lower, run.sim_device_ms),
        Metric::total("peak_rss_mb", "MB", Better::Lower, sys::peak_rss_mb()),
    ]
}

/// Wall-clock latency percentiles, reported beside the end-to-end set.
fn latency(run: &Run) -> [Metric; 2] {
    [
        round_percentile("latency_p50_ms", 50.0, &run.latency_ms),
        round_percentile("latency_p99_ms", 99.0, &run.latency_ms),
    ]
}

/// The `p`-th percentile of per-operation time within each round, median
/// over rounds: a disturbed round moves one sample, not the headline.
fn round_percentile(name: &str, p: f64, rounds: &[Vec<f64>]) -> Metric {
    let per_round = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| report::percentile(r, p))
        .collect();
    Metric::median_of(name, "ms", Better::Lower, per_round)
}

/// How a per-layer metric is read off the traced run.
enum Source {
    /// Percentile of a span's durations (µs), times a unit factor.
    Span(&'static str, f64, f64),
    /// Supplied by the workload under the same name.
    Counter,
}

/// The per-layer metric set, in report order.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Better, Source)] = {
    use Better::{Higher, Lower};
    use Source::{Counter, Span};
    &[
        ("streamir.parse_us", "us", Lower, Span("streamir.parse", 50.0, 1.0)),
        ("streamir.rate_match_us", "us", Lower, Span("streamir.rate_match", 50.0, 1.0)),
        ("plan.compile_us.p50", "us", Lower, Span("plan.compile", 50.0, 1.0)),
        ("plan.compile_us.p99", "us", Lower, Span("plan.compile", 99.0, 1.0)),
        ("plan.export_us", "us", Lower, Span("plan.export", 50.0, 1.0)),
        ("plan.variants", "count", Lower, Counter),
        ("artifact.store_us", "us", Lower, Span("artifact.store", 50.0, 1.0)),
        ("artifact.load_us", "us", Lower, Span("artifact.load", 50.0, 1.0)),
        ("artifact.bytes", "bytes", Lower, Counter),
        ("artifact.hit_ratio", "ratio", Higher, Counter),
        ("runtime.run_opts_us.p50", "us", Lower, Span("runtime.run_opts", 50.0, 1.0)),
        ("runtime.run_opts_us.p99", "us", Lower, Span("runtime.run_opts", 99.0, 1.0)),
        ("runtime.ns_per_thread", "ns", Lower, Counter),
        ("runtime.executed_blocks", "count", Lower, Counter),
        ("gpusim.upload_us", "us", Lower, Span("gpusim.upload", 50.0, 1.0)),
        ("gpusim.cache_hit_ratio", "ratio", Higher, Counter),
        ("gpusim.warp_insts", "count", Lower, Counter),
        ("perfmodel.estimate_us", "us", Lower, Span("perfmodel.estimate", 50.0, 1.0)),
        ("apps.svm_train_s", "s", Lower, Span("apps.svm_train", 50.0, 1e-6)),
        ("apps.svm_host_share", "ratio", Lower, Counter),
        ("baselines.gpusvm_s", "s", Lower, Span("baselines.gpusvm_train", 50.0, 1e-6)),
        ("kmu.select_us", "us", Lower, Span("kmu.select", 50.0, 1.0)),
        ("kmu.corrected_cost_us", "us", Lower, Span("kmu.corrected_cost", 50.0, 1.0)),
        ("kmu.fallbacks", "count", Lower, Counter),
        ("kmu.boundary_moves", "count", Lower, Counter),
        ("fleet.place_us", "us", Lower, Span("fleet.place", 50.0, 1.0)),
        ("serve.submit_us.p50", "us", Lower, Span("serve.submit", 50.0, 1.0)),
        ("serve.submit_us.p99", "us", Lower, Span("serve.submit", 99.0, 1.0)),
        ("serve.queue_wait_ms.p50", "ms", Lower, Counter),
        ("serve.queue_wait_ms.p99", "ms", Lower, Counter),
        ("serve.service_ms.p50", "ms", Lower, Counter),
        ("serve.service_ms.p99", "ms", Lower, Counter),
        ("serve.reject_rate", "ratio", Lower, Counter),
        ("serve.shed_rate", "ratio", Lower, Counter),
        ("serve.coalesced_ratio", "ratio", Higher, Counter),
        ("serve.generator_lag_ms.p99", "ms", Lower, Counter),
    ]
};

/// Per-layer metrics of a traced run, then each layer's self time, then
/// the tracing overhead of each end-to-end metric. `sources` is the traced
/// workload first, then any companion; each metric comes from the first
/// source that reached its layer.
fn per_layer(sources: &[(&Run, &Tracer)], untraced_e2e: &[Metric]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, unit, better, source) in PER_LAYER {
        let found = sources.iter().find_map(|(run, tracer)| match source {
            Source::Span(span, p, factor) => {
                let d: Vec<f64> = tracer
                    .durations_us(span)
                    .iter()
                    .map(|v| v * factor)
                    .collect();
                (!d.is_empty()).then(|| Metric::percentile_of(*name, unit, *better, *p, d))
            }
            Source::Counter => run.layer.iter().find(|m| m.name == *name).cloned(),
        });
        // A layer no source reaches reports zero samples.
        out.push(found.unwrap_or_else(|| Metric::new(*name, unit, *better, 0.0, Vec::new())));
    }
    let self_ns: Vec<_> = sources
        .iter()
        .map(|(_, tracer)| self_time_by_layer(tracer.spans()))
        .collect();
    for layer in LAYERS {
        let ns = self_ns
            .iter()
            .find_map(|by_layer| by_layer.get(layer).copied())
            .unwrap_or(0);
        out.push(Metric::total(
            format!("{layer}.self_ms"),
            "ms",
            Better::Lower,
            ns as f64 / 1e6,
        ));
    }
    let traced_e2e = end_to_end(sources[0].0);
    for (t, u) in traced_e2e.iter().zip(untraced_e2e) {
        out.push(Metric::total(
            format!("trace_overhead.{}", t.name),
            t.unit,
            t.better,
            t.value - u.value,
        ));
    }
    out
}

fn run_workload(cfg: &Config, tracer: &mut Tracer) -> Run {
    match cfg.workload {
        Workload::SvmTrain => svm::run(cfg, tracer),
        Workload::PlanCorpus => corpus::run(cfg, tracer),
        Workload::ServeMix => serve::run(cfg, tracer),
    }
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut i = 0;
    while i < args.len() {
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad seed `{val}`"))?,
            "--seconds" => {
                seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{val}`"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{val}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let untraced = run_workload(&cfg, &mut Tracer::new(false));
    let e2e = end_to_end(&untraced);
    let (mut attempted, mut failed, mut wrong) =
        (untraced.attempted, untraced.failed, untraced.wrong);

    // The traced run; workloads that never reach the serving plane get a
    // short serving companion so the serve, fleet and KMU layers are
    // measured on every workload.
    let mut tracer = Tracer::new(true);
    let mut companion_tracer = Tracer::new(true);
    let shown = if cfg.trace {
        let traced = run_workload(&cfg, &mut tracer);
        let companion = (cfg.workload != Workload::ServeMix).then(|| {
            let companion_cfg = Config {
                workload: Workload::ServeMix,
                seconds: cfg.seconds.min(COMPANION_SECONDS),
                ..cfg
            };
            run_workload(&companion_cfg, &mut companion_tracer)
        });
        for run in std::iter::once(&traced).chain(&companion) {
            attempted += run.attempted;
            failed += run.failed;
            wrong += run.wrong;
        }
        let mut sources = vec![(&traced, &tracer)];
        sources.extend(companion.as_ref().map(|c| (c, &companion_tracer)));
        per_layer(&sources, &e2e)
    } else {
        e2e.clone()
    };
    let correct = wrong == 0;

    let error_rate = Metric::total(
        "error_rate",
        "ratio",
        Better::Lower,
        failed as f64 / attempted.max(1) as f64,
    );
    let wall_latency = latency(&untraced);
    let mut all: Vec<&Metric> = e2e
        .iter()
        .chain(&wall_latency)
        .chain(&untraced.extra)
        .chain([&error_rate])
        .collect();
    if cfg.trace {
        all.extend(&shown);
    }
    let metrics: Vec<String> = all.iter().map(|m| metric_json(m)).collect();
    let report = format!(
        "{{\"benchmark\": \"perfbench\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": {}, \"source_fnv\": {}, \"nproc\": {}, \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": [{}]}}",
        string(cfg.workload.name()),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        string(&sys::git_rev()),
        string(&sys::source_fnv(&["crates", "perfbench/src"])),
        sys::nproc(),
        metrics.join(", ")
    );
    let dir = sys::out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.report.json")), &report)?;
        if cfg.trace {
            std::fs::write(dir.join(format!("{stem}.spans.tsv")), tracer.to_tsv())?;
            if !companion_tracer.spans().is_empty() {
                std::fs::write(
                    dir.join(format!("{stem}.companion.spans.tsv")),
                    companion_tracer.to_tsv(),
                )?;
            }
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write run files under {}: {e}",
            dir.display()
        );
    }
    println!("{report}");
    let shown_refs: Vec<&Metric> = shown.iter().collect();
    println!("{}", result_line(correct, attempted, failed, &shown_refs));
    ExitCode::SUCCESS
}
