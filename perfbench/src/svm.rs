//! `svm_train`: Figure 12's path. The Adaptic-compiled SVM trainer and the
//! GPUSVM baseline train on the four dataset shapes (Adult, Web, MNIST,
//! USPS) on the C2050 in `SampledExec` mode, on the parallel engine with
//! at most `nproc` workers and no launch cache.
//!
//! Few, large, data-dependent relaunches: warp evaluation, accounting and
//! input upload do the work, planning is negligible.
//!
//! One round trains both trainers on every dataset. A round's throughput is
//! simulated kernel launches (both trainers) per host second; the cost of
//! one training run is its process CPU time, with its wall time beside it.
//! After the timed rounds the workload checks that
//! - Adaptic alphas equal GPUSVM alphas bit for bit, every dataset, every round;
//! - the simulated time of every round is bit-identical, and equal to a
//!   round on the serial engine;
//! - each SVM program, run once in `Full` mode, matches `streamir::interp`;
//! - a `Full`-mode training run matches the CPU reference trainer.
//!
//! The trainer keeps its four programs private, so the benchmark compiles
//! the same DSL sources itself to replay single launches (the interpreter
//! check, and the per-layer replays of the traced run). The replay is tied
//! to the trainer: one replayed launch of each program must add up, bit for
//! bit, to the simulated time of a one-iteration training run.

use std::time::Instant;

use adaptic::{
    compile_with_options, CompileOptions, CompiledProgram, ExecutionReport, InputAxis,
    KernelManager, RunOptions, StateBinding,
};
use adaptic_apps::programs::zip2;
use adaptic_apps::svm::AdapticSvm;
use adaptic_baselines::gpusvm::{self, synth_dataset, train_reference, SvmConfig};
use adaptic_bench::workloads::Lcg;
use gpu_sim::{DeviceSpec, ExecMode, ExecPolicy};
use streamir::interp::Interpreter;
use streamir::parse::parse_program;

use crate::replay::{self, Replayer};
use crate::report::{Better, Metric};
use crate::sys::{self, all_close};
use crate::trace::Tracer;
use crate::{Config, OpClock, OpTimes, Run, SETUP_EVERY_S};

/// Published (samples, features, cluster spread) of the Figure 12 sets.
const SHAPES: [(&str, usize, usize, f32); 4] = [
    ("Adult", 32_561, 123, 0.03),
    ("Web", 49_749, 300, 0.6),
    ("MNIST", 60_000, 784, 0.5),
    ("USPS", 7_291, 256, 0.02),
];
/// Sample-count divisor applied to every published shape.
const SCALE: usize = 64;
/// Largest relative change the seed makes to a sample count.
const N_JITTER: f64 = 0.05;
/// Training iterations per run (two kernel rows each).
const ITERATIONS: usize = 8;
/// Statistics sample of `SampledExec` (the figure harnesses' value).
const SAMPLE_BLOCKS: u32 = 256;

/// GPUSVM's configuration in Figure 12; Adaptic runs it without the
/// kernel-row cache it cannot express.
fn gpusvm_cfg() -> SvmConfig {
    SvmConfig {
        iterations: ITERATIONS,
        cache_rows: 128,
        lr: 0.2,
        ..SvmConfig::default()
    }
}

fn adaptic_cfg() -> SvmConfig {
    SvmConfig {
        cache_rows: 0,
        ..gpusvm_cfg()
    }
}

struct Dataset {
    name: &'static str,
    n: usize,
    d: usize,
    data: Vec<f32>,
    labels: Vec<f32>,
}

/// The four shapes with seeded data; the seed also moves each sample
/// count by up to ±[`N_JITTER`] so the simulated time depends on it.
fn datasets(seed: u64) -> Vec<Dataset> {
    let mut rng = Lcg::new(sys::mix(seed, 0x5f3));
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(name, n0, d, spread))| {
            let jitter = 1.0 + N_JITTER * (2.0 * rng.next_f64() - 1.0);
            let n = ((n0 / SCALE) as f64 * jitter).round().max(128.0) as usize;
            let (data, labels) = synth_dataset(n, d, spread, sys::mix(seed, i as u64));
            Dataset {
                name,
                n,
                d,
                data,
                labels,
            }
        })
        .collect()
}

fn compile_trainer(device: &DeviceSpec, ds: &Dataset) -> AdapticSvm {
    AdapticSvm::compile(
        device,
        64,
        (ds.n as i64).max(128),
        ds.d,
        CompileOptions::default(),
    )
    .expect("SVM trainer compiles")
}

/// One timed set-up: the trainers of every dataset.
fn set_up(
    device: &DeviceSpec,
    sets: &[Dataset],
    tracer: &mut Tracer,
    setup_s: &mut Vec<f64>,
) -> Vec<AdapticSvm> {
    let t = Instant::now();
    let trainers = sets
        .iter()
        .map(|ds| tracer.time("apps", "apps.svm_compile", || compile_trainer(device, ds)))
        .collect();
    setup_s.push(t.elapsed().as_secs_f64());
    trainers
}

fn opts(policy: ExecPolicy) -> RunOptions<'static> {
    RunOptions {
        policy,
        ..RunOptions::serial(ExecMode::SampledExec(SAMPLE_BLOCKS))
    }
}

/// One training of both trainers on one dataset.
struct Trained {
    adaptic_us: f64,
    gpusvm_us: f64,
    launches: usize,
    alphas_equal: bool,
}

fn train_both(
    device: &DeviceSpec,
    ds: &Dataset,
    svm: &AdapticSvm,
    policy: ExecPolicy,
    tracer: &mut Tracer,
    times: &mut OpTimes,
) -> Result<Trained, String> {
    let t = OpClock::start();
    let span = tracer.enter("baselines", "baselines.gpusvm_train", None);
    let base = gpusvm::train(
        device,
        &ds.data,
        &ds.labels,
        ds.n,
        ds.d,
        &gpusvm_cfg(),
        ExecMode::SampledExec(SAMPLE_BLOCKS),
    );
    tracer.exit(span);
    t.stop(times);
    let t = OpClock::start();
    let span = tracer.enter("apps", "apps.svm_train", None);
    let run = svm.train_opts(&ds.data, &ds.labels, ds.n, &adaptic_cfg(), opts(policy));
    tracer.exit(span);
    t.stop(times);
    let run = run.map_err(|e| format!("{}: adaptic training failed: {e}", ds.name))?;
    Ok(Trained {
        adaptic_us: run.time_us,
        gpusvm_us: base.time_us,
        launches: run.launches + base.launches,
        alphas_equal: run.alphas.len() == base.alphas.len()
            && run
                .alphas
                .iter()
                .zip(&base.alphas)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
    })
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Run {
    let mut out = Run::default();
    let device = DeviceSpec::tesla_c2050();
    let workers = ExecPolicy::Parallel(sys::nproc());

    // Set-up: compile one trainer per shape; it is repeated between rounds
    // (see [`SETUP_EVERY_S`]) and the reported set-up time is the median.
    // The seeded datasets are the benchmark's inputs, made once and left
    // out of the set-up time: their fresh multi-megabyte buffers made it
    // depend on whether the allocator still had an earlier repetition's
    // memory mapped.
    let sets = datasets(cfg.seed);
    let trainers = set_up(&device, &sets, tracer, &mut out.setup_s);
    let mut last_setup = Instant::now();

    // Timed rounds.
    let mut round_sims: Vec<u64> = Vec::new();
    let mut adaptic_parallel: Vec<f64> = Vec::new();
    let mut launches_total = 0usize;
    let start = Instant::now();
    while round_sims.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let (mut launches, mut sim_us) = (0usize, 0.0f64);
        let mut round = OpTimes::default();
        adaptic_parallel.clear();
        for (ds, svm) in sets.iter().zip(&trainers) {
            out.attempted += 2;
            match train_both(&device, ds, svm, workers, tracer, &mut round) {
                Ok(tr) => {
                    launches += tr.launches;
                    sim_us += tr.adaptic_us + tr.gpusvm_us;
                    adaptic_parallel.push(tr.adaptic_us);
                    if !tr.alphas_equal {
                        out.failed += 1;
                        out.wrong += 1;
                        eprintln!(
                            "check failed: {}: Adaptic alphas differ from GPUSVM",
                            ds.name
                        );
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("error: {e}");
                }
            }
        }
        out.throughput
            .push(launches as f64 / t.elapsed().as_secs_f64());
        launches_total += launches;
        out.latency_ms.push(round.wall_ms);
        out.cpu_ms.push(round.cpu_ms);
        round_sims.push(sim_us.to_bits());
        out.sim_device_ms = sim_us / 1e3;
        if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            set_up(&device, &sets, tracer, &mut out.setup_s);
            last_setup = Instant::now();
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    // Determinism: every round, and the serial engine, give the same bits.
    let first = round_sims[0];
    out.check(round_sims.iter().all(|&b| b == first), || {
        "simulated time differs between rounds".into()
    });
    let mut no_trace = Tracer::new(false);
    let mut scratch = OpTimes::default();
    for ((ds, svm), par_us) in sets.iter().zip(&trainers).zip(&adaptic_parallel) {
        let serial = train_both(
            &device,
            ds,
            svm,
            ExecPolicy::Serial,
            &mut no_trace,
            &mut scratch,
        )
        .map(|t| t.adaptic_us.to_bits());
        out.check(serial == Ok(par_us.to_bits()), || {
            format!(
                "{}: serial and parallel engines disagree on simulated time",
                ds.name
            )
        });
    }

    // The replayed programs still are the trainer's programs, and each one
    // matches the interpreter.
    let mut replays = Vec::new();
    let mut replayer = Replayer::new("svm-replay");
    for (ds, svm) in sets.iter().zip(&trainers) {
        let r = Replay::new(&device, ds, tracer);
        let launches = r.launch_all(ds, opts(workers), tracer, &mut replayer);
        let one = svm.train_opts(
            &ds.data,
            &ds.labels,
            ds.n,
            &SvmConfig {
                iterations: 1,
                ..adaptic_cfg()
            },
            opts(workers),
        );
        let expected = launches.as_ref().ok().map(|l| {
            // One iteration: select-max, row, update, select-min, row, update.
            let t = |i: usize| l[i].1.time_us;
            [t(0), t(1), t(2), t(3), t(1), t(2)]
                .iter()
                .fold(0.0f64, |acc, v| acc + v)
        });
        out.check(
            matches!((&one, expected), (Ok(o), Some(e)) if o.time_us.to_bits() == e.to_bits()),
            || {
                format!(
                    "{}: replayed SVM programs no longer match the trainer",
                    ds.name
                )
            },
        );
        if let Ok(l) = launches {
            replays.push(l);
        }
    }
    interp_checks(&device, &mut out);

    // Issue-named views of the same measurement, and per-layer counters.
    out.extra.push(Metric::median_of(
        "launches_per_s",
        "1/s",
        Better::Higher,
        out.throughput.clone(),
    ));
    out.extra.push(Metric::total(
        "launches",
        "count",
        Better::Higher,
        launches_total as f64,
    ));
    out.extra
        .push(Metric::total("measured_s", "s", Better::Lower, measured_s));
    // One median training time per (dataset, trainer); Adaptic's sum is
    // the per-round training time the host share is taken against.
    let mut adaptic_round_ms = 0.0;
    for (i, ds) in sets.iter().enumerate() {
        for (j, trainer) in ["gpusvm", "adaptic"].iter().enumerate() {
            let cell: Vec<f64> = out
                .latency_ms
                .iter()
                .filter_map(|r| r.get(2 * i + j).copied())
                .collect();
            let m = Metric::median_of(
                format!("train_ms.{}.{trainer}", ds.name),
                "ms",
                Better::Lower,
                cell,
            );
            if j == 1 {
                adaptic_round_ms += m.value;
            }
            out.extra.push(m);
        }
    }
    if tracer.enabled() {
        out.layer.extend(replayer.metrics());
        out.layer.push(host_share(&replays, adaptic_round_ms));
    }
    out
}

/// `apps.svm_host_share`: the share of a training run not spent in its
/// launches, with each launch priced at its replayed wall time.
fn host_share(replays: &[Launches], adaptic_round_ms: f64) -> Metric {
    let mut launch_wall_us = 0.0f64;
    for (name, _, wall_us) in replays.iter().flatten() {
        // One iteration launches both selects once and row/update twice.
        let per_iter = if *name == "SelectMax" || *name == "SelectMin" {
            1.0
        } else {
            2.0
        };
        launch_wall_us += per_iter * ITERATIONS as f64 * wall_us;
    }
    Metric::total(
        "apps.svm_host_share",
        "ratio",
        Better::Lower,
        1.0 - launch_wall_us / (adaptic_round_ms * 1e3).max(f64::MIN_POSITIVE),
    )
}

const KERNEL_ROW_SRC: &str = r#"pipeline RbfRow(D) {
    actor Row(pop D, push 1) {
        state xi[D];
        state gamma[1];
        acc = 0.0;
        for j in 0..D {
            acc = acc + gamma[0] * pow(pop() - xi[j], 2.0);
        }
        push(exp(0.0 - acc));
    }
}"#;

const SELECT_MAX_SRC: &str = r#"pipeline SelectMax(N) {
    actor MaxYF(pop 2*N, push 1) {
        best = -1000000000.0;
        for i in 0..N {
            best = max(best, pop() * pop());
        }
        push(best);
    }
}"#;

const SELECT_MIN_SRC: &str = r#"pipeline SelectMin(N) {
    actor MaxNegYF(pop 2*N, push 1) {
        best = -1000000000.0;
        for i in 0..N {
            best = max(best, 0.0 - pop() * pop());
        }
        push(best);
    }
}"#;

const GRAD_UPDATE_SRC: &str = r#"pipeline GradUpdate(N) {
    actor Update(pop 2, push 1) {
        state scale[1];
        f = pop();
        k = pop();
        push(f + scale[0] * k);
    }
}"#;

/// One SVM program compiled by the benchmark, with its replay arguments.
struct Program {
    name: &'static str,
    source: streamir::Program,
    axis: InputAxis,
    compiled: CompiledProgram,
}

/// `(program, report, run_opts wall µs)` of each replayed launch.
type Launches = Vec<(&'static str, ExecutionReport, f64)>;

/// The trainer's four programs, compiled the way `AdapticSvm::compile`
/// compiles them, in launch order of one phase pair.
struct Replay {
    programs: Vec<Program>,
}

/// First-iteration inputs of one dataset: `(input, state)` per program.
fn replay_inputs(ds: &Dataset, gamma: f32) -> Vec<(Vec<f32>, Vec<StateBinding>)> {
    let f0: Vec<f32> = ds.labels.iter().map(|y| -y).collect();
    let xi = ds.data[..ds.d].to_vec();
    let row: Vec<f32> = (0..ds.n)
        .map(|s| {
            let dist: f32 = (0..ds.d)
                .map(|j| (xi[j] - ds.data[s * ds.d + j]).powi(2))
                .sum();
            (-gamma * dist).exp()
        })
        .collect();
    vec![
        (zip2(&ds.labels, &f0), vec![]),
        (
            ds.data.clone(),
            vec![
                StateBinding::new("Row", "xi", xi),
                StateBinding::new("Row", "gamma", vec![gamma]),
            ],
        ),
        (
            zip2(&f0, &row),
            vec![StateBinding::new("Update", "scale", vec![0.25])],
        ),
        (zip2(&ds.labels, &f0), vec![]),
    ]
}

impl Replay {
    fn new(device: &DeviceSpec, ds: &Dataset, tracer: &mut Tracer) -> Replay {
        let (lo, hi, d) = (64i64, (ds.n as i64).max(128), ds.d as i64);
        let row_axis = || {
            InputAxis::new("n", lo, hi, move |_| streamir::graph::bindings(&[("D", d)]))
                .with_items(move |n| n * d)
        };
        let sources: [(&'static str, &str, InputAxis); 4] = [
            (
                "SelectMax",
                SELECT_MAX_SRC,
                InputAxis::total_size("N", lo, hi),
            ),
            ("RbfRow", KERNEL_ROW_SRC, row_axis()),
            (
                "GradUpdate",
                GRAD_UPDATE_SRC,
                InputAxis::total_size("N", lo, hi),
            ),
            (
                "SelectMin",
                SELECT_MIN_SRC,
                InputAxis::total_size("N", lo, hi),
            ),
        ];
        let programs = sources
            .into_iter()
            .map(|(name, src, axis)| {
                let source = tracer.time("streamir", "streamir.parse", || {
                    parse_program(src).expect("SVM program parses")
                });
                let compiled = tracer.time("plan", "plan.compile", || {
                    compile_with_options(&source, device, &axis, CompileOptions::default())
                        .expect("SVM program compiles")
                });
                Program {
                    name,
                    source,
                    axis,
                    compiled,
                }
            })
            .collect();
        Replay { programs }
    }

    /// Launch every program once at `x = n` on the dataset's
    /// first-iteration inputs, with the traced run's layer replays around
    /// it. Returns `(program, report, run_opts wall µs)` in launch order.
    fn launch_all(
        &self,
        ds: &Dataset,
        opts: RunOptions<'_>,
        tracer: &mut Tracer,
        replayer: &mut Replayer,
    ) -> Result<Launches, String> {
        let x = ds.n as i64;
        let mut out = Vec::new();
        for (p, (input, state)) in self
            .programs
            .iter()
            .zip(replay_inputs(ds, gpusvm_cfg().gamma))
        {
            if tracer.enabled() {
                replay::rate_match_at(tracer, &p.source, &p.axis.bind(x), None);
                replayer.round_trip(tracer, &p.compiled);
                replay::kmu_at(tracer, &KernelManager::new(p.compiled.clone()), x, None);
                replay::upload(tracer, &input, None);
            }
            let (rep, wall_us) = replayer.launch(tracer, p.compiled.device(), None, || {
                p.compiled.run_opts(x, &input, &state, opts, None)
            });
            out.push((
                p.name,
                rep.map_err(|e| format!("{} replay failed: {e}", p.name))?,
                wall_us,
            ));
        }
        Ok(out)
    }
}

/// `Full`-mode checks on a small dataset: each replayed program against
/// the interpreter, and a whole training run against the CPU reference.
fn interp_checks(device: &DeviceSpec, out: &mut Run) {
    let (n, d) = (160usize, 12usize);
    let (data, labels) = synth_dataset(n, d, 0.3, 21);
    let ds = Dataset {
        name: "check",
        n,
        d,
        data,
        labels,
    };
    let gamma = gpusvm_cfg().gamma;
    let replay = Replay::new(device, &ds, &mut Tracer::new(false));
    let full = RunOptions::serial(ExecMode::Full);
    let launches = replay.launch_all(
        &ds,
        full,
        &mut Tracer::new(false),
        &mut Replayer::new("svm-check"),
    );
    match launches {
        Ok(launches) => {
            for ((p, (input, state)), (_, rep, _)) in replay
                .programs
                .iter()
                .zip(replay_inputs(&ds, gamma))
                .zip(&launches)
            {
                let mut it = Interpreter::new(&p.source);
                for (k, v) in p.axis.bind(n as i64) {
                    it.bind_param(&k, v);
                }
                for sb in &state {
                    it.bind_state(&sb.actor, &sb.array, sb.data.clone());
                }
                let want = it.run(&input);
                out.check(
                    matches!(&want, Ok(w) if all_close(&rep.output, w, 1e-3)),
                    || format!("{}: Full launch differs from the interpreter", p.name),
                );
            }
        }
        Err(e) => out.check(false, || e),
    }
    let cfg = SvmConfig {
        iterations: 6,
        ..adaptic_cfg()
    };
    let svm = compile_trainer(device, &ds);
    let run = svm.train_opts(&ds.data, &ds.labels, n, &cfg, full);
    let want = train_reference(&ds.data, &ds.labels, n, d, &cfg);
    out.check(
        matches!(&run, Ok(r) if all_close(&r.alphas, &want, 1e-3)),
        || "Full-mode training differs from the CPU reference".into(),
    );
}
