//! `plan_corpus`: parse and compile the application corpus for all five
//! device presets. No kernel executes in the timed phase.
//!
//! The corpus is the Figure 9 programs, the §5.3 input-insensitive
//! programs, TMV, SVM and BiCGSTAB, each over the axis its figure harness
//! uses (at size divisor [`SCALE`]). One timed pass:
//! - the cold pass parses every program (through its `adaptic-apps`
//!   constructor) and compiles it with `compile_with_store`; SVM and
//!   BiCGSTAB keep their programs private, so they compile through their
//!   trainer and solver constructors, which use no store;
//! - the warm pass reloads every stored plan through `compile_with_store`.
//!
//! The cold pass runs against a store whose directory cannot be created:
//! every compile misses, hashes its key, plans, lowers and encodes its
//! artifact, and the write fails at once. The artifacts the warm passes
//! read are written once per run, before the timed passes. On a two-vCPU
//! Xeon VM with an ext4 disk, creating, renaming and unlinking one small
//! file cost 100–900 µs of kernel time and grew as a run churned the file
//! system: several times a compile, so per-pass writes would have measured
//! the file system rather than the compiler. `artifact.store_us` in the traced
//! run still times real writes.
//!
//! Throughput is cold compiles (program × device) per host second of the
//! cold pass; the cost of one cold parse → compile is its process CPU
//! time, with its wall time beside it. The simulated number is
//! the model's predicted time of the variant each plan selects, summed over
//! seeded, stratified probe sizes of every stored program.
//!
//! Checks: the written, last cold and last warm plans are equal (their
//! exported tables and the probe sum, bit for bit); a small `Full` run of
//! every compiled program matches `streamir::interp` (SVM: the CPU
//! reference trainer; BiCGSTAB: the CPU reference solver).

use std::time::Instant;

use adaptic::{
    compile_with_store, ArtifactStore, CompileOptions, CompiledProgram, InputAxis, KernelManager,
    RunOptions, StateBinding,
};
use adaptic_apps::bicgstab::{self, AdapticBicgstab};
use adaptic_apps::programs::{self, zip2};
use adaptic_apps::svm::AdapticSvm;
use adaptic_apps::Bench;
use adaptic_baselines::gpusvm::{synth_dataset, train_reference, SvmConfig};
use adaptic_bench::data;
use adaptic_bench::workloads::Lcg;
use gpu_sim::{DeviceSpec, ExecMode};
use streamir::graph::bindings;
use streamir::interp::Interpreter;

use crate::replay::{self, Replayer};
use crate::report::{Better, Metric};
use crate::sys::{self, all_close};
use crate::trace::Tracer;
use crate::{Config, OpClock, OpTimes, Run, SETUP_EVERY_S};

/// Size divisor applied to the figure harnesses' axes.
const SCALE: i64 = 64;
/// Probe strata per stored program and device for `sim_device_ms`.
const STRATA: usize = 32;
/// SVM shape of the corpus entry: Adult's features, samples up to Adult / 32.
const SVM_D: usize = 123;
const SVM_N_HI: i64 = 32_561 / 32;
/// BiCGSTAB's Figure 11 range at this scale.
const BICG_RANGE: (i64, i64) = (128, 1024);

/// A stored corpus program: constructor, figure axis, and a small `Full`
/// run `(x, input, state)` for the interpreter check.
struct Entry {
    make: fn() -> Bench,
    axis: fn() -> InputAxis,
    check: fn() -> (i64, Vec<f32>, Vec<StateBinding>),
}

const BLAS_LO: i64 = 256;
const BLAS_HI: i64 = (4 << 20) / SCALE;
const SDK_TOTAL: i64 = (4 << 20) / SCALE;
const MC_TOTAL: i64 = (256 << 10) / SCALE;
const GRID_ROWS: (i64, i64) = (256 / 16, (256 / 16) << 6);
const TMV_TOTAL: i64 = (1 << 20) / SCALE;
const INSENSITIVE_HI: i64 = 4 << 20;

fn blas_axis() -> InputAxis {
    InputAxis::total_size("N", BLAS_LO, BLAS_HI)
}

fn insensitive_axis() -> InputAxis {
    InputAxis::total_size("N", 256, INSENSITIVE_HI)
}

fn grid_axis() -> InputAxis {
    InputAxis::new("rows", GRID_ROWS.0, GRID_ROWS.1, |rows| {
        bindings(&[("rows", rows), ("cols", SDK_TOTAL / rows)])
    })
    .with_items(|_| SDK_TOTAL)
}

fn one(x: i64) -> (i64, Vec<f32>, Vec<StateBinding>) {
    (x, data(x as usize, 3), vec![])
}

fn two(x: i64) -> (i64, Vec<f32>, Vec<StateBinding>) {
    let n = x as usize;
    (x, zip2(&data(n, 3), &data(n, 4)), vec![])
}

fn taps() -> Vec<f32> {
    (0..17)
        .map(|k| 1.0 / (1.0 + (k as f32 - 8.0).abs()))
        .collect()
}

fn entries() -> Vec<Entry> {
    vec![
        // Figure 9.
        Entry {
            make: programs::isamax,
            axis: blas_axis,
            check: || one(1024),
        },
        Entry {
            make: programs::snrm2,
            axis: blas_axis,
            check: || one(1024),
        },
        Entry {
            make: programs::sasum,
            axis: blas_axis,
            check: || one(1024),
        },
        Entry {
            make: programs::sdot,
            axis: blas_axis,
            check: || two(1024),
        },
        Entry {
            make: programs::scalar_product,
            axis: || {
                InputAxis::new("pairs", 2, 128, |pairs| {
                    bindings(&[("E", SDK_TOTAL / pairs)])
                })
                .with_items(|_| 2 * SDK_TOTAL)
            },
            check: || (4, two(SDK_TOTAL).1, vec![]),
        },
        Entry {
            make: programs::monte_carlo,
            axis: || {
                InputAxis::new("options", 2, 128, |options| {
                    bindings(&[("P", MC_TOTAL / options)])
                })
                .with_items(|_| 6 * MC_TOTAL)
            },
            check: || {
                let options = 4usize;
                let params: Vec<f32> = (0..options)
                    .flat_map(|i| [90.0 + i as f32, 95.0, 0.5, 0.02, 0.2 + 0.01 * i as f32])
                    .collect();
                let stream =
                    programs::monte_carlo_stream(&params, options, MC_TOTAL as usize / options);
                (options as i64, stream, vec![])
            },
        },
        Entry {
            make: programs::ocean,
            axis: grid_axis,
            check: || {
                (
                    64,
                    data(SDK_TOTAL as usize, 8),
                    vec![StateBinding::new("Scale", "amplitude", vec![2.0])],
                )
            },
        },
        Entry {
            make: programs::convolution_separable,
            axis: grid_axis,
            check: || {
                (
                    64,
                    data(SDK_TOTAL as usize, 9),
                    vec![
                        StateBinding::new("RowConv", "taps", taps()),
                        StateBinding::new("ColConv", "taps", taps()),
                    ],
                )
            },
        },
        // §5.3 input-insensitive programs.
        Entry {
            make: programs::black_scholes,
            axis: insensitive_axis,
            check: || {
                let prices = (0..1024)
                    .flat_map(|i| [80.0 + (i % 40) as f32, 100.0, 0.25 + 0.01 * (i % 50) as f32])
                    .collect();
                (
                    1024,
                    prices,
                    vec![StateBinding::new("Price", "rv", vec![0.02, 0.3])],
                )
            },
        },
        Entry {
            make: programs::vector_add,
            axis: insensitive_axis,
            check: || two(1024),
        },
        Entry {
            make: programs::saxpy,
            axis: insensitive_axis,
            check: || {
                let (x, input, _) = two(1024);
                (x, input, vec![StateBinding::new("Axpy", "a", vec![2.0])])
            },
        },
        Entry {
            make: programs::scopy,
            axis: insensitive_axis,
            check: || one(1024),
        },
        Entry {
            make: programs::sscal,
            axis: insensitive_axis,
            check: || {
                let (x, input, _) = one(1024);
                (x, input, vec![StateBinding::new("Scal", "a", vec![0.5])])
            },
        },
        Entry {
            make: programs::sswap,
            axis: insensitive_axis,
            check: || two(1024),
        },
        Entry {
            make: programs::srot,
            axis: insensitive_axis,
            check: || {
                let (x, input, _) = two(1024);
                (
                    x,
                    input,
                    vec![StateBinding::new("Rot", "cs", vec![0.6, 0.8])],
                )
            },
        },
        Entry {
            make: programs::dct8x8,
            axis: insensitive_axis,
            check: || (256, data(256 * 64, 5), vec![]),
        },
        Entry {
            make: programs::quasirandom,
            axis: insensitive_axis,
            check: || (1024, (0..1024).map(|i| i as f32 + 1.0).collect(), vec![]),
        },
        // TMV (Figure 10).
        Entry {
            make: programs::tmv,
            axis: || {
                InputAxis::new("rows", 4, TMV_TOTAL / 4, |rows| {
                    bindings(&[("rows", rows), ("cols", TMV_TOTAL / rows)])
                })
                .with_items(|_| TMV_TOTAL)
            },
            check: || {
                let rows = 64i64;
                let cols = (TMV_TOTAL / rows) as usize;
                (
                    rows,
                    data(TMV_TOTAL as usize, 1),
                    vec![StateBinding::new("RowDot", "x", data(cols, 2))],
                )
            },
        },
    ]
}

/// One cold pass: every program on every device.
struct Pass {
    /// `(entry index, device index, program, compiled)` of stored programs.
    stored: Vec<(usize, usize, streamir::Program, CompiledProgram)>,
    svm: Vec<AdapticSvm>,
    bicg: Vec<AdapticBicgstab>,
    compiles: usize,
    cold_s: f64,
}

/// SVM and BiCGSTAB programs compiled per device through their constructors.
const SVM_PROGRAMS: usize = 4;
const BICG_PROGRAMS: usize = 7;

fn cold_pass(
    devices: &[DeviceSpec],
    corpus: &[Entry],
    axes: &[InputAxis],
    store: &ArtifactStore,
    tracer: &mut Tracer,
    times: &mut OpTimes,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass {
        stored: Vec::new(),
        svm: Vec::new(),
        bicg: Vec::new(),
        compiles: 0,
        cold_s: 0.0,
    };
    for (di, device) in devices.iter().enumerate() {
        for (ei, (entry, axis)) in corpus.iter().zip(axes).enumerate() {
            let t = OpClock::start();
            let bench = tracer.time("streamir", "streamir.parse", entry.make);
            let compiled = tracer.time("plan", "plan.compile", || {
                compile_with_store(
                    &bench.program,
                    device,
                    axis,
                    CompileOptions::default(),
                    store,
                )
                .expect("corpus program compiles")
            });
            t.stop(times);
            pass.stored.push((ei, di, bench.program, compiled));
        }
        let t = OpClock::start();
        let svm = tracer.time("apps", "apps.svm_compile", || {
            AdapticSvm::compile(device, 64, SVM_N_HI, SVM_D, CompileOptions::default())
                .expect("SVM compiles")
        });
        t.stop(times);
        pass.svm.push(svm);
        let t = OpClock::start();
        let bicg = tracer.time("apps", "apps.bicgstab_compile", || {
            AdapticBicgstab::compile(
                device,
                BICG_RANGE.0,
                BICG_RANGE.1,
                CompileOptions::default(),
            )
            .expect("BiCGSTAB compiles")
        });
        t.stop(times);
        pass.bicg.push(bicg);
        pass.compiles += corpus.len() + SVM_PROGRAMS + BICG_PROGRAMS;
    }
    pass.cold_s = start.elapsed().as_secs_f64();
    pass
}

/// Reload every stored plan; returns the warm programs and the wall time.
fn warm_pass(
    devices: &[DeviceSpec],
    axes: &[InputAxis],
    pass: &Pass,
    store: &ArtifactStore,
    tracer: &mut Tracer,
) -> (Vec<CompiledProgram>, f64) {
    let start = Instant::now();
    let warm = pass
        .stored
        .iter()
        .map(|(ei, di, program, _)| {
            tracer.time("plan", "plan.warm_load", || {
                compile_with_store(
                    program,
                    &devices[*di],
                    &axes[*ei],
                    CompileOptions::default(),
                    store,
                )
                .expect("stored program reloads")
            })
        })
        .collect();
    (warm, start.elapsed().as_secs_f64())
}

/// Seeded, stratified probe sizes over an axis: one log-uniform point per
/// stratum of the log range.
fn probes(axis: &InputAxis, rng: &mut Lcg) -> Vec<i64> {
    let (llo, lhi) = ((axis.lo.max(1) as f64).ln(), (axis.hi.max(1) as f64).ln());
    (0..STRATA)
        .map(|k| {
            let u = (k as f64 + rng.next_f64()) / STRATA as f64;
            ((llo + (lhi - llo) * u).exp().round() as i64).clamp(axis.lo, axis.hi)
        })
        .collect()
}

/// Σ predicted µs of the selected variant over every program's probes.
fn predicted_sum_us(programs: &[&CompiledProgram], probe_sets: &[Vec<i64>]) -> f64 {
    let mut sum = 0.0f64;
    for (p, xs) in programs.iter().zip(probe_sets) {
        for &x in xs {
            if let Ok((v, _)) = p.try_variant_for(x) {
                sum += p.predicted_time_us(x, v).unwrap_or(0.0);
            }
        }
    }
    sum
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Run {
    let mut out = Run::default();
    let base = sys::out_dir().join(format!("corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch directory");
    // The timed cold passes compile against a store whose directory cannot
    // be created (its parent is a regular file): every compile misses,
    // encodes its artifact and attempts the write, which fails at once.
    let blocker = base.join("blocked");
    std::fs::write(&blocker, b"").expect("scratch file");
    let blocked = ArtifactStore::new(blocker.join("store"));
    let mut scratch_times = OpTimes::default();
    let mut no_trace = Tracer::new(false);
    let mut replayer = Replayer::new("corpus-replay");

    // Set-up: build the corpus axes and device table, and run one cold
    // pass so lazy state is initialised. It is repeated between passes (see
    // [`SETUP_EVERY_S`]) and the reported set-up time is the median.
    let set_up = |setup_s: &mut Vec<f64>| {
        let (mut no_trace, mut times) = (Tracer::new(false), OpTimes::default());
        let t = Instant::now();
        let devices = DeviceSpec::presets();
        let corpus = entries();
        let axes: Vec<InputAxis> = corpus.iter().map(|e| (e.axis)()).collect();
        let _ = cold_pass(
            &devices,
            &corpus,
            &axes,
            &blocked,
            &mut no_trace,
            &mut times,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        (devices, corpus, axes)
    };
    let (devices, corpus, axes) = set_up(&mut out.setup_s);
    let mut last_setup = Instant::now();
    // The artifacts the timed warm passes read, written once per run.
    let store = ArtifactStore::new(base.join("store"));
    let stored_pass = cold_pass(
        &devices,
        &corpus,
        &axes,
        &store,
        &mut no_trace,
        &mut scratch_times,
    );

    // Probe sizes come from the seed; one set per stored program and device.
    let mut rng = Lcg::new(sys::mix(cfg.seed, 0xc0de));
    let probe_sets: Vec<Vec<i64>> = devices
        .iter()
        .flat_map(|_| axes.iter())
        .map(|a| probes(a, &mut rng))
        .collect();

    // Timed passes.
    let (mut warm_rates, mut loads, mut compiles) = (Vec::new(), 0usize, 0usize);
    let mut last = None;
    let start = Instant::now();
    while last.is_none() || start.elapsed().as_secs_f64() < cfg.seconds {
        let mut times = OpTimes::default();
        let pass = cold_pass(&devices, &corpus, &axes, &blocked, tracer, &mut times);
        out.latency_ms.push(times.wall_ms);
        out.cpu_ms.push(times.cpu_ms);
        let (warm, warm_s) = warm_pass(&devices, &axes, &pass, &store, tracer);
        if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            set_up(&mut out.setup_s);
            last_setup = Instant::now();
        }
        out.throughput.push(pass.compiles as f64 / pass.cold_s);
        warm_rates.push(warm.len() as f64 / warm_s);
        compiles += pass.compiles;
        loads += warm.len();
        out.attempted += (pass.compiles + warm.len()) as u64;
        if tracer.enabled() && last.is_none() {
            replay_layers(&pass, &axes, &probe_sets, &mut replayer, tracer);
        }
        last = Some((pass, warm));
    }
    let measured_s = start.elapsed().as_secs_f64();
    let hits = store.hits() as usize;
    if hits != loads {
        out.failed += loads.saturating_sub(hits) as u64;
        eprintln!("check failed: warm passes hit {hits} of {loads} stored plans");
    }
    let _ = std::fs::remove_dir_all(&base);

    // The stored, last cold and last warm plans agree, and the simulated
    // number repeats.
    let (last_pass, last_warm) = last.expect("one pass ran");
    let mut sims = Vec::new();
    let stored: Vec<&CompiledProgram> = stored_pass.stored.iter().map(|s| &s.3).collect();
    let cold: Vec<&CompiledProgram> = last_pass.stored.iter().map(|s| &s.3).collect();
    let warm: Vec<&CompiledProgram> = last_warm.iter().collect();
    for ((s, c), w) in stored.iter().zip(&cold).zip(&warm) {
        let (s, c, w) = (
            format!("{:?}", s.export_plan()),
            format!("{:?}", c.export_plan()),
            format!("{:?}", w.export_plan()),
        );
        out.check(s == c && c == w, || {
            "stored, cold and warm plans of one program differ".into()
        });
    }
    for programs in [&stored, &cold, &warm] {
        sims.push(predicted_sum_us(programs, &probe_sets).to_bits());
    }
    out.check(sims.iter().all(|&b| b == sims[0]), || {
        "predicted device time differs between passes or between cold and warm plans".into()
    });
    out.sim_device_ms = f64::from_bits(sims[0]) / 1e3;

    full_checks(&corpus, &last_pass, &mut replayer, tracer, &mut out);
    if tracer.enabled() {
        out.layer.extend(replayer.metrics());
    }

    out.extra.extend([
        Metric::median_of(
            "compiles_per_s",
            "1/s",
            Better::Higher,
            out.throughput.clone(),
        ),
        Metric::median_of("warm_loads_per_s", "1/s", Better::Higher, warm_rates),
        Metric::total("compiles", "count", Better::Higher, compiles as f64),
        Metric::total("warm_loads", "count", Better::Higher, loads as f64),
        Metric::total("measured_s", "s", Better::Lower, measured_s),
    ]);
    out.layer.push(Metric::total(
        "artifact.hit_ratio",
        "ratio",
        Better::Higher,
        hits as f64 / loads.max(1) as f64,
    ));
    out
}

/// Traced-run replays on the first pass: plan export and an explicit
/// artifact round trip per program, rate matching and KMU selection at
/// every eighth probe.
fn replay_layers(
    pass: &Pass,
    axes: &[InputAxis],
    probe_sets: &[Vec<i64>],
    replayer: &mut Replayer,
    tracer: &mut Tracer,
) {
    for ((ei, _, program, compiled), xs) in pass.stored.iter().zip(probe_sets) {
        replayer.round_trip(tracer, compiled);
        let kmu = KernelManager::new(compiled.clone());
        for &x in xs.iter().step_by(8) {
            replay::rate_match_at(tracer, program, &axes[*ei].bind(x), None);
            replay::kmu_at(tracer, &kmu, x, None);
        }
    }
}

/// Small `Full` runs of every compiled program against its reference.
fn full_checks(
    corpus: &[Entry],
    pass: &Pass,
    replayer: &mut Replayer,
    tracer: &mut Tracer,
    out: &mut Run,
) {
    let full = RunOptions::serial(ExecMode::Full);
    let mut references: Vec<Option<Vec<f32>>> = vec![None; corpus.len()];
    for (ei, _, program, compiled) in &pass.stored {
        let (x, input, state) = (corpus[*ei].check)();
        let want = references[*ei].get_or_insert_with(|| {
            let mut it = Interpreter::new(program);
            for (k, v) in (corpus[*ei].axis)().bind(x) {
                it.bind_param(&k, v);
            }
            for sb in &state {
                it.bind_state(&sb.actor, &sb.array, sb.data.clone());
            }
            it.run(&input).unwrap_or_default()
        });
        replay::upload(tracer, &input, None);
        let (rep, _) = replayer.launch(tracer, compiled.device(), None, || {
            compiled.run_opts(x, &input, &state, full, None)
        });
        let ok = match &rep {
            Ok(r) => !want.is_empty() && all_close(&r.output, want, 1e-3),
            Err(_) => false,
        };
        out.check(ok, || {
            format!(
                "{:?}: Full run differs from the interpreter",
                compiled.segment_labels()
            )
        });
    }

    // SVM: a Full training run against the CPU reference trainer.
    let (n, iters) = (160usize, 6usize);
    let (data, labels) = synth_dataset(n, SVM_D, 0.3, 21);
    let cfg = SvmConfig {
        iterations: iters,
        cache_rows: 0,
        ..SvmConfig::default()
    };
    let want = train_reference(&data, &labels, n, SVM_D, &cfg);
    for svm in &pass.svm {
        let got = svm.train_opts(&data, &labels, n, &cfg, full);
        out.check(
            matches!(&got, Ok(r) if all_close(&r.alphas, &want, 1e-3)),
            || "SVM Full training differs from the CPU reference".into(),
        );
    }
    // BiCGSTAB: a Full solve against the CPU reference solver.
    let n = BICG_RANGE.0 as usize;
    let (a, b) = bicgstab::synth_system(n, 9);
    let want = bicgstab::solve_reference(&a, &b, n, 3);
    for solver in &pass.bicg {
        let got = solver.solve(&a, &b, n, 3, ExecMode::Full);
        out.check(
            matches!(&got, Ok((x, _)) if all_close(x, &want, 2e-3)),
            || "BiCGSTAB Full solve differs from the CPU reference".into(),
        );
    }
}
