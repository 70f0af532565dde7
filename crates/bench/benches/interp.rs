//! Criterion benchmark of work-body evaluation: AST walking vs bytecode
//! vs warp-batched bytecode.
//!
//! Every simulated thread of every launch ultimately evaluates an actor's
//! work body, so the evaluator is the inner loop of the whole
//! reproduction. Two levels are measured on a Horner-style polynomial
//! map body (a 16-iteration loop per element):
//!
//! * `ast_walk` / `bytecode` / `warp` — the raw evaluators head-to-head
//!   over many firings: a fresh `HashMap` of locals plus recursive AST
//!   walk per firing, against one pooled register [`Frame`] reset per
//!   firing and a flat opcode loop, against one [`WarpFrame`] evaluating
//!   32 lanes per opcode dispatch.
//! * `pipeline_*` — the same body through the full compiled pipeline
//!   (`ExecMode::Full`, every element executed), flipping only
//!   [`RunOptions::with_backend`] so the three runs share planning,
//!   memory movement, and accounting.
//! * `rbf_row_reduce` — the SVM trainer's kernel-row reduction (Figure
//!   12): `gamma[0] * pow(pop() - xi[j], 2.0)` summed over `d = 784`
//!   features per sample, an indexed-state reduction whose `xi[j]` loads
//!   overflow the block's state-promotion table.
//!
//! Before/after numbers are recorded in `results/interp_speedup.txt` and
//! `results/warp_speedup.txt`; a machine-readable copy of the latest run
//! is written to `results/BENCH_interp.json` by the trailing JSON pass.
//!
//! [`WarpFrame`]: adaptic::warp::WarpFrame

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion};

use adaptic::bytecode::{self, compile_body, Frame};
use adaptic::exec_ir::{exec_body, VecIo};
use adaptic::warp::{self, full_mask, VecWarpIo, WarpFrame};
use adaptic::{compile, CompiledProgram, EvalBackend, InputAxis, RunOptions, StateBinding};
use adaptic_bench::{bench_json, measure};
use gpu_sim::{DeviceSpec, ExecMode};
use streamir::parse::parse_program;

const HORNER_SRC: &str = "pipeline P(N) {
    actor H(pop 1, push 1) {
        x = pop();
        acc = 0.0;
        for i in 0..16 { acc = acc * x + 0.5; }
        push(acc * 0.001);
    }
}";

/// The SVM trainer's RBF kernel-row program.
const RBF_ROW_SRC: &str = "pipeline RbfRow(D) {
    actor Row(pop D, push 1) {
        state xi[D];
        state gamma[1];
        acc = 0.0;
        for j in 0..D {
            acc = acc + gamma[0] * pow(pop() - xi[j], 2.0);
        }
        push(exp(0.0 - acc));
    }
}";

/// MNIST's feature count.
const RBF_D: usize = 784;
/// Samples per kernel row.
const RBF_ROWS: usize = 128;

const FIRINGS: usize = 4096;
const LANES: usize = 32;

fn horner_input(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 31) % 97) as f32 / 97.0 - 0.5)
        .collect()
}

/// Evaluate `FIRINGS` firings scalar-style: one frame, one firing at a
/// time.
fn run_scalar(
    prog: &bytecode::Program,
    proto: &[streamir::value::Value],
    frame: &mut Frame,
    io: &mut VecIo,
) {
    io.cursor = 0;
    io.output.clear();
    for _ in 0..FIRINGS {
        frame.reset(proto);
        bytecode::eval(prog, frame, io);
    }
}

/// Evaluate `FIRINGS` firings warp-style: 32 lanes per eval call.
fn run_warp(
    prog: &bytecode::Program,
    proto: &[streamir::value::Value],
    wf: &mut WarpFrame,
    io: &mut VecWarpIo,
) {
    let mask = full_mask(LANES);
    for round in 0..FIRINGS / LANES {
        let base = round * LANES;
        for l in 0..LANES {
            io.cursor[l] = base + l;
            io.out_pos[l] = base + l;
        }
        wf.reset(proto);
        warp::eval(prog, wf, mask, io);
    }
}

/// The compiled kernel-row program plus one row's input and state.
fn rbf_row() -> (CompiledProgram, Vec<f32>, Vec<StateBinding>) {
    let program = parse_program(RBF_ROW_SRC).unwrap();
    let axis = InputAxis::new("n", 16, 1024, |_| {
        streamir::graph::bindings(&[("D", RBF_D as i64)])
    })
    .with_items(|n| n * RBF_D as i64);
    let compiled = compile(&program, &DeviceSpec::tesla_c2050(), &axis).unwrap();
    let data = horner_input(RBF_ROWS * RBF_D);
    let state = vec![
        StateBinding::new("Row", "xi", data[..RBF_D].to_vec()),
        StateBinding::new("Row", "gamma", vec![0.01]),
    ];
    (compiled, data, state)
}

fn run_rbf_row(compiled: &CompiledProgram, data: &[f32], state: &[StateBinding]) {
    compiled
        .run_opts(
            RBF_ROWS as i64,
            data,
            state,
            RunOptions::serial(ExecMode::Full),
            None,
        )
        .unwrap();
}

fn bench_evaluators(c: &mut Criterion) {
    let program = parse_program(HORNER_SRC).unwrap();
    let body = program.actor("H").unwrap().work.body.clone();
    let binds = streamir::graph::bindings(&[("N", FIRINGS as i64)]);
    let input = horner_input(FIRINGS);

    let mut io = VecIo {
        input: input.clone(),
        ..VecIo::default()
    };
    c.bench_function("interp/ast_walk_4k_firings", |b| {
        b.iter(|| {
            io.cursor = 0;
            io.output.clear();
            for _ in 0..FIRINGS {
                let mut locals = HashMap::new();
                exec_body(&body, &mut locals, &binds, &mut io).unwrap();
            }
            io.output.len()
        })
    });

    let prog = compile_body(&body, &binds, &[]).unwrap();
    let proto = prog.bind(&binds).unwrap();
    let mut frame = Frame::default();
    frame.fit(&prog);
    let mut io = VecIo {
        input: input.clone(),
        ..VecIo::default()
    };
    c.bench_function("interp/bytecode_4k_firings", |b| {
        b.iter(|| {
            run_scalar(&prog, &proto, &mut frame, &mut io);
            io.output.len()
        })
    });

    let mut wf = WarpFrame::default();
    wf.fit(&prog, LANES);
    let mut wio = VecWarpIo {
        input,
        cursor: vec![0; LANES],
        output: vec![0.0; FIRINGS],
        out_pos: vec![0; LANES],
        state: HashMap::new(),
    };
    c.bench_function("interp/warp_4k_firings", |b| {
        b.iter(|| {
            run_warp(&prog, &proto, &mut wf, &mut wio);
            wio.output.len()
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let program = parse_program(HORNER_SRC).unwrap();
    let axis = InputAxis::total_size("N", 256, 1 << 16);
    let compiled = compile(&program, &device, &axis).unwrap();
    let n = 1usize << 14;
    let input = horner_input(n);

    let warp = RunOptions::serial(ExecMode::Full);
    c.bench_function("interp/pipeline_warp_16k", |b| {
        b.iter(|| {
            compiled
                .run_opts(n as i64, &input, &[], warp, None)
                .unwrap()
        })
    });
    let scalar = warp.with_backend(EvalBackend::Scalar);
    c.bench_function("interp/pipeline_bytecode_16k", |b| {
        b.iter(|| {
            compiled
                .run_opts(n as i64, &input, &[], scalar, None)
                .unwrap()
        })
    });
    let oracle = warp.with_backend(EvalBackend::Ast);
    c.bench_function("interp/pipeline_ast_16k", |b| {
        b.iter(|| {
            compiled
                .run_opts(n as i64, &input, &[], oracle, None)
                .unwrap()
        })
    });

    let (rbf, data, state) = rbf_row();
    c.bench_function("interp/rbf_row_reduce", |b| {
        b.iter(|| run_rbf_row(&rbf, &data, &state))
    });
}

/// Re-measure the same workloads with plain wall-clock timing and write
/// `results/BENCH_interp.json` (name, min/mean/max ns, speedup vs the
/// matching baseline, git rev) for machines to read.
fn emit_json(_c: &mut Criterion) {
    let program = parse_program(HORNER_SRC).unwrap();
    let body = program.actor("H").unwrap().work.body.clone();
    let binds = streamir::graph::bindings(&[("N", FIRINGS as i64)]);
    let input = horner_input(FIRINGS);

    let mut io = VecIo {
        input: input.clone(),
        ..VecIo::default()
    };
    let ast = measure("interp/ast_walk_4k_firings", 10, || {
        io.cursor = 0;
        io.output.clear();
        for _ in 0..FIRINGS {
            let mut locals = HashMap::new();
            exec_body(&body, &mut locals, &binds, &mut io).unwrap();
        }
    });

    let prog = compile_body(&body, &binds, &[]).unwrap();
    let proto = prog.bind(&binds).unwrap();
    let mut frame = Frame::default();
    frame.fit(&prog);
    let mut sio = VecIo {
        input: input.clone(),
        ..VecIo::default()
    };
    let scalar = measure("interp/bytecode_4k_firings", 10, || {
        run_scalar(&prog, &proto, &mut frame, &mut sio)
    })
    .vs(&ast);

    let mut wf = WarpFrame::default();
    wf.fit(&prog, LANES);
    let mut wio = VecWarpIo {
        input,
        cursor: vec![0; LANES],
        output: vec![0.0; FIRINGS],
        out_pos: vec![0; LANES],
        state: HashMap::new(),
    };
    let warp_raw = measure("interp/warp_4k_firings", 10, || {
        run_warp(&prog, &proto, &mut wf, &mut wio)
    })
    .vs(&scalar);

    let device = DeviceSpec::tesla_c2050();
    let axis = InputAxis::total_size("N", 256, 1 << 16);
    let compiled = compile(&program, &device, &axis).unwrap();
    let n = 1usize << 14;
    let pinput = horner_input(n);
    let run = |opts: RunOptions<'static>| {
        compiled
            .run_opts(n as i64, &pinput, &[], opts, None)
            .unwrap()
    };
    let full = RunOptions::serial(ExecMode::Full);
    let p_ast = measure("interp/pipeline_ast_16k", 5, || {
        run(full.with_backend(EvalBackend::Ast));
    });
    let p_scalar = measure("interp/pipeline_bytecode_16k", 5, || {
        run(full.with_backend(EvalBackend::Scalar));
    })
    .vs(&p_ast);
    let p_warp = measure("interp/pipeline_warp_16k", 5, || {
        run(full);
    })
    .vs(&p_scalar);

    let (rbf, data, state) = rbf_row();
    let rbf_row = measure("interp/rbf_row_reduce", 5, || {
        run_rbf_row(&rbf, &data, &state)
    });

    let records = [ast, scalar, warp_raw, p_ast, p_scalar, p_warp, rbf_row];
    let path = bench_json("interp", &records).expect("write BENCH_interp.json");
    println!("wrote {}", path.display());
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_evaluators, bench_pipeline, emit_json
);
criterion_main!(benches);
