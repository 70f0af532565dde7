//! Workspace-level property tests: the compiled pipeline agrees with the
//! interpreter on randomly generated programs and inputs, and structural
//! invariants of compilation hold.

use proptest::prelude::*;

use std::collections::HashMap;

use adaptic_repro::adaptic::bytecode::{self, compile_body, Frame};
use adaptic_repro::adaptic::exec_ir::{exec_body, VecIo};
use adaptic_repro::adaptic::warp::{self, full_mask, VecWarpIo, WarpFrame};
use adaptic_repro::adaptic::{
    compile, restructure, unrestructure, EvalBackend, InputAxis, RunOptions,
};
use adaptic_repro::gpu_sim::{DeviceSpec, ExecMode, ExecPolicy};
use adaptic_repro::streamir::interp::Interpreter;
use adaptic_repro::streamir::parse::parse_program;
use adaptic_repro::streamir::value::Value;

/// One random building block for a work body. Every block is valid by
/// construction: it only reads variables that are definitely assigned
/// (`x`, `k`, the 4-element state array `s`), keeps peeks in bounds, and
/// keeps every integer divisor provably nonzero — so the AST reference
/// interpreter never errors and the bytecode evaluator never diverges on
/// an invalid program.
fn body_block(sel: u8) -> &'static str {
    match sel % 8 {
        0 => "x = x + peek(0) * 0.5;",
        1 => "k = k * 2654435761 + 12345;",
        2 => "x = x + (k % 97) * 0.125;",
        3 => "acc = 0.0; for i in 0..4 { acc = acc + peek(i); } x = x + acc;",
        4 => "if (x < 0.0) { x = 0.0 - x; } else { x = x * 1.5; }",
        5 => "s[1] = x + s[1]; x = x + s[2] * s[0];",
        6 => "k = k - 7 * (k / 3); x = x / ((k % 7 + 8) * 1.0);",
        _ => "x = max(x, 0.0 - 100.0) + pop();",
    }
}

/// One random *divergence-heavy* building block: data-dependent
/// branches and loop trip counts, so neighbouring warp lanes take
/// different control paths and reconverge. Stateless on purpose — warp
/// lanes share one state array in lockstep, so sequential-firing state
/// semantics only apply lane-privately (which the templates guarantee
/// and `random_body_bytecode_matches_ast_oracle` covers scalar-side).
fn divergent_block(sel: u8) -> &'static str {
    match sel % 6 {
        0 => "if (x > 0.0) { t = 6; } else { t = 2; } for i in 0..t { x = x * 0.75 + 0.25; }",
        1 => "if (x < 0.0) { x = 0.0 - x; } else { x = x * 1.125; }",
        2 => "if (x > 2.0) { x = x - 4.0; } else { if (x > 0.5) { x = x * 0.5; } else { x = x + 1.0; } }",
        3 => "t = 1; if (x > 1.0) { t = t + 3; } if (x > 3.0) { t = t + 4; } for i in 0..t { x = x * 0.875; }",
        4 => "for i in 0..3 { if (x > 1.0) { x = x * 0.5; } else { x = x + 0.375; } }",
        _ => "x = x + 0.0625;",
    }
}

/// A random straight-line map body over one popped value.
fn map_expr(ops: &[u8]) -> String {
    let mut e = "x".to_string();
    for op in ops {
        e = match op % 5 {
            0 => format!("({e} + 1.5)"),
            1 => format!("({e} * 0.5)"),
            2 => format!("abs({e})"),
            3 => format!("max({e}, 0.25)"),
            _ => format!("({e} - 2.0)"),
        };
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random map chain compiles and matches the interpreter exactly.
    #[test]
    fn random_map_chain_matches_interpreter(
        ops1 in proptest::collection::vec(0u8..5, 1..5),
        ops2 in proptest::collection::vec(0u8..5, 1..5),
        data in proptest::collection::vec(-100.0f32..100.0, 32..512),
    ) {
        let src = format!(
            "pipeline P(N) {{
                actor A(pop 1, push 1) {{ x = pop(); push({}); }}
                actor B(pop 1, push 1) {{ x = pop(); push({}); }}
            }}",
            map_expr(&ops1),
            map_expr(&ops2),
        );
        let program = parse_program(&src).unwrap();
        let n = data.len();
        let golden = Interpreter::new(&program).run(&data).unwrap();

        let device = DeviceSpec::tesla_c2050();
        let axis = InputAxis::total_size("N", 16, 1 << 14);
        let compiled = compile(&program, &device, &axis).unwrap();
        let rep = compiled.run(n as i64, &data).unwrap();
        prop_assert_eq!(rep.output, golden);
    }

    /// Random reductions (op and element transform) match a CPU fold
    /// within float-reassociation tolerance, at sizes spanning variants.
    #[test]
    fn random_reduction_matches_fold(
        op_sel in 0u8..3,
        elem_sel in 0u8..3,
        log_n in 6u32..14,
    ) {
        let (init, op) = match op_sel {
            0 => ("0.0", "acc + ELEM"),
            1 => ("-1000000.0", "max(acc, ELEM)"),
            _ => ("1000000.0", "min(acc, ELEM)"),
        };
        let elem = match elem_sel {
            0 => "pop()",
            1 => "abs(pop())",
            _ => "pow(pop(), 2.0)",
        };
        let body = op.replace("ELEM", elem);
        let src = format!(
            "pipeline P(N) {{
                actor R(pop N, push 1) {{
                    acc = {init};
                    for i in 0..N {{ acc = {body}; }}
                    push(acc);
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let n = 1usize << log_n;
        let data: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();

        let elem_f = |x: f32| -> f32 {
            match elem_sel {
                0 => x,
                1 => x.abs(),
                _ => x * x,
            }
        };
        let want = match op_sel {
            0 => data.iter().map(|x| elem_f(*x)).sum::<f32>(),
            1 => data.iter().map(|x| elem_f(*x)).fold(f32::NEG_INFINITY, f32::max),
            _ => data.iter().map(|x| elem_f(*x)).fold(f32::INFINITY, f32::min),
        };

        let device = DeviceSpec::tesla_c2050();
        let axis = InputAxis::total_size("N", 64, 1 << 14);
        let compiled = compile(&program, &device, &axis).unwrap();
        let rep = compiled.run(n as i64, &data).unwrap();
        prop_assert!(
            (rep.output[0] - want).abs() <= 1e-3 * want.abs().max(1.0),
            "{} vs {}", rep.output[0], want
        );
    }

    /// The variant table exactly tiles the compiled axis for arbitrary
    /// ranges.
    #[test]
    fn variant_table_tiles_the_axis(lo in 1i64..1000, span in 10i64..1_000_000) {
        let program = parse_program(
            "pipeline P(N) {
                actor Sum(pop N, push 1) {
                    acc = 0.0;
                    for i in 0..N { acc = acc + pop(); }
                    push(acc);
                }
            }",
        ).unwrap();
        let hi = lo + span;
        let axis = InputAxis::total_size("N", lo, hi);
        let compiled = compile(&program, &DeviceSpec::tesla_c2050(), &axis).unwrap();
        let vs = &compiled.variants;
        prop_assert_eq!(vs[0].lo, lo);
        prop_assert_eq!(vs.last().unwrap().hi, hi);
        for w in vs.windows(2) {
            prop_assert_eq!(w[0].hi + 1, w[1].lo);
        }
        for v in vs {
            prop_assert!(v.lo <= v.hi);
        }
    }

    /// Memory restructuring round-trips for arbitrary rates and data.
    #[test]
    fn restructure_round_trips(
        rate in 1usize..32,
        firings in 1usize..64,
    ) {
        let data: Vec<f32> = (0..rate * firings).map(|i| i as f32).collect();
        let t = restructure(&data, rate);
        prop_assert_eq!(unrestructure(&t, rate), data);
    }

    /// Simulated kernel statistics are deterministic: two runs of the
    /// same compiled program yield identical stats and outputs.
    #[test]
    fn execution_is_deterministic(seed in 0u64..100) {
        let program = parse_program(
            "pipeline P(N) { actor M(pop 1, push 1) { push(pop() * 3.0); } }",
        ).unwrap();
        let device = DeviceSpec::gtx285();
        let axis = InputAxis::total_size("N", 16, 1 << 12);
        let compiled = compile(&program, &device, &axis).unwrap();
        let data: Vec<f32> = (0..777).map(|i| ((i as u64 * seed) % 97) as f32).collect();
        let a = compiled.run(777, &data).unwrap();
        let b = compiled.run(777, &data).unwrap();
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.time_us, b.time_us);
        prop_assert_eq!(a.kernels.len(), b.kernels.len());
    }

    /// Random work bodies (loops, branches, peeks, state loads/stores,
    /// wrapping integer arithmetic mixed with floats) evaluate
    /// bit-identically under the compiled bytecode and the AST reference
    /// interpreter: same outputs, same cursor, same final state.
    #[test]
    fn random_body_bytecode_matches_ast_oracle(
        blocks in proptest::collection::vec(0u8..8, 0..8),
        k0 in -1000i64..1000,
        data in proptest::collection::vec(-50.0f32..50.0, 64..96),
        sdata in proptest::collection::vec(-4.0f32..4.0, 4),
    ) {
        let body_src = blocks.iter().map(|b| body_block(*b)).collect::<Vec<_>>().join("\n");
        let src = format!(
            "pipeline P(N) {{
                actor T(pop 16, push 2, peek 16) {{
                    state s[4];
                    x = pop();
                    k = {k0};
                    {body_src}
                    push(x);
                    push((k % 1000) * 1.0);
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let actor = program.actor("T").unwrap();
        let binds = adaptic_repro::streamir::graph::bindings(&[]);

        let mut ast_io = VecIo {
            input: data.clone(),
            ..VecIo::default()
        };
        ast_io.state.insert("s".to_string(), sdata.clone());
        let mut locals = HashMap::new();
        exec_body(&actor.work.body, &mut locals, &binds, &mut ast_io).unwrap();

        let prog = compile_body(&actor.work.body, &binds, &[]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let mut frame = Frame::default();
        frame.fit(&prog);
        frame.reset(&proto);
        let mut bc_io = VecIo {
            input: data.clone(),
            ..VecIo::default()
        };
        bc_io.state.insert("s".to_string(), sdata.clone());
        bytecode::eval(&prog, &mut frame, &mut bc_io);

        prop_assert_eq!(ast_io.output.len(), bc_io.output.len());
        for (i, (a, b)) in ast_io.output.iter().zip(&bc_io.output).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "output {} differs: {} vs {}", i, a, b);
        }
        prop_assert_eq!(ast_io.cursor, bc_io.cursor);
        for (a, b) in ast_io.state["s"].iter().zip(&bc_io.state["s"]) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "state differs: {} vs {}", a, b);
        }
    }

    /// Every template family (map, reduction, stencil, fused split-join)
    /// produces bit-identical outputs AND kernel statistics whether work
    /// bodies run on the bytecode evaluator or the AST oracle, on both
    /// simulated devices.
    #[test]
    fn template_families_ast_oracle_stats_identical(
        family in 0u8..4,
        ops in proptest::collection::vec(0u8..5, 1..4),
        log_n in 8u32..11,
        dev_sel in 0u8..2,
    ) {
        let (src, is_stencil) = match family {
            0 => (format!(
                "pipeline P(N) {{
                    actor A(pop 1, push 1) {{ x = pop(); push({}); }}
                    actor B(pop 1, push 1) {{ x = pop(); push(x + 1.0); }}
                }}",
                map_expr(&ops),
            ), false),
            1 => (format!(
                "pipeline P(N) {{
                    actor R(pop N, push 1) {{
                        acc = 0.0;
                        for i in 0..N {{ x = pop(); acc = acc + {}; }}
                        push(acc);
                    }}
                }}",
                map_expr(&ops),
            ), false),
            2 => ("pipeline P(rows, cols) {
                    actor S(pop rows*cols, push rows*cols, peek rows*cols) {
                        for idx in 0..rows*cols {
                            r = idx / cols;
                            c = idx % cols;
                            if (r > 0 && r < rows - 1 && c > 0 && c < cols - 1) {
                                push(0.25 * (peek(idx - 1) + peek(idx + 1)
                                    + peek(idx - cols) + peek(idx + cols)));
                            } else {
                                push(peek(idx));
                            }
                        }
                    }
                }".to_string(), true),
            _ => ("pipeline P(N) {
                    splitjoin {
                        split duplicate;
                        actor MaxA(pop N, push 1) {
                            m = -100000.0;
                            for i in 0..N { m = max(m, pop()); }
                            push(m);
                        }
                        actor SumA(pop N, push 1) {
                            s = 0.0;
                            for i in 0..N { s = s + pop(); }
                            push(s);
                        }
                        join roundrobin(1, 1);
                    }
                }".to_string(), false),
        };
        let program = parse_program(&src).unwrap();
        let device = if dev_sel == 0 {
            DeviceSpec::tesla_c2050()
        } else {
            DeviceSpec::gtx480()
        };
        let (axis, x, n_items) = if is_stencil {
            let side = 1usize << (log_n / 2).max(4);
            (
                InputAxis::new("side", 16, 512, |s| {
                    adaptic_repro::streamir::graph::bindings(&[("rows", s), ("cols", s)])
                }),
                side as i64,
                side * side,
            )
        } else {
            let n = 1usize << log_n;
            (InputAxis::total_size("N", 64, 1 << 14), n as i64, n)
        };
        let compiled = compile(&program, &device, &axis).unwrap();
        let input: Vec<f32> = (0..n_items).map(|i| ((i * 13) % 97) as f32 - 48.0).collect();

        let fast = compiled
            .run_opts(x, &input, &[], RunOptions::default(), None)
            .unwrap();
        let oracle = compiled
            .run_opts(x, &input, &[], RunOptions::default().with_ast_oracle(true), None)
            .unwrap();

        prop_assert_eq!(fast.output.len(), oracle.output.len());
        for (a, b) in fast.output.iter().zip(&oracle.output) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "output differs: {} vs {}", a, b);
        }
        prop_assert_eq!(fast.kernels.len(), oracle.kernels.len());
        for (f, o) in fast.kernels.iter().zip(&oracle.kernels) {
            prop_assert_eq!(&f.stats, &o.stats, "kernel {} stats diverge", f.name);
        }
    }

    /// Branch-heavy bodies with uneven, data-dependent loop trip counts
    /// evaluate bit-identically on the warp-batched evaluator (lanes
    /// diverging and reconverging under predicate masks, including a
    /// ragged final warp), the scalar bytecode evaluator, and the AST
    /// walker.
    #[test]
    fn warp_eval_matches_scalar_and_ast_on_divergent_bodies(
        blocks in proptest::collection::vec(0u8..6, 1..6),
        lanes in 2usize..33,
        data in proptest::collection::vec(-6.0f32..6.0, 33..97),
    ) {
        let body_src = blocks.iter().map(|b| divergent_block(*b)).collect::<Vec<_>>().join("\n");
        let src = format!(
            "pipeline P(N) {{
                actor D(pop 1, push 1) {{
                    x = pop();
                    {body_src}
                    push(x);
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let actor = program.actor("D").unwrap();
        let binds = adaptic_repro::streamir::graph::bindings(&[]);
        let firings = data.len();

        // AST walker, one firing at a time.
        let mut ast_io = VecIo { input: data.clone(), ..VecIo::default() };
        for _ in 0..firings {
            let mut locals = HashMap::new();
            exec_body(&actor.work.body, &mut locals, &binds, &mut ast_io).unwrap();
        }

        // Scalar bytecode, one firing at a time.
        let prog = compile_body(&actor.work.body, &binds, &[]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let mut frame = Frame::default();
        frame.fit(&prog);
        let mut bc_io = VecIo { input: data.clone(), ..VecIo::default() };
        for _ in 0..firings {
            frame.reset(&proto);
            bytecode::eval(&prog, &mut frame, &mut bc_io);
        }

        // Warp-batched, `lanes` firings per eval; the final warp is
        // ragged whenever `firings % lanes != 0`.
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        let mut wio = VecWarpIo {
            input: data.clone(),
            cursor: vec![0; lanes],
            output: vec![0.0; firings],
            out_pos: vec![0; lanes],
            state: HashMap::new(),
        };
        let mut base = 0;
        while base < firings {
            let live = lanes.min(firings - base);
            for l in 0..live {
                wio.cursor[l] = base + l;
                wio.out_pos[l] = base + l;
            }
            wf.reset(&proto);
            warp::eval(&prog, &mut wf, full_mask(live), &mut wio);
            base += live;
        }

        prop_assert_eq!(ast_io.output.len(), firings);
        prop_assert_eq!(bc_io.output.len(), firings);
        for i in 0..firings {
            prop_assert_eq!(
                ast_io.output[i].to_bits(),
                bc_io.output[i].to_bits(),
                "firing {}: ast {} vs scalar {}", i, ast_io.output[i], bc_io.output[i]
            );
            prop_assert_eq!(
                ast_io.output[i].to_bits(),
                wio.output[i].to_bits(),
                "firing {}: ast {} vs warp {}", i, ast_io.output[i], wio.output[i]
            );
        }
    }

    /// Five template families (divergent map, map chain, reduction,
    /// stencil, fused split-join) produce bit-identical outputs, kernel
    /// statistics, and report telemetry under every evaluator backend
    /// (warp-batched, scalar bytecode, AST walker) on both execution
    /// engines and both simulated devices. Input sizes are odd so final
    /// warps are ragged.
    #[test]
    fn template_families_backend_stats_identical(
        family in 0u8..5,
        log_n in 8u32..11,
        dev_sel in 0u8..2,
    ) {
        let (src, is_stencil) = match family {
            0 => ("pipeline P(N) {
                    actor D(pop 1, push 1) {
                        x = pop();
                        if (x > 0.0) { t = 5; } else { t = 2; }
                        acc = 0.0;
                        for i in 0..t { acc = acc + x * 0.25; x = x * 0.5 + 0.125; }
                        if (acc > 1.0) { push(acc); } else { push(acc - x); }
                    }
                }".to_string(), false),
            1 => ("pipeline P(N) {
                    actor A(pop 1, push 1) { x = pop(); push(max(abs(x) * 0.5, 0.25)); }
                    actor B(pop 1, push 1) { x = pop(); push(x + 1.0); }
                }".to_string(), false),
            2 => ("pipeline P(N) {
                    actor R(pop N, push 1) {
                        acc = 0.0;
                        for i in 0..N { x = pop(); acc = acc + abs(x); }
                        push(acc);
                    }
                }".to_string(), false),
            3 => ("pipeline P(rows, cols) {
                    actor S(pop rows*cols, push rows*cols, peek rows*cols) {
                        for idx in 0..rows*cols {
                            r = idx / cols;
                            c = idx % cols;
                            if (r > 0 && r < rows - 1 && c > 0 && c < cols - 1) {
                                push(0.25 * (peek(idx - 1) + peek(idx + 1)
                                    + peek(idx - cols) + peek(idx + cols)));
                            } else {
                                push(peek(idx));
                            }
                        }
                    }
                }".to_string(), true),
            _ => ("pipeline P(N) {
                    splitjoin {
                        split duplicate;
                        actor MaxA(pop N, push 1) {
                            m = -100000.0;
                            for i in 0..N { m = max(m, pop()); }
                            push(m);
                        }
                        actor SumA(pop N, push 1) {
                            s = 0.0;
                            for i in 0..N { s = s + pop(); }
                            push(s);
                        }
                        join roundrobin(1, 1);
                    }
                }".to_string(), false),
        };
        let program = parse_program(&src).unwrap();
        let device = if dev_sel == 0 {
            DeviceSpec::tesla_c2050()
        } else {
            DeviceSpec::gtx480()
        };
        let (axis, x, n_items) = if is_stencil {
            let side = (1usize << (log_n / 2).max(4)) + 1;
            (
                InputAxis::new("side", 16, 512, |s| {
                    adaptic_repro::streamir::graph::bindings(&[("rows", s), ("cols", s)])
                }),
                side as i64,
                side * side,
            )
        } else {
            let n = (1usize << log_n) + 3;
            (InputAxis::total_size("N", 64, 1 << 14), n as i64, n)
        };
        let compiled = compile(&program, &device, &axis).unwrap();
        let input: Vec<f32> = (0..n_items).map(|i| ((i * 13) % 97) as f32 - 48.0).collect();

        let mut reports = Vec::new();
        for backend in [EvalBackend::Warp, EvalBackend::Scalar, EvalBackend::Ast] {
            for policy in [ExecPolicy::Serial, ExecPolicy::Parallel(2)] {
                let opts = RunOptions {
                    policy,
                    ..RunOptions::serial(ExecMode::Full)
                }
                .with_backend(backend);
                reports.push((backend, policy, compiled.run_opts(x, &input, &[], opts, None).unwrap()));
            }
        }
        let (_, _, first) = &reports[0];
        for (backend, policy, r) in &reports[1..] {
            prop_assert_eq!(
                first.output.len(), r.output.len(),
                "{:?}/{:?} output length", backend, policy
            );
            for (a, b) in first.output.iter().zip(&r.output) {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{:?}/{:?} output differs: {} vs {}", backend, policy, a, b
                );
            }
            prop_assert_eq!(first.kernels.len(), r.kernels.len());
            for (f, o) in first.kernels.iter().zip(&r.kernels) {
                prop_assert_eq!(
                    &f.stats, &o.stats,
                    "{:?}/{:?} kernel {} stats diverge", backend, policy, f.name
                );
            }
            prop_assert_eq!(first.time_us, r.time_us, "{:?}/{:?} time", backend, policy);
            prop_assert_eq!(first.host_time_us, r.host_time_us);
            prop_assert_eq!(first.variant_index, r.variant_index);
            prop_assert_eq!(&first.telemetry, &r.telemetry);
        }
    }
}

/// Deterministic reader over proptest-drawn bytes, steering the typed-row
/// program generator below (0 once exhausted).
struct Genes<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Genes<'_> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        b
    }
}

/// A random numeric expression over `x` (float), `k` (integer until a
/// float is stored into it), `p` (a preset that is an integer on even
/// lanes and a float on odd ones) and `lane` — so rows mix `I64` and
/// `F32` lanes, and `select` yields mixed variants. Every division is by
/// a nonzero float literal, so no lane can fault.
fn typed_num(g: &mut Genes, depth: u32) -> String {
    let sel = g.next();
    if depth == 0 || sel.is_multiple_of(4) {
        return match sel / 4 % 7 {
            0 => "x".into(),
            1 => "k".into(),
            2 => "p".into(),
            3 => "lane".into(),
            4 => "3".into(),
            5 => "0.0".into(),
            _ => "1.5".into(),
        };
    }
    let d = depth - 1;
    match sel / 4 % 13 {
        0 => format!("({} + {})", typed_num(g, d), typed_num(g, d)),
        1 => format!("({} - {})", typed_num(g, d), typed_num(g, d)),
        2 => format!("({} * {})", typed_num(g, d), typed_num(g, d)),
        3 => format!("({} / 4.0)", typed_num(g, d)),
        4 => format!("({} % 2.5)", typed_num(g, d)),
        5 => format!("(-{})", typed_num(g, d)),
        6 => format!("abs({})", typed_num(g, d)),
        7 => format!("sqrt({})", typed_num(g, d)),
        8 => format!("log({})", typed_num(g, d)),
        9 => format!("max({}, {})", typed_num(g, d), typed_num(g, d)),
        10 => format!("pow({}, 2.0)", typed_num(g, d)),
        11 => format!("floor({})", typed_num(g, d)),
        _ => format!(
            "select({}, {}, {})",
            typed_bool(g, d),
            typed_num(g, d),
            typed_num(g, d)
        ),
    }
}

/// A random boolean expression; `with_b` admits the body's `b` variable.
fn typed_bool_in(g: &mut Genes, depth: u32, with_b: bool) -> String {
    let sel = g.next();
    if depth == 0 || sel.is_multiple_of(3) {
        return if with_b && sel.is_multiple_of(2) {
            "b".into()
        } else {
            format!("({} < {})", typed_num(g, 0), typed_num(g, 0))
        };
    }
    let d = depth - 1;
    match sel / 3 % 5 {
        0 => format!("({} < {})", typed_num(g, d), typed_num(g, d)),
        1 => format!("({} == {})", typed_num(g, d), typed_num(g, d)),
        2 => format!(
            "({} && {})",
            typed_bool_in(g, d, with_b),
            typed_bool_in(g, d, with_b)
        ),
        3 => format!(
            "({} || {})",
            typed_bool_in(g, d, with_b),
            typed_bool_in(g, d, with_b)
        ),
        _ => format!("!{}", typed_bool_in(g, d, with_b)),
    }
}

fn typed_bool(g: &mut Genes, depth: u32) -> String {
    typed_bool_in(g, depth, false)
}

/// One random statement of a typed-row body: type-changing and
/// divergent stores, `select` over differently typed arms, and loops
/// with lane-dependent trip counts, plain or under a divergent branch.
fn typed_stmt(g: &mut Genes) -> String {
    match g.next() % 8 {
        0 => format!("x = {};", typed_num(g, 3)),
        1 => format!("k = {};", typed_num(g, 2)),
        2 => format!("b = {};", typed_bool_in(g, 2, true)),
        3 => format!(
            "if ({}) {{ x = {}; }} else {{ k = {}; }}",
            typed_bool_in(g, 2, true),
            typed_num(g, 2),
            typed_num(g, 2)
        ),
        // `j` keeps its last value after the loop, or its zero
        // initial value on lanes that ran no iteration.
        4 => format!(
            "for j in 0..(lane % 4 + {}) {{ x = x * 0.75 + j; }} x = x + j * 0.5;",
            g.next() % 3
        ),
        5 => "x = select(b, x, k);".into(),
        6 => "if (b) { for j in 0..(lane % 3) { k = k + j; } }".into(),
        _ => format!("k = select({}, k, 2.5);", typed_bool_in(g, 1, true)),
    }
}

/// Per-lane value of the mixed preset `p`.
fn preset_p(lane: usize, data: &[f32]) -> Value {
    if lane.is_multiple_of(2) {
        Value::I64(lane as i64 * 3 - 7)
    } else {
        Value::F32(data[lane % data.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random bodies mixing `I64`, `F32` and `Bool` rows — divergent
    /// type-changing stores, mixed-variant `select`, divergent loops, a
    /// ragged final warp — evaluate bit-identically on the typed warp
    /// evaluator and the scalar bytecode evaluator.
    #[test]
    fn typed_warp_rows_match_scalar_on_random_bodies(
        genes in proptest::collection::vec(any::<u8>(), 16..96),
        n_stmts in 1usize..7,
        lanes in 2usize..33,
        data in proptest::collection::vec(-4.0f32..4.0, 9..70),
    ) {
        let mut g = Genes { bytes: &genes, at: 0 };
        let stmts: Vec<String> = (0..n_stmts).map(|_| typed_stmt(&mut g)).collect();
        let tail = typed_num(&mut g, 3);
        let src = format!(
            "pipeline P() {{
                actor T(pop 1, push 4) {{
                    x = pop();
                    k = lane * 7 - 20;
                    b = x < 0.5;
                    {}
                    push(x);
                    push(k);
                    push(select(b, 1.0, 0.0));
                    push({tail});
                }}
            }}",
            stmts.join("\n")
        );
        let program = parse_program(&src).unwrap();
        let body = &program.actors[0].work.body;
        let binds = adaptic_repro::streamir::graph::bindings(&[]);
        let prog = compile_body(body, &binds, &["lane", "p"]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let (lane_slot, p_slot) = (prog.slot_of("lane"), prog.slot_of("p"));
        let firings = data.len();
        let pushes = 4;

        // Scalar reference, one firing at a time; firing `f` runs as
        // lane `f % lanes` of its warp.
        let mut frame = Frame::default();
        frame.fit(&prog);
        let mut want = Vec::new();
        for (f, v) in data.iter().enumerate() {
            let lane = f % lanes;
            frame.reset(&proto);
            if let Some(s) = lane_slot {
                frame.set(s, Value::I64(lane as i64));
            }
            if let Some(s) = p_slot {
                frame.set(s, preset_p(lane, &data));
            }
            let mut io = VecIo { input: vec![*v], ..VecIo::default() };
            bytecode::eval(&prog, &mut frame, &mut io);
            want.extend(io.output);
        }

        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        let mut wio = VecWarpIo {
            input: data.clone(),
            cursor: vec![0; lanes],
            output: vec![0.0; firings * pushes],
            out_pos: vec![0; lanes],
            state: HashMap::new(),
        };
        let mut base = 0;
        while base < firings {
            let live = lanes.min(firings - base);
            for l in 0..live {
                wio.cursor[l] = base + l;
                wio.out_pos[l] = (base + l) * pushes;
            }
            let mask = full_mask(live);
            wf.reset(&proto);
            if let Some(s) = lane_slot {
                wf.set_row(s, mask, |l| Value::I64(l as i64));
            }
            if let Some(s) = p_slot {
                wf.set_row(s, mask, |l| preset_p(l, &data));
            }
            warp::eval(&prog, &mut wf, mask, &mut wio);
            base += live;
        }

        prop_assert_eq!(want.len(), wio.output.len());
        for (i, (a, b)) in want.iter().zip(&wio.output).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "push {}: scalar {} vs warp {}\n{}", i, a, b, src
            );
        }
    }

    /// Random expressions over mixed-type preset rows, evaluated under a
    /// random partial mask, agree bit for bit with the scalar evaluator
    /// on every active lane.
    #[test]
    fn typed_warp_rows_match_scalar_on_random_expressions(
        genes in proptest::collection::vec(any::<u8>(), 8..64),
        lanes in 1usize..65,
        mask_bits in any::<u64>(),
        data in proptest::collection::vec(-4.0f32..4.0, 64..65),
    ) {
        let mut g = Genes { bytes: &genes, at: 0 };
        let src = format!(
            "pipeline P() {{ actor E(pop 1, push 1) {{ push({}); }} }}",
            typed_num(&mut g, 4)
        );
        let program = parse_program(&src).unwrap();
        let adaptic_repro::streamir::ir::Stmt::Push(expr) = &program.actors[0].work.body[0]
        else {
            panic!("push statement");
        };
        let binds = adaptic_repro::streamir::graph::bindings(&[]);
        let prog = bytecode::compile_expr(expr, &binds, &["x", "k", "p", "lane"]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lane_val = |name: &str, l: usize| match name {
            "x" => Value::F32(data[l]),
            "k" => Value::I64(l as i64 * 5 - 40),
            "p" => preset_p(l, &data),
            _ => Value::I64(l as i64),
        };
        let mask = match mask_bits & full_mask(lanes) {
            0 => 1,
            m => m,
        };

        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        for name in ["x", "k", "p", "lane"] {
            if let Some(s) = prog.slot_of(name) {
                wf.set_row(s, mask, |l| lane_val(name, l));
            }
        }
        let mut out = vec![f32::MAX; lanes];
        warp::eval_row(&prog, &mut wf, mask, &mut VecWarpIo::default(), &mut out);

        let mut frame = Frame::default();
        frame.fit(&prog);
        for l in (0..lanes).filter(|l| mask >> l & 1 != 0) {
            frame.reset(&proto);
            for name in ["x", "k", "p", "lane"] {
                if let Some(s) = prog.slot_of(name) {
                    frame.set(s, lane_val(name, l));
                }
            }
            let want = bytecode::eval_value(&prog, &mut frame, &mut VecIo::default())
                .as_f32()
                .unwrap();
            prop_assert_eq!(
                want.to_bits(), out[l].to_bits(),
                "lane {}: scalar {} vs warp {}\n{}", l, want, out[l], src
            );
        }
    }
}
