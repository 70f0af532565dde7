//! `serve_mix`: an open-loop arrival schedule into `adaptic_serve::Server`.
//!
//! The server runs the default two-device fleet with at most `nproc`
//! workers and two tenants on different programs — a reduction (`sasum`)
//! and a map (`saxpy`) — behind bounded queues. One generator thread sends
//! every request at its due time, whatever the server is doing, at the
//! fixed rate [`RATE_RPS`] with the fixed deadline [`DEADLINE_MS`]; neither
//! is ever calibrated from wall-clock time. Request sizes and the arrival
//! bursts come from the seeded `workloads::{bursty, diurnal}` generators.
//! Most requests run in `Full` mode on fresh inputs; in every
//! [`SAMPLED_EVERY`] requests, two twins run in `SampledExec` on one of a
//! few shared inputs, so the launch cache and request coalescing engage.
//! (Coalescing needs equal programs, so with one program per tenant it
//! engages within a tenant, never across the two.)
//!
//! Throughput is goodput (deadline-met completions per second, from the
//! first due time to the last completion); latency runs from each
//! request's due time to its completion, over completed requests. Every
//! `Full` completion is compared against `streamir::interp`; an
//! `Outcome::Failed` counts as a failed operation whether or not a fault
//! was injected (none is).

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use adaptic::{
    compile, Fleet, FleetNode, InputAxis, KernelManager, PlacementPolicy, RunOptions, StateBinding,
};
use adaptic_apps::programs::{self, zip2};
use adaptic_bench::data;
use adaptic_bench::workloads::{bursty, diurnal, Lcg};
use adaptic_serve::{Outcome, Request, Server, ServerConfig, TenantPolicy, Ticket};
use gpu_sim::ExecMode;
use streamir::interp::Interpreter;

use crate::replay::{self, Replayer};
use crate::report::{percentile, Better, Metric};
use crate::sys::{self, all_close, close};
use crate::trace::Tracer;
use crate::{Config, Run};

/// Offered load (requests per second), fixed.
const RATE_RPS: f64 = 300.0;
/// Per-request deadline after its due time (ms), fixed.
const DEADLINE_MS: u64 = 200;
/// In every this-many requests, the last two are twin `SampledExec`
/// requests on a shared input.
const SAMPLED_EVERY: usize = 8;
/// Blocks sampled by `SampledExec` requests.
const SAMPLE_BLOCKS: u32 = 64;
/// Shared-input sizes of the sampled requests.
const SAMPLED_SIZES: [i64; 4] = [2048, 4096, 8192, 16384];
/// Largest request size.
const MAX_SIZE: i64 = 16384;
/// Bounded queues: per tenant and global.
const TENANT_QUEUE_CAP: usize = 16;
const GLOBAL_QUEUE_CAP: usize = 64;
/// Closed-loop warm-up requests per tenant inside each set-up.
const WARMUP: usize = 8;
/// Set-up repetitions; the reported set-up time is their median.
const SETUPS: usize = 3;
/// The generator spins for the last this-many µs before a due time.
const SPIN_US: u64 = 200;
/// Latency percentiles are taken per window of this many µs of due
/// times, then the median over windows is reported.
const WINDOW_US: u64 = 2_000_000;
/// Every n-th request is replayed layer by layer in the traced run.
const REPLAY_EVERY: usize = 4;

const TENANTS: [&str; 2] = ["reduce", "map"];

fn axis() -> InputAxis {
    InputAxis::total_size("N", 256, 1 << 15)
}

fn program(tenant: usize) -> streamir::Program {
    if tenant == 0 {
        programs::sasum().program
    } else {
        programs::saxpy().program
    }
}

fn state(tenant: usize) -> Vec<StateBinding> {
    if tenant == 0 {
        vec![]
    } else {
        vec![StateBinding::new("Axpy", "a", vec![2.0])]
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due_us: u64,
    tenant: usize,
    x: i64,
    /// Index into [`SAMPLED_SIZES`] for a sampled request.
    sampled: Option<usize>,
}

/// The seeded open-loop schedule: `n` requests at mean rate [`RATE_RPS`].
fn schedule(n: usize, seed: u64) -> Vec<Planned> {
    let half = n.div_ceil(2);
    let b = bursty(
        half,
        (1024, 4096),
        (8192, MAX_SIZE),
        16,
        4,
        sys::mix(seed, 1),
    );
    let d = diurnal(half, 1024, MAX_SIZE, 32, 0.15, sys::mix(seed, 2));
    // Inter-arrival gaps: a steady base with short bursts of tight
    // arrivals, rescaled so the mean rate is exactly RATE_RPS (twins add
    // no gap).
    let gaps = bursty(n, (800, 1600), (200, 400), 24, 6, sys::mix(seed, 3));
    let spanned: i64 = (0..n)
        .filter(|i| i % SAMPLED_EVERY != SAMPLED_EVERY - 1)
        .map(|i| gaps[i])
        .sum();
    let scale = (n as f64 * 1e6 / RATE_RPS) / spanned as f64;
    let mut rng = Lcg::new(sys::mix(seed, 4));
    let mut due = 0.0f64;
    let mut plan: Vec<Planned> = Vec::with_capacity(n);
    for i in 0..n {
        let p = match i % SAMPLED_EVERY {
            // The twin of the previous sampled request: same tenant, size
            // and shared input, due at the same instant, so the two are in
            // flight together and coalesce.
            k if k == SAMPLED_EVERY - 1 => plan[i - 1],
            k => {
                let tenant = (rng.next_u64() % 2) as usize;
                let sampled = (k == SAMPLED_EVERY - 2)
                    .then(|| (rng.next_u64() % SAMPLED_SIZES.len() as u64) as usize);
                let x = match sampled {
                    Some(s) => SAMPLED_SIZES[s],
                    None if i % 2 == 0 => b[i / 2],
                    None => d[i / 2],
                };
                let p = Planned {
                    due_us: due.round() as u64,
                    tenant,
                    x,
                    sampled,
                };
                due += gaps[i] as f64 * scale;
                p
            }
        };
        plan.push(p);
    }
    plan
}

/// Per-tenant inputs: the master buffer `Full` requests take prefixes
/// of, and the shared inputs of sampled requests.
struct Inputs {
    master: Vec<Vec<f32>>,
    shared: Vec<Vec<Arc<Vec<f32>>>>,
}

/// Items per axis unit of each tenant's input (saxpy reads `zip2(x, y)`).
fn width(tenant: usize) -> usize {
    tenant + 1
}

fn inputs(seed: u64) -> Inputs {
    let n = MAX_SIZE as usize;
    let x = data(n, sys::mix(seed, 5));
    let y = data(n, sys::mix(seed, 6));
    let master = vec![x.clone(), zip2(&x, &y)];
    let shared = master
        .iter()
        .enumerate()
        .map(|(t, m)| {
            SAMPLED_SIZES
                .iter()
                .map(|&s| Arc::new(m[..s as usize * width(t)].to_vec()))
                .collect()
        })
        .collect();
    Inputs { master, shared }
}

fn request_input(inp: &Inputs, p: &Planned) -> Arc<Vec<f32>> {
    match p.sampled {
        Some(k) => Arc::clone(&inp.shared[p.tenant][k]),
        None => Arc::new(inp.master[p.tenant][..p.x as usize * width(p.tenant)].to_vec()),
    }
}

/// Interpreter references: `sasum` per distinct `Full` size, `saxpy` once
/// over the master buffer (a map's output on a prefix is the prefix of
/// its output).
struct References {
    sums: std::collections::BTreeMap<i64, f32>,
    map: Vec<f32>,
}

fn references(plan: &[Planned], inp: &Inputs, programs: &[streamir::Program]) -> References {
    let interp = |tenant: usize, input: &[f32], x: i64| -> Vec<f32> {
        let mut it = Interpreter::new(&programs[tenant]);
        for (k, v) in axis().bind(x) {
            it.bind_param(&k, v);
        }
        for sb in state(tenant) {
            it.bind_state(&sb.actor, &sb.array, sb.data);
        }
        it.run(input).expect("interpreter runs the tenant program")
    };
    let mut sums = std::collections::BTreeMap::new();
    for p in plan.iter().filter(|p| p.tenant == 0 && p.sampled.is_none()) {
        sums.entry(p.x)
            .or_insert_with(|| interp(0, &inp.master[0][..p.x as usize], p.x)[0]);
    }
    References {
        sums,
        map: interp(1, &inp.master[1], MAX_SIZE),
    }
}

/// What became of one request.
#[derive(Debug, Clone, Copy)]
enum Done {
    Completed {
        finished_us: u64,
        queued_us: u64,
        deadline_met: bool,
        coalesced: bool,
        sim_us: f64,
        output_ok: bool,
    },
    Rejected,
    Shed,
    Failed,
}

fn start_server(programs: &[streamir::Program], tracer: &mut Tracer) -> Server {
    let server = Server::start(ServerConfig {
        workers: sys::nproc().min(2),
        global_queue_cap: GLOBAL_QUEUE_CAP,
        ..ServerConfig::default()
    });
    for (t, name) in TENANTS.iter().enumerate() {
        tracer.time("serve", "serve.register", || {
            server
                .register_tenant(
                    name,
                    &programs[t],
                    &axis(),
                    TenantPolicy::default()
                        .with_queue_cap(TENANT_QUEUE_CAP)
                        .with_quota(1e9, 1e9),
                )
                .expect("tenant registers")
        });
    }
    // Closed-loop warm-up so lazy state (pools, learned ratios) is built.
    for i in 0..WARMUP {
        for (t, name) in TENANTS.iter().enumerate() {
            let x = 1024 << (i % 4);
            let input = Arc::new(data(x as usize * width(t), 7));
            let mut req = Request::new(x, input);
            req.state = Arc::new(state(t));
            if let Ok(ticket) = server.submit(name, req) {
                let _ = ticket.wait();
            }
        }
    }
    server
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Run {
    let mut out = Run::default();
    let n = ((RATE_RPS * cfg.seconds).ceil() as usize).max(1);
    let plan = schedule(n, cfg.seed);
    let inp = inputs(cfg.seed);
    let programs: Vec<streamir::Program> = (0..TENANTS.len())
        .map(|t| tracer.time("streamir", "streamir.parse", || program(t)))
        .collect();
    let refs = Arc::new(references(&plan, &inp, &programs));

    // Set-up: start the server, register both tenants, warm up.
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            s.shutdown(1_000_000);
        }
        let t = Instant::now();
        server = Some(start_server(&programs, tracer));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");

    // The collector waits on tickets in submission order and checks each
    // Full output as it arrives; timestamps come from the server clock.
    let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
    let collector = {
        let refs = Arc::clone(&refs);
        let plan = plan.clone();
        std::thread::spawn(move || {
            let mut done = Vec::new();
            for (i, ticket) in rx {
                let p: Planned = plan[i];
                let d = match ticket.wait() {
                    Outcome::Completed(c) => {
                        let output_ok = match (p.sampled, p.tenant) {
                            (Some(_), _) => true,
                            (None, 0) => {
                                c.report.output.len() == 1
                                    && refs
                                        .sums
                                        .get(&p.x)
                                        .is_some_and(|w| close(c.report.output[0], *w, 1e-3))
                            }
                            (None, _) => {
                                all_close(&c.report.output, &refs.map[..p.x as usize], 1e-5)
                            }
                        };
                        Done::Completed {
                            finished_us: c.finished_at_us,
                            queued_us: c.queued_us,
                            deadline_met: c.deadline_met,
                            coalesced: c.coalesced,
                            sim_us: c.report.time_us,
                            output_ok,
                        }
                    }
                    Outcome::Shed(_) => Done::Shed,
                    Outcome::Failed(_) => Done::Failed,
                };
                done.push((i, d));
            }
            done
        })
    };

    // Open-loop generator.
    let cpu_start = sys::process_cpu_s();
    let origin = server.now_us() + 1000;
    let mut lag_ms = Vec::with_capacity(n);
    let mut enq_us = vec![0u64; n];
    let mut results: Vec<Option<Done>> = vec![None; n];
    for (i, p) in plan.iter().enumerate() {
        let due = origin + p.due_us;
        // Sleep to just before the due time, then spin: a sleep alone
        // wakes tens of µs late.
        let now = server.now_us();
        if due > now + SPIN_US {
            std::thread::sleep(Duration::from_micros(due - now - SPIN_US));
        }
        while server.now_us() < due {
            std::hint::spin_loop();
        }
        let mut req =
            Request::new(p.x, request_input(&inp, p)).with_deadline_at(due + DEADLINE_MS * 1000);
        req.state = Arc::new(state(p.tenant));
        if p.sampled.is_some() {
            req.mode = ExecMode::SampledExec(SAMPLE_BLOCKS);
        }
        let sent = server.now_us();
        lag_ms.push(sent.saturating_sub(due) as f64 / 1e3);
        enq_us[i] = sent;
        let s = tracer.enter("serve", "serve.submit", Some(i as u64));
        let admitted = server.submit(TENANTS[p.tenant], req);
        tracer.exit(s);
        match admitted {
            Ok(ticket) => tx.send((i, ticket)).expect("collector is alive"),
            Err(_) => results[i] = Some(Done::Rejected),
        }
    }
    drop(tx);
    for (i, d) in collector.join().expect("collector thread") {
        results[i] = Some(d);
    }
    let loop_cpu_ms = (sys::process_cpu_s() - cpu_start) * 1e3;
    let rollup = server.rollup().unwrap_or_default();
    let _ = server.shutdown(1_000_000);

    // Tally.
    let (mut met, mut late, mut rejected, mut shed, mut failed) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut coalesced, mut sampled_done) = (0u64, 0u64);
    let (mut queue_ms, mut service_ms) = (Vec::new(), Vec::new());
    let mut last_finish = origin;
    for (i, (p, r)) in plan.iter().zip(&results).enumerate() {
        out.attempted += 1;
        match r.expect("every request has an outcome") {
            Done::Completed {
                finished_us,
                queued_us,
                deadline_met,
                coalesced: c,
                sim_us,
                output_ok,
            } => {
                let due = origin + p.due_us;
                let window = (p.due_us / WINDOW_US) as usize;
                if out.latency_ms.len() <= window {
                    out.latency_ms.resize(window + 1, Vec::new());
                }
                out.latency_ms[window].push(finished_us.saturating_sub(due) as f64 / 1e3);
                queue_ms.push(queued_us as f64 / 1e3);
                service_ms.push(finished_us.saturating_sub(enq_us[i] + queued_us) as f64 / 1e3);
                out.sim_device_ms += sim_us / 1e3;
                last_finish = last_finish.max(finished_us);
                if deadline_met {
                    met += 1;
                } else {
                    late += 1;
                }
                if p.sampled.is_some() {
                    sampled_done += 1;
                    coalesced += u64::from(c);
                }
                if !output_ok {
                    out.failed += 1;
                    out.wrong += 1;
                    eprintln!("check failed: request {i} output differs from the interpreter");
                }
            }
            Done::Rejected => rejected += 1,
            Done::Shed => shed += 1,
            Done::Failed => {
                failed += 1;
                out.failed += 1;
            }
        }
    }
    // One round: the open loop's CPU time (server, generator and
    // collector) per completed request.
    out.cpu_ms
        .push(vec![loop_cpu_ms / (met + late).max(1) as f64]);
    let span_s = (last_finish.saturating_sub(origin) as f64 / 1e6).max(1e-6);
    let goodput = met as f64 / span_s;
    out.throughput.push(goodput);
    let offered = n as f64;
    out.extra.extend([
        Metric::total("goodput_rps", "1/s", Better::Higher, goodput),
        Metric::total(
            "miss_rate",
            "ratio",
            Better::Lower,
            (rejected + shed + failed + late) as f64 / offered,
        ),
        Metric::total("offered_rps", "1/s", Better::Higher, RATE_RPS),
        Metric::total("failed_outcomes", "count", Better::Lower, failed as f64),
    ]);
    let cache = rollup.cache_hits + rollup.cache_misses;
    out.layer.extend([
        Metric::percentile_of(
            "serve.queue_wait_ms.p50",
            "ms",
            Better::Lower,
            50.0,
            queue_ms.clone(),
        ),
        Metric::percentile_of(
            "serve.queue_wait_ms.p99",
            "ms",
            Better::Lower,
            99.0,
            queue_ms,
        ),
        Metric::percentile_of(
            "serve.service_ms.p50",
            "ms",
            Better::Lower,
            50.0,
            service_ms.clone(),
        ),
        Metric::percentile_of(
            "serve.service_ms.p99",
            "ms",
            Better::Lower,
            99.0,
            service_ms,
        ),
        Metric::total(
            "serve.reject_rate",
            "ratio",
            Better::Lower,
            rejected as f64 / offered,
        ),
        Metric::total(
            "serve.shed_rate",
            "ratio",
            Better::Lower,
            shed as f64 / offered,
        ),
        Metric::total(
            "serve.coalesced_ratio",
            "ratio",
            Better::Higher,
            coalesced as f64 / sampled_done.max(1) as f64,
        ),
        Metric::new(
            "serve.generator_lag_ms.p99",
            "ms",
            Better::Lower,
            percentile(&lag_ms, 99.0),
            lag_ms,
        ),
        Metric::total(
            "gpusim.cache_hit_ratio",
            "ratio",
            Better::Higher,
            rollup.cache_hits as f64 / cache.max(1) as f64,
        ),
        Metric::total(
            "kmu.fallbacks",
            "count",
            Better::Lower,
            rollup.fallbacks as f64,
        ),
        Metric::total(
            "kmu.boundary_moves",
            "count",
            Better::Lower,
            rollup.recalibration_moves as f64,
        ),
    ]);
    if tracer.enabled() {
        replay_layers(&plan, &inp, &programs, tracer, &mut out);
    }
    out
}

/// Traced-run replays of the calls made inside the server for every
/// [`REPLAY_EVERY`]-th request, on a replica fleet compiled the way tenants
/// are: rate matching, placement, KMU selection and pricing, input upload,
/// the launch and the model estimate; plus plan export and an artifact
/// round trip per compiled program.
fn replay_layers(
    plan: &[Planned],
    inp: &Inputs,
    programs: &[streamir::Program],
    tracer: &mut Tracer,
    out: &mut Run,
) {
    let devices = ServerConfig::default().devices;
    let mut replayer = Replayer::new("serve-replay");
    let fleets: Vec<Fleet> = programs
        .iter()
        .map(|program| {
            let nodes = devices
                .iter()
                .map(|device| {
                    let compiled = tracer.time("plan", "plan.compile", || {
                        compile(program, device, &axis()).expect("tenant program compiles")
                    });
                    replayer.round_trip(tracer, &compiled);
                    FleetNode::new(device.name.clone(), KernelManager::new(compiled))
                })
                .collect();
            Fleet::new(nodes, false)
        })
        .collect();
    for (i, p) in plan.iter().enumerate().step_by(REPLAY_EVERY) {
        let req = Some(i as u64);
        let mode = match p.sampled {
            Some(_) => ExecMode::SampledExec(SAMPLE_BLOCKS),
            None => ExecMode::Full,
        };
        let input = request_input(inp, p);
        let fleet = &fleets[p.tenant];
        replay::rate_match_at(tracer, &programs[p.tenant], &axis().bind(p.x), req);
        let s = tracer.enter("fleet", "fleet.place", req);
        let placed = fleet.place(p.x, PlacementPolicy::CostPredicted);
        tracer.exit(s);
        let kmu = fleet.nodes()[placed.map_or(0, |pl| pl.node)].manager();
        replay::kmu_at(tracer, kmu, p.x, req);
        replay::upload(tracer, &input, req);
        let program = kmu.program();
        let _ = replayer.launch(tracer, program.device(), req, || {
            program.run_opts(
                p.x,
                &input,
                &state(p.tenant),
                RunOptions::serial(mode),
                None,
            )
        });
    }
    out.layer.extend(replayer.metrics());
}
