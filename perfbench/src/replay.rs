//! Traced-run replays: calls that happen inside another layer, made again
//! beside the workload with the same arguments so each layer's own cost
//! gets a span. Shared by every workload.

use std::path::PathBuf;
use std::time::Instant;

use adaptic::{ArtifactStore, CompiledProgram, ExecutionReport, KernelManager};
use gpu_sim::{DeviceSpec, GlobalMem};
use streamir::rates::Bindings;
use streamir::schedule::rate_match;

use crate::report::{Better, Metric};
use crate::sys;
use crate::trace::Tracer;

/// Time `f` as one span carrying the request id.
fn span<R>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    req: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    let s = tracer.enter(layer, name, req);
    let out = std::hint::black_box(f());
    tracer.exit(s);
    out
}

/// `flatten` + `rate_match` at the run's bindings.
pub fn rate_match_at(
    tracer: &mut Tracer,
    program: &streamir::Program,
    binds: &Bindings,
    req: Option<u64>,
) {
    span(tracer, "streamir", "streamir.rate_match", req, || {
        let fg = program.flatten().expect("a compiled program flattens");
        rate_match(&fg, binds).expect("a compiled program rate-matches")
    });
}

/// KMU selection and EWMA-corrected pricing at `x`.
pub fn kmu_at(tracer: &mut Tracer, kmu: &KernelManager, x: i64, req: Option<u64>) {
    span(tracer, "kmu", "kmu.select", req, || kmu.select(x).ok());
    span(tracer, "kmu", "kmu.corrected_cost", req, || {
        kmu.corrected_cost(x).ok()
    });
}

/// `GlobalMem::alloc_from` of a launch input.
pub fn upload(tracer: &mut Tracer, input: &[f32], req: Option<u64>) {
    span(tracer, "gpusim", "gpusim.upload", req, || {
        let mut mem = GlobalMem::new();
        mem.alloc_from(input)
    });
}

/// Replays of plan export, artifact round trips and launches, with the
/// counters they yield. Owns a scratch artifact store under the run
/// directory, removed on drop.
pub struct Replayer {
    store: ArtifactStore,
    dir: PathBuf,
    variants: usize,
    bytes: usize,
    blocks: u64,
    threads: u64,
    warp_insts: f64,
    run_us: f64,
}

impl Replayer {
    pub fn new(name: &str) -> Replayer {
        let dir = sys::out_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Replayer {
            store: ArtifactStore::new(&dir),
            dir,
            variants: 0,
            bytes: 0,
            blocks: 0,
            threads: 0,
            warp_insts: 0.0,
            run_us: 0.0,
        }
    }

    /// Export `compiled`'s plan, store it and load it back.
    pub fn round_trip(&mut self, tracer: &mut Tracer, compiled: &CompiledProgram) {
        let plan = span(tracer, "plan", "plan.export", None, || {
            compiled.export_plan()
        });
        let key = compiled.artifact_key();
        let (lo, hi) = compiled.axis_range();
        let segments = compiled.segment_labels().len();
        span(tracer, "artifact", "artifact.store", None, || {
            self.store
                .store_plan(key, &plan)
                .expect("scratch store writes")
        });
        span(tracer, "artifact", "artifact.load", None, || {
            self.store
                .load_plan(key, segments, lo, hi)
                .expect("scratch store reads back")
        });
        self.variants += plan.variant_count();
        self.bytes += plan.byte_size();
    }

    /// Run `launch` inside a `runtime.run_opts` span, tally its kernels and
    /// time the model's estimate of each; returns the report and the
    /// launch's wall time (µs).
    pub fn launch(
        &mut self,
        tracer: &mut Tracer,
        device: &DeviceSpec,
        req: Option<u64>,
        launch: impl FnOnce() -> streamir::error::Result<ExecutionReport>,
    ) -> (streamir::error::Result<ExecutionReport>, f64) {
        let t = Instant::now();
        let rep = span(tracer, "runtime", "runtime.run_opts", req, launch);
        let wall_us = t.elapsed().as_secs_f64() * 1e6;
        self.run_us += wall_us;
        if let Ok(rep) = &rep {
            for k in &rep.kernels {
                let executed = u64::from(k.stats.executed_blocks);
                self.blocks += executed;
                self.threads += executed * u64::from(k.stats.config.block_dim);
                let c = &k.stats.totals;
                self.warp_insts +=
                    c.warp_load_insts + c.warp_store_insts + c.warp_compute_insts + c.shared_insts;
                span(tracer, "perfmodel", "perfmodel.estimate", req, || {
                    perfmodel::estimate_stats(device, &k.stats)
                });
            }
        }
        (rep, wall_us)
    }

    /// Counters of everything replayed: `plan.variants`, `artifact.bytes`,
    /// `runtime.executed_blocks`, `runtime.ns_per_thread` (launch wall time
    /// per executed thread) and `gpusim.warp_insts`.
    pub fn metrics(&self) -> [Metric; 5] {
        [
            Metric::total(
                "plan.variants",
                "count",
                Better::Lower,
                self.variants as f64,
            ),
            Metric::total("artifact.bytes", "bytes", Better::Lower, self.bytes as f64),
            Metric::total(
                "runtime.executed_blocks",
                "count",
                Better::Lower,
                self.blocks as f64,
            ),
            Metric::total(
                "runtime.ns_per_thread",
                "ns",
                Better::Lower,
                self.run_us * 1e3 / self.threads.max(1) as f64,
            ),
            Metric::total("gpusim.warp_insts", "count", Better::Lower, self.warp_insts),
        ]
    }
}

impl Drop for Replayer {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
