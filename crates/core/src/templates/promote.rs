//! Block-level scalar promotion of state loads, shared by the map and
//! reduction templates.
//!
//! Uniform state reads — scale factors, `gamma[0]`, rotation
//! coefficients — hit global memory once per block instead of once per
//! unit, like the constant cache of a real GPU. The first
//! [`PROMOTION_CAP`] distinct `(slot, index)` keys a block loads are
//! promoted; later loads of a promoted key cost no access. Past the cap
//! every further miss is a counted load, so array-indexed state stays
//! honestly counted.
//!
//! Which keys get promoted depends on probe order: the warp backend
//! probes op-major (lockstep warps touch memory one instruction at a
//! time — the order real hardware would populate its constant cache in),
//! while the scalar backends probe tid-major (each thread runs to
//! completion). Load counters can therefore differ between backends on
//! blocks whose two orders meet new keys in a different sequence once
//! the cap is reached; outputs never do, and stats stay bit-identical
//! whenever both orders promote the same keys.

use std::cell::RefCell;

use gpu_sim::{BlockCtx, BufId};

use crate::warp::{for_lanes, MAX_LANES};

/// Maximum distinct `(slot, index)` keys promoted per block.
pub(crate) const PROMOTION_CAP: usize = 64;

/// One block's promoted state values, direct-indexed by `(slot, index)`.
#[derive(Debug, Default)]
pub(crate) struct StatePromotion {
    /// `index[slot][idx]` is `entry + 1` for a promoted key, 0 otherwise.
    /// Grown on insert, never beyond the state buffer's length.
    index: Vec<Vec<u8>>,
    /// Promoted keys in insertion order, so a reset clears only them.
    keys: Vec<(usize, usize)>,
    /// Promoted values, parallel to `keys`.
    vals: Vec<f32>,
}

thread_local! {
    /// One table per engine worker thread, reused block after block.
    static TABLE: RefCell<StatePromotion> = RefCell::new(StatePromotion::default());
}

impl StatePromotion {
    /// Run one block's body with this thread's table, emptied first.
    pub(crate) fn with_block<R>(f: impl FnOnce(&mut StatePromotion) -> R) -> R {
        TABLE.with(|t| {
            let mut table = t.borrow_mut();
            table.reset();
            f(&mut table)
        })
    }

    fn reset(&mut self) {
        for (slot, idx) in self.keys.drain(..) {
            self.index[slot][idx] = 0;
        }
        self.vals.clear();
    }

    #[inline]
    fn lookup(&self, slot: u32, idx: i64) -> Option<usize> {
        let entry = *self
            .index
            .get(slot as usize)?
            .get(usize::try_from(idx).ok()?)?;
        (entry != 0).then(|| entry as usize - 1)
    }

    /// Promote `(slot, idx)` (the caller checked the cap and that `idx`
    /// lies inside the buffer).
    fn insert(&mut self, slot: u32, idx: usize, v: f32) {
        let slot = slot as usize;
        if self.index.len() <= slot {
            self.index.resize_with(slot + 1, Vec::new);
        }
        let ix = &mut self.index[slot];
        if ix.len() <= idx {
            ix.resize(idx + 1, 0);
        }
        self.vals.push(v);
        ix[idx] = self.vals.len() as u8;
        self.keys.push((slot, idx));
    }

    /// One thread's load of `buf[idx]` (state `slot`, access site `site`).
    pub(crate) fn load(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        site: u32,
        tid: u32,
        slot: u32,
        buf: BufId,
        idx: i64,
    ) -> f32 {
        if let Some(k) = self.lookup(slot, idx) {
            return self.vals[k];
        }
        let v = ctx.ld_global(site, tid, buf, idx as usize);
        if self.vals.len() < PROMOTION_CAP {
            self.insert(slot, idx as usize, v);
        }
        v
    }

    /// One warp row of loads, `buf[idx[l]]` into `out[l]` for the set
    /// lanes of `mask`. Lanes are probed in ascending order, so a lane
    /// hits an entry an earlier lane of the same row promoted, exactly as
    /// per-lane [`Self::load`] calls would. The row's misses reach memory
    /// as one `ld_global_row` (`None` for the lanes that hit), which the
    /// accounting engine defines as equal to per-lane loads in ascending
    /// lane order, so the counters match the per-lane form.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn load_row(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        site: u32,
        warp: u32,
        slot: u32,
        buf: BufId,
        mask: u64,
        idx: &[i64],
        out: &mut [f32],
    ) {
        let lanes = out.len();
        let len = ctx.buf_len(buf) as i64;
        let first_new = self.vals.len();
        let mut addrs = [None; MAX_LANES];
        // Entries this row promotes are filled from their missing lane's
        // load; lanes hitting them copy after the load.
        let mut filled_by = [0usize; MAX_LANES];
        let mut copy_from = [0usize; MAX_LANES];
        let mut late_hits = 0u64;
        let mut misses = 0u64;
        for_lanes(mask, lanes, |l| {
            let i = idx[l];
            match self.lookup(slot, i) {
                Some(k) if k < first_new => out[l] = self.vals[k],
                Some(k) => {
                    copy_from[l] = k;
                    late_hits |= 1 << l;
                }
                None => {
                    addrs[l] = Some(i as u64);
                    misses |= 1 << l;
                    if self.vals.len() < PROMOTION_CAP && (0..len).contains(&i) {
                        filled_by[self.vals.len() - first_new] = l;
                        self.insert(slot, i as usize, 0.0);
                    }
                }
            }
        });
        if misses == 0 {
            return;
        }
        let ws = ctx.warp_size() as usize;
        ctx.ld_global_row(site, warp, buf, &addrs[..ws], out);
        for k in first_new..self.vals.len() {
            self.vals[k] = out[filled_by[k - first_new]];
        }
        for_lanes(late_hits, lanes, |l| out[l] = self.vals[copy_from[l]]);
    }
}

#[cfg(test)]
mod tests {
    use gpu_sim::{launch_with_policy, DeviceSpec, ExecMode, ExecPolicy, GlobalMem, Kernel};
    use streamir::graph::bindings;
    use streamir::ir::Stmt;
    use streamir::parse::parse_program;

    use super::PROMOTION_CAP;
    use crate::analysis::reduction::CombineOp;
    use crate::layout::Layout;
    use crate::runtime::EvalBackend;
    use crate::templates::reduction::ReduceExec;
    use crate::templates::{MapKernel, ReduceSpec, SingleKernelReduce};

    /// `s[i / 2]` reads: lanes `2k` and `2k + 1` share index `k`, so one
    /// warp row of 32 lanes promotes 16 keys. With `g[0]` taking one
    /// entry, the cap is reached at `s[62]` — lanes 28–29 of the block's
    /// fourth warp — and `s[63]` (lanes 30–31) misses twice in the same
    /// row.
    const SRC: &str = r#"pipeline P(N) {
        actor A(pop N, push N) {
            state s[N];
            state g[1];
            for i in 0..N { push(pop() * s[i / 2] + g[0]); }
        }
    }"#;

    /// More units than one block's promotion cap covers, and a ragged
    /// final warp (`UNITS % 32 != 0`).
    const UNITS: usize = 150;

    fn inputs() -> (Vec<f32>, Vec<f32>) {
        let input = (0..UNITS).map(|i| (i * 7 % 13) as f32 - 6.0).collect();
        let s = (0..UNITS).map(|i| (i % 17) as f32 * 0.25).collect();
        (input, s)
    }

    fn expected() -> Vec<f32> {
        let (input, s) = inputs();
        (0..UNITS).map(|i| input[i] * s[i / 2] + 1.5).collect()
    }

    /// Launch one kernel under every evaluator × engine and assert that
    /// all six produce bit-identical output and statistics; returns the
    /// output.
    fn assert_engines_agree<K: Kernel + Sync>(
        out_len: usize,
        build: impl Fn(&mut GlobalMem, EvalBackend) -> (K, gpu_sim::BufId),
    ) -> Vec<f32> {
        let device = DeviceSpec::tesla_c2050();
        let mut base = None;
        for backend in [EvalBackend::Warp, EvalBackend::Scalar, EvalBackend::Ast] {
            for policy in [ExecPolicy::Serial, ExecPolicy::Parallel(4)] {
                let mut mem = GlobalMem::new();
                let (kernel, out_buf) = build(&mut mem, backend);
                let stats = launch_with_policy(&device, &mut mem, &kernel, ExecMode::Full, policy);
                let out = mem.read(out_buf)[..out_len].to_vec();
                let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                let (want_bits, want_stats, _) =
                    base.get_or_insert_with(|| (bits.clone(), stats.clone(), out.clone()));
                assert_eq!(&bits, want_bits, "{backend:?} {policy:?}: output");
                assert_eq!(&stats, want_stats, "{backend:?} {policy:?}: stats");
            }
        }
        base.expect("six launches ran").2
    }

    #[test]
    fn map_promotion_cap_is_engine_independent() {
        // Block 0 (units 0..128) meets 64 `s` keys plus `g[0]`.
        const { assert!(128 / 2 + 1 > PROMOTION_CAP) };
        let program = parse_program(SRC).unwrap();
        let Stmt::For { body, .. } = &program.actors[0].work.body[0] else {
            panic!("loop body");
        };
        let out = assert_engines_agree(UNITS, |mem, backend| {
            let (input, s) = inputs();
            let in_buf = mem.alloc_from(&input);
            let out_buf = mem.alloc(UNITS);
            let s_buf = mem.alloc_from(&s);
            let g_buf = mem.alloc_from(&[1.5]);
            let mut k = MapKernel::new(
                "promote_map",
                body.clone(),
                bindings(&[("N", UNITS as i64)]),
                Some("i".into()),
                UNITS,
                1,
                1,
                in_buf,
                out_buf,
            )
            .with_block_dim(128)
            .with_state("s", s_buf)
            .with_state("g", g_buf);
            k.backend = backend;
            (k, out_buf)
        });
        assert_eq!(out, expected());
    }

    #[test]
    fn reduction_promotion_cap_is_engine_independent() {
        // One array per block and one element per thread, so tid-major
        // (scalar) and op-major (warp) probing meet new keys in the same
        // order and stats must agree bit for bit.
        let program = parse_program(SRC).unwrap();
        let Stmt::For { body, .. } = &program.actors[0].work.body[0] else {
            panic!("loop body");
        };
        let Stmt::Push(elem) = &body[0] else {
            panic!("element expression");
        };
        let arrays = 3;
        let sums = assert_engines_agree(arrays, |mem, backend| {
            let (input, s) = inputs();
            let data: Vec<f32> = (0..arrays).flat_map(|_| input.iter().copied()).collect();
            let in_buf = mem.alloc_from(&data);
            let out_buf = mem.alloc(arrays);
            let s_buf = mem.alloc_from(&s);
            let g_buf = mem.alloc_from(&[1.5]);
            let mut exec = ReduceExec::default();
            exec.backend = backend;
            let spec = ReduceSpec {
                op: CombineOp::Add,
                init: 0.0,
                elem: elem.clone(),
                loop_var: "i".into(),
                pops_per_elem: 1,
                acc_name: "acc".into(),
                post: None,
                binds: bindings(&[("N", UNITS as i64)]),
                state: vec![("s".into(), s_buf), ("g".into(), g_buf)],
                exec,
            };
            let k = SingleKernelReduce {
                spec,
                name: "promote_reduce".into(),
                n_arrays: arrays,
                n_elements: UNITS,
                arrays_per_block: 1,
                block_dim: 256,
                in_buf,
                in_layout: Layout::RowMajor,
                out_buf,
                apply_post: true,
                out_stride: 1,
                out_offset: 0,
            };
            (k, out_buf)
        });
        let want: f32 = expected().iter().sum();
        for v in sums {
            assert!(
                (v - want).abs() <= 1e-3 * want.abs().max(1.0),
                "{v} vs {want}"
            );
        }
    }
}
