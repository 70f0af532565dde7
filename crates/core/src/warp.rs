//! Warp-batched SIMT execution of compiled bytecode.
//!
//! The scalar evaluator in [`crate::bytecode`] dispatches every opcode
//! once *per thread per firing*; after PR 3 that dispatch loop became the
//! dominant cost of figure-scale sweeps. Real GPU hardware does not pay
//! it: a warp fetches one instruction and applies it to 32 lanes in
//! lockstep. This module reproduces that shape in software:
//!
//! * **Typed SoA warp frames.** A [`WarpFrame`] holds one *row* per
//!   register slot and per operand-stack depth — `lanes` consecutive
//!   lane values — so each opcode executes once and loops over the
//!   lanes. Every row carries one [`RowTy`]: `F32`, `I64` and `Bool`
//!   rows keep their lanes untagged in a slab of that primitive type,
//!   so an opcode matches the row types once and then runs a tight
//!   primitive loop. Only `Mixed` rows (lanes of differing variants,
//!   which arise from divergent stores or a `select` over differently
//!   typed arms) keep tagged [`Value`]s and take the per-lane
//!   `bin`/`call` path. The operand stack is a preallocated slab
//!   (`max_stack × lanes`); pushes and pops are pointer bumps, never
//!   `Vec` traffic.
//!
//! * **Predicate masks + a reconvergence worklist.** Divergence
//!   (per-lane branches, uneven loop trip counts) is handled by
//!   splitting the active mask: the taken lanes continue, the others are
//!   *parked* as a `(pc, mask)` fragment. The scheduler always runs the
//!   fragment with the smallest program counter and merges fragments
//!   that meet at the same pc, which for the structured control flow the
//!   compiler emits (forward `if`/`else` joins, backward loop edges) is
//!   exactly immediate-post-dominator reconvergence. The compiler emits
//!   every branch opcode at operand-stack depth 0 (statements have net
//!   zero stack effect and `JumpIfFalse` pops its own condition), so one
//!   shared SoA stack serves all fragments; the scheduler asserts the
//!   stack is empty at every suspend and merge point.
//!
//! * **Masked side effects.** Only *active* lanes ever fault or touch
//!   I/O: inactive lanes may hold garbage whose evaluation could fault
//!   (integer division by zero, boolean coercion of a float), exactly as
//!   inactive hardware lanes are predicated off. Typed arithmetic that
//!   cannot fault runs over every lane of the row (dead lanes compute
//!   garbage nobody reads); slot writes, faulting operators and I/O are
//!   masked.
//!
//! Per-lane semantics are *identical* to the scalar evaluator — wrapping
//! `i64` arithmetic, `i64`→`f32` promotion of mixed numeric operands,
//! non-short-circuit `&&`/`||`, variant-preserving `select` — because
//! the typed loops apply the same primitive expressions `bin`/`call`
//! apply, and anything else falls back to those shared kernels. Each
//! lane executes its own control path in program order, so the
//! per-thread access sequences observed by `gpu_sim::accounting` are
//! unchanged; only cross-lane interleaving differs, which the streaming
//! engine's counters are invariant to. The scalar interpreter and the
//! AST walker remain behind [`crate::runtime::EvalBackend`] as
//! differential oracles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use streamir::ir::{BinOp, Intrinsic};
use streamir::value::Value;

use crate::bytecode::{as_f32, as_i64, bin, call, Op, Program};

/// Maximum lanes per warp frame (mask width).
pub const MAX_LANES: usize = 64;

/// All-resident mask for a `lanes`-wide warp.
#[inline]
pub fn full_mask(lanes: usize) -> u64 {
    debug_assert!(0 < lanes && lanes <= MAX_LANES);
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Iterate the set lanes of `mask`, fast-pathing the full mask.
#[inline]
pub fn for_lanes(mask: u64, lanes: usize, mut f: impl FnMut(usize)) {
    if mask == full_mask(lanes) {
        for l in 0..lanes {
            f(l);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            f(l);
        }
    }
}

/// Warp-wide I/O hooks: the row-granular counterpart of
/// [`crate::exec_ir::IrIo`]. Each method serves one opcode for every set
/// lane of `mask` at once, letting implementations batch whole lane-rows
/// into `gpu_sim` (one accounting call per warp instruction instead of
/// one per lane). Rows are typed and `lanes` wide: stream words and
/// state values are `f32`, peek offsets and state indices `i64` (the
/// evaluator applies the scalar path's coercions before the call).
/// Lane indices are warp-relative; implementations map them to
/// threads/units themselves. Lanes outside `mask` must be left alone.
pub trait WarpIo {
    /// One `pop()` per set lane, into `out[lane]`.
    fn pop_row(&mut self, mask: u64, out: &mut [f32]);
    /// One `peek(offsets[lane])` per set lane, into `out[lane]`.
    fn peek_row(&mut self, mask: u64, offsets: &[i64], out: &mut [f32]);
    /// One `push(vals[lane])` per set lane.
    fn push_row(&mut self, mask: u64, vals: &[f32]);
    /// One load of `array[idx[lane]]` per set lane, into `out[lane]`.
    fn state_load_row(&mut self, id: u16, array: &str, mask: u64, idx: &[i64], out: &mut [f32]);
    /// One store `array[idx[lane]] = vals[lane]` per set lane.
    fn state_store_row(&mut self, id: u16, array: &str, mask: u64, idx: &[i64], vals: &[f32]);
}

/// The variant held by the lanes of one [`WarpFrame`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowTy {
    /// Every lane is a `Value::F32`, stored untagged.
    #[default]
    F32,
    /// Every lane is a `Value::I64`, stored untagged.
    I64,
    /// Every lane is a `Value::Bool`, stored untagged.
    Bool,
    /// Lanes differ; each keeps its tagged [`Value`].
    Mixed,
}

impl RowTy {
    #[inline]
    fn of(v: Value) -> RowTy {
        match v {
            Value::F32(_) => RowTy::F32,
            Value::I64(_) => RowTy::I64,
            Value::Bool(_) => RowTy::Bool,
        }
    }
}

/// A reusable warp-wide evaluation frame: typed SoA rows for the slots
/// (rows `0..n_slots`) followed by the operand stack, all `lanes` wide.
/// Obtained from a [`WarpFramePool`]; reset per warp of firings by
/// broadcasting the launch's bound slot prototype across every lane.
///
/// Row `r` occupies lanes `r * lanes..(r + 1) * lanes` of the slab its
/// [`RowTy`] selects; that row's lanes in the other slabs are dead.
/// Lanes that are not resident in the current evaluation (outside its
/// initial mask) are dead in every row.
#[derive(Debug, Default)]
pub struct WarpFrame {
    lanes: usize,
    n_slots: usize,
    ty: Vec<RowTy>,
    f: Vec<f32>,
    i: Vec<i64>,
    b: Vec<bool>,
    v: Vec<Value>,
    /// Operand-stack depth in rows.
    sp: usize,
}

/// `s[dst + l] = s[src + l]` for the set lanes of `mask`, or for every
/// lane when `all`.
#[inline]
fn copy_lanes<T: Copy>(s: &mut [T], dst: usize, src: usize, lanes: usize, mask: u64, all: bool) {
    if all {
        s.copy_within(src..src + lanes, dst);
    } else {
        for_lanes(mask, lanes, |l| s[dst + l] = s[src + l]);
    }
}

/// `x[l] = f(x[l])` for every lane.
#[inline(always)]
fn map_lanes<T: Copy>(x: &mut [T], f: impl Fn(T) -> T) {
    for x in x.iter_mut() {
        *x = f(*x);
    }
}

/// `x[l] = f(x[l], y[l])` for every lane.
#[inline(always)]
fn zip_lanes<T: Copy>(x: &mut [T], y: &[T], f: impl Fn(T, T) -> T) {
    for (x, y) in x.iter_mut().zip(y) {
        *x = f(*x, *y);
    }
}

/// `out[l] = x[l] op y[l]` for every lane, `op` a comparison.
#[inline(always)]
fn compare<T: Copy + PartialOrd>(op: BinOp, x: &[T], y: &[T], out: &mut [bool]) {
    macro_rules! cmp {
        ($w:expr) => {
            for ((o, x), y) in out.iter_mut().zip(x).zip(y) {
                *o = $w(x, y);
            }
        };
    }
    match op {
        BinOp::Lt => cmp!(T::lt),
        BinOp::Le => cmp!(T::le),
        BinOp::Gt => cmp!(T::gt),
        BinOp::Ge => cmp!(T::ge),
        BinOp::Eq => cmp!(T::eq),
        BinOp::Ne => cmp!(T::ne),
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

/// `s[dst + l] = if cond bit l { s[x + l] } else { s[y + l] }` for every
/// lane.
#[inline]
fn select_lanes<T: Copy>(s: &mut [T], dst: usize, x: usize, y: usize, lanes: usize, cond: u64) {
    for l in 0..lanes {
        s[dst + l] = if cond >> l & 1 != 0 {
            s[x + l]
        } else {
            s[y + l]
        };
    }
}

impl WarpFrame {
    /// Size the frame for `prog` at `lanes` lanes so evaluation never
    /// reallocates. Must precede [`WarpFrame::reset`].
    pub fn fit(&mut self, prog: &Program, lanes: usize) {
        assert!(0 < lanes && lanes <= MAX_LANES, "warp width {lanes}");
        self.lanes = lanes;
        self.n_slots = prog.n_slots();
        let rows = prog.n_slots() + prog.max_stack();
        self.ty.clear();
        self.ty.resize(rows, RowTy::F32);
        self.f.clear();
        self.f.resize(rows * lanes, 0.0);
        self.i.clear();
        self.i.resize(rows * lanes, 0);
        self.b.clear();
        self.b.resize(rows * lanes, false);
        self.v.clear();
        self.v.resize(rows * lanes, Value::F32(0.0));
        self.sp = 0;
    }

    /// Prepare for one warp of firings: every lane's slots become a copy
    /// of `proto`, the operand stack empties.
    pub fn reset(&mut self, proto: &[Value]) {
        debug_assert_eq!(proto.len(), self.n_slots, "fit() before reset()");
        let lanes = self.lanes;
        for (s, v) in proto.iter().enumerate() {
            let rg = s * lanes..(s + 1) * lanes;
            self.ty[s] = RowTy::of(*v);
            match *v {
                Value::F32(x) => self.f[rg].fill(x),
                Value::I64(x) => self.i[rg].fill(x),
                Value::Bool(x) => self.b[rg].fill(x),
            }
        }
        self.sp = 0;
    }

    /// Lane count this frame was fitted for.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Preset one slot row (loop variable, accumulator): lane `l` becomes
    /// `val(l)` for every set lane of `mask`. Lanes outside `mask` are
    /// left unspecified, so evaluate with masks inside `mask` only.
    pub fn set_row(&mut self, slot: u16, mask: u64, mut val: impl FnMut(usize) -> Value) {
        let mut vals = [Value::F32(0.0); MAX_LANES];
        for_lanes(mask, self.lanes, |l| vals[l] = val(l));
        self.put(slot as usize, mask, &vals);
    }

    /// Read one lane of a slot back.
    #[inline]
    pub fn get_lane(&self, slot: u16, lane: usize) -> Value {
        self.get(slot as usize, lane)
    }

    #[inline]
    fn get(&self, r: usize, l: usize) -> Value {
        let k = r * self.lanes + l;
        match self.ty[r] {
            RowTy::F32 => Value::F32(self.f[k]),
            RowTy::I64 => Value::I64(self.i[k]),
            RowTy::Bool => Value::Bool(self.b[k]),
            RowTy::Mixed => self.v[k],
        }
    }

    /// Re-store row `r` as tagged values (every lane keeps its value).
    fn make_mixed(&mut self, r: usize) {
        if self.ty[r] != RowTy::Mixed {
            for l in 0..self.lanes {
                self.v[r * self.lanes + l] = self.get(r, l);
            }
            self.ty[r] = RowTy::Mixed;
        }
    }

    /// Write `vals[l]` into row `r` for the set lanes of `mask`, typing
    /// the row by their common variant (`Mixed` if they differ). Lanes
    /// outside `mask` become dead.
    fn put(&mut self, r: usize, mask: u64, vals: &[Value; MAX_LANES]) {
        if mask == 0 {
            return;
        }
        let t = RowTy::of(vals[mask.trailing_zeros() as usize]);
        let mut uniform = true;
        for_lanes(mask, self.lanes, |l| uniform &= RowTy::of(vals[l]) == t);
        let base = r * self.lanes;
        let t = if uniform { t } else { RowTy::Mixed };
        self.ty[r] = t;
        for_lanes(mask, self.lanes, |l| match (t, vals[l]) {
            (RowTy::F32, Value::F32(x)) => self.f[base + l] = x,
            (RowTy::I64, Value::I64(x)) => self.i[base + l] = x,
            (RowTy::Bool, Value::Bool(x)) => self.b[base + l] = x,
            (_, v) => self.v[base + l] = v,
        });
    }

    /// Write `vals[l]` (an `I64`) into slot row `r` for the set lanes of
    /// `mask`, keeping every other lane. `covering` says the other lanes
    /// are dead, so the row may simply become `I64`.
    fn put_i64(&mut self, r: usize, mask: u64, covering: bool, vals: &[i64; MAX_LANES]) {
        let base = r * self.lanes;
        if covering || self.ty[r] == RowTy::I64 {
            self.ty[r] = RowTy::I64;
            for_lanes(mask, self.lanes, |l| self.i[base + l] = vals[l]);
        } else {
            self.make_mixed(r);
            for_lanes(mask, self.lanes, |l| self.v[base + l] = Value::I64(vals[l]));
        }
    }

    /// Copy row `src` into row `dst` on the set lanes of `mask`, keeping
    /// `dst`'s other lanes unless `covering` says they are dead.
    fn copy_row(&mut self, dst: usize, src: usize, mask: u64, covering: bool) {
        let lanes = self.lanes;
        let t = self.ty[src];
        if !covering && self.ty[dst] != t {
            self.make_mixed(dst);
            for_lanes(mask, lanes, |l| self.v[dst * lanes + l] = self.get(src, l));
            return;
        }
        self.ty[dst] = t;
        let (d, s) = (dst * lanes, src * lanes);
        match t {
            RowTy::F32 => copy_lanes(&mut self.f, d, s, lanes, mask, covering),
            RowTy::I64 => copy_lanes(&mut self.i, d, s, lanes, mask, covering),
            RowTy::Bool => copy_lanes(&mut self.b, d, s, lanes, mask, covering),
            RowTy::Mixed => copy_lanes(&mut self.v, d, s, lanes, mask, covering),
        }
    }

    /// Row `r`'s active lanes as `i64` (`as_i64`: floats truncate,
    /// booleans fault). Typed rows convert every lane.
    fn ints(&self, r: usize, mask: u64, out: &mut [i64; MAX_LANES]) {
        let (lanes, base) = (self.lanes, r * self.lanes);
        match self.ty[r] {
            RowTy::I64 => out[..lanes].copy_from_slice(&self.i[base..base + lanes]),
            RowTy::F32 => {
                for (o, x) in out.iter_mut().zip(&self.f[base..base + lanes]) {
                    *o = *x as i64;
                }
            }
            RowTy::Bool | RowTy::Mixed => {
                for_lanes(mask, lanes, |l| out[l] = as_i64(self.get(r, l)))
            }
        }
    }

    /// Row `r`'s active lanes as `f32` (`as_f32`: integers convert,
    /// booleans fault). Typed rows convert every lane.
    fn floats(&self, r: usize, mask: u64, out: &mut [f32]) {
        let (lanes, base) = (self.lanes, r * self.lanes);
        match self.ty[r] {
            RowTy::F32 => out[..lanes].copy_from_slice(&self.f[base..base + lanes]),
            RowTy::I64 => {
                for (o, x) in out.iter_mut().zip(&self.i[base..base + lanes]) {
                    *o = *x as f32;
                }
            }
            RowTy::Bool | RowTy::Mixed => {
                for_lanes(mask, lanes, |l| out[l] = as_f32(self.get(r, l)))
            }
        }
    }

    /// Bitmask of the active lanes of row `r` that are truthy
    /// (`Value::as_bool`).
    fn truths(&self, r: usize, mask: u64) -> u64 {
        let (lanes, base) = (self.lanes, r * self.lanes);
        let mut bits = 0u64;
        match self.ty[r] {
            RowTy::F32 => {
                for (l, x) in self.f[base..base + lanes].iter().enumerate() {
                    bits |= ((*x != 0.0) as u64) << l;
                }
            }
            RowTy::I64 => {
                for (l, x) in self.i[base..base + lanes].iter().enumerate() {
                    bits |= ((*x != 0) as u64) << l;
                }
            }
            RowTy::Bool => {
                for (l, x) in self.b[base..base + lanes].iter().enumerate() {
                    bits |= (*x as u64) << l;
                }
            }
            RowTy::Mixed => for_lanes(mask, lanes, |l| {
                bits |= (self.get(r, l).as_bool() as u64) << l
            }),
        }
        bits & mask
    }

    /// Make row `r` a `Bool` row holding bit `l` of `bits` in lane `l`.
    fn set_bools(&mut self, r: usize, bits: u64) {
        let base = r * self.lanes;
        self.ty[r] = RowTy::Bool;
        for (l, x) in self.b[base..base + self.lanes].iter_mut().enumerate() {
            *x = bits >> l & 1 != 0;
        }
    }

    /// Promote an `I64` row to `F32` in place (the `i64 as f32` coercion
    /// `bin`/`call` apply to numeric operands).
    fn promote_f32(&mut self, r: usize) {
        if self.ty[r] == RowTy::I64 {
            let rg = r * self.lanes..(r + 1) * self.lanes;
            for (o, x) in self.f[rg.clone()].iter_mut().zip(&self.i[rg]) {
                *o = *x as f32;
            }
            self.ty[r] = RowTy::F32;
        }
    }

    /// Push a stack row of type `t` (contents unspecified); returns its
    /// row index.
    #[inline]
    fn push(&mut self, t: RowTy) -> usize {
        let r = self.n_slots + self.sp;
        self.sp += 1;
        self.ty[r] = t;
        r
    }

    /// Pop the top stack row; its contents stay valid until the next push.
    #[inline]
    fn pop(&mut self) -> usize {
        self.sp -= 1;
        self.n_slots + self.sp
    }

    #[inline]
    fn top(&self) -> usize {
        self.n_slots + self.sp - 1
    }

    /// `Op::Bin` on stack rows `a` (lhs, receives the result) and `a + 1`.
    fn bin_rows(&mut self, op: BinOp, mask: u64, a: usize) {
        let b = a + 1;
        let lanes = self.lanes;
        let (ba, bb) = (a * lanes, b * lanes);
        if matches!(op, BinOp::And | BinOp::Or) {
            let (x, y) = (self.truths(a, mask), self.truths(b, mask));
            self.set_bools(a, if op == BinOp::And { x & y } else { x | y });
            return;
        }
        match (self.ty[a], self.ty[b]) {
            _ if matches!(op, BinOp::Add | BinOp::Mul) && (self.has_nan(a) || self.has_nan(b)) => {
                self.bin_lanes(op, mask, a)
            }
            (RowTy::I64, RowTy::I64) => {
                let (lo, hi) = self.i.split_at_mut(bb);
                let (x, y) = (&mut lo[ba..ba + lanes], &hi[..lanes]);
                match op {
                    BinOp::Add => zip_lanes(x, y, i64::wrapping_add),
                    BinOp::Sub => zip_lanes(x, y, i64::wrapping_sub),
                    BinOp::Mul => zip_lanes(x, y, i64::wrapping_mul),
                    BinOp::Div => for_lanes(mask, lanes, |l| {
                        assert!(y[l] != 0, "validated body: integer division by zero");
                        x[l] = x[l].wrapping_div(y[l]);
                    }),
                    BinOp::Rem => for_lanes(mask, lanes, |l| {
                        assert!(y[l] != 0, "validated body: integer remainder by zero");
                        x[l] = x[l].wrapping_rem(y[l]);
                    }),
                    _ => {
                        compare(op, x, y, &mut self.b[ba..ba + lanes]);
                        self.ty[a] = RowTy::Bool;
                    }
                }
            }
            (RowTy::F32 | RowTy::I64, RowTy::F32 | RowTy::I64) => {
                self.promote_f32(a);
                self.promote_f32(b);
                let (lo, hi) = self.f.split_at_mut(bb);
                let (x, y) = (&mut lo[ba..ba + lanes], &hi[..lanes]);
                match op {
                    BinOp::Add => zip_lanes(x, y, |x, y| x + y),
                    BinOp::Sub => zip_lanes(x, y, |x, y| x - y),
                    BinOp::Mul => zip_lanes(x, y, |x, y| x * y),
                    BinOp::Div => zip_lanes(x, y, |x, y| x / y),
                    BinOp::Rem => zip_lanes(x, y, |x, y| x % y),
                    _ => {
                        compare(op, x, y, &mut self.b[ba..ba + lanes]);
                        self.ty[a] = RowTy::Bool;
                    }
                }
            }
            _ => self.bin_lanes(op, mask, a),
        }
    }

    /// `Op::Bin` lane by lane through the scalar kernel.
    fn bin_lanes(&mut self, op: BinOp, mask: u64, a: usize) {
        let mut out = [Value::F32(0.0); MAX_LANES];
        for_lanes(mask, self.lanes, |l| {
            out[l] = bin(op, self.get(a, l), self.get(a + 1, l))
        });
        self.put(a, mask, &out);
    }

    /// Whether row `r` is an `F32` row with a NaN in any lane.
    ///
    /// Which NaN payload `+` or `*` returns for two NaN operands depends
    /// on the operand order the compiler picks, and vectorized lane loops
    /// pick it differently from scalar code. Rows holding a NaN therefore
    /// take the per-lane path, which keeps the scalar evaluator's order
    /// and so its bits (`nan_payloads_match_scalar` pins this, `max` and
    /// `min` included).
    fn has_nan(&self, r: usize) -> bool {
        self.ty[r] == RowTy::F32
            && self.f[r * self.lanes..(r + 1) * self.lanes]
                .iter()
                .any(|x| x.is_nan())
    }

    /// `Op::Call` on the `intr.arity()` stack rows starting at `r`, which
    /// receives the result.
    fn call_rows(&mut self, intr: Intrinsic, mask: u64, r: usize) {
        let n = intr.arity();
        let lanes = self.lanes;
        let base = r * lanes;
        if intr == Intrinsic::Select {
            let cond = self.truths(r, mask);
            let t = self.ty[r + 1];
            if t == self.ty[r + 2] && t != RowTy::Mixed {
                let (x, y) = (base + lanes, base + 2 * lanes);
                self.ty[r] = t;
                match t {
                    RowTy::F32 => select_lanes(&mut self.f, base, x, y, lanes, cond),
                    RowTy::I64 => select_lanes(&mut self.i, base, x, y, lanes, cond),
                    RowTy::Bool => select_lanes(&mut self.b, base, x, y, lanes, cond),
                    RowTy::Mixed => unreachable!("checked above"),
                }
                return;
            }
        } else if (r..r + n).all(|a| matches!(self.ty[a], RowTy::F32 | RowTy::I64)) {
            for a in r..r + n {
                self.promote_f32(a);
            }
            let (lo, hi) = self.f.split_at_mut(base + lanes);
            let (x, y) = (&mut lo[base..], &hi[..lanes.min(hi.len())]);
            match intr {
                Intrinsic::Sqrt => map_lanes(x, f32::sqrt),
                Intrinsic::Exp => map_lanes(x, f32::exp),
                Intrinsic::Log => map_lanes(x, f32::ln),
                Intrinsic::Abs => map_lanes(x, f32::abs),
                Intrinsic::Sin => map_lanes(x, f32::sin),
                Intrinsic::Cos => map_lanes(x, f32::cos),
                Intrinsic::Floor => map_lanes(x, f32::floor),
                Intrinsic::Max => zip_lanes(x, y, f32::max),
                Intrinsic::Min => zip_lanes(x, y, f32::min),
                Intrinsic::Pow => zip_lanes(x, y, f32::powf),
                Intrinsic::Select => unreachable!("handled above"),
            }
            return;
        }
        // Booleans where numbers are expected (a fault on an active
        // lane), mixed rows, or a `select` over differently typed arms:
        // per lane, through the scalar kernel.
        let mut out = [Value::F32(0.0); MAX_LANES];
        for_lanes(mask, lanes, |l| {
            let mut args = [Value::F32(0.0); 3];
            for (k, a) in args.iter_mut().enumerate().take(n) {
                *a = self.get(r + k, l);
            }
            out[l] = call(intr, &args[..n]);
        });
        self.put(r, mask, &out);
    }
}

/// A shared pool of [`WarpFrame`]s mirroring [`crate::bytecode::FramePool`]
/// (one frame per block, zero steady-state allocation). Locks recover
/// from poisoning: frame contents are reset before every use, so a
/// panicking worker cannot leave a frame in a state the next taker could
/// observe.
#[derive(Debug, Default)]
pub struct WarpFramePool {
    inner: Mutex<Vec<WarpFrame>>,
    created: AtomicUsize,
    reused: AtomicUsize,
}

impl WarpFramePool {
    /// An empty pool.
    pub fn new() -> WarpFramePool {
        WarpFramePool::default()
    }

    fn lock_inner(&self) -> MutexGuard<'_, Vec<WarpFrame>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a frame (recycled when available).
    pub fn take(&self) -> WarpFrame {
        let recycled = self.lock_inner().pop();
        match recycled {
            Some(f) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                f
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                WarpFrame::default()
            }
        }
    }

    /// Return a frame for reuse.
    pub fn give(&self, frame: WarpFrame) {
        self.lock_inner().push(frame);
    }

    /// Frames allocated fresh over the pool's lifetime.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Takes satisfied by recycling.
    pub fn reused(&self) -> usize {
        self.reused.load(Ordering::Relaxed)
    }

    /// Frames currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.lock_inner().len()
    }
}

/// A suspended divergent fragment: lanes in `mask` are waiting to resume
/// at `pc`.
#[derive(Debug, Clone, Copy)]
struct Frag {
    pc: u32,
    mask: u64,
}

/// Park lanes at `pc`, merging with a fragment already waiting there
/// (lanes of one loop exiting at different iterations accumulate into a
/// single fragment at the exit pc).
#[inline]
fn park(pending: &mut Vec<Frag>, pc: u32, mask: u64) {
    for f in pending.iter_mut() {
        if f.pc == pc {
            f.mask |= mask;
            return;
        }
    }
    pending.push(Frag { pc, mask });
}

/// Remove and return the fragment with the smallest pc.
#[inline]
fn take_min(pending: &mut Vec<Frag>) -> Frag {
    let mut mi = 0;
    for i in 1..pending.len() {
        if pending[i].pc < pending[mi].pc {
            mi = i;
        }
    }
    pending.swap_remove(mi)
}

#[inline]
fn min_pc(pending: &[Frag]) -> u32 {
    pending.iter().map(|f| f.pc).min().unwrap_or(u32::MAX)
}

/// Execute a compiled body warp-wide: one dispatch per opcode, one row
/// type match per dispatch, then a lane loop. `init_mask` selects the
/// resident lanes (a ragged final warp simply passes fewer bits). The
/// frame must have been [`WarpFrame::fit`] for `prog` and
/// [`WarpFrame::reset`] with the bound prototype, preset rows seeded with
/// [`WarpFrame::set_row`].
///
/// Infallible like the scalar evaluator; data-dependent faults panic on
/// the faulting lane just as they would scalar (inactive lanes are never
/// evaluated by a faulting operation, so predicated-off garbage cannot
/// fault).
pub fn eval(prog: &Program, wf: &mut WarpFrame, init_mask: u64, io: &mut dyn WarpIo) {
    let ops = prog.ops();
    let n_ops = ops.len() as u32;
    let lanes = wf.lanes;
    debug_assert!(lanes > 0, "fit() before eval()");
    debug_assert_eq!(init_mask & !full_mask(lanes), 0, "mask exceeds lanes");
    if init_mask == 0 {
        return;
    }
    // A slot write under the resident mask covers every live lane, so
    // the row may change type wholesale.
    let resident = init_mask;
    let mut pc: u32 = 0;
    let mut mask = init_mask;
    // Suspended fragments, at most one per structured-control-flow
    // nesting level — a handful, so linear scans beat any heap.
    let mut pending: Vec<Frag> = Vec::new();
    // min pc over `pending`: the next reconvergence point. One compare
    // per straight-line op.
    let mut next_wait: u32 = u32::MAX;
    let mut ints = [0i64; MAX_LANES];
    let mut ints2 = [0i64; MAX_LANES];
    let mut floats = [0f32; MAX_LANES];
    loop {
        // Fragment scheduling: the running fragment must hold the
        // minimum pc (else divergent partners could starve), and all
        // fragments meeting at one pc merge before executing it.
        while pc >= next_wait {
            debug_assert_eq!(wf.sp, 0, "operand stack empty at fragment switch");
            if pc == next_wait {
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].pc == pc {
                        mask |= pending[i].mask;
                        pending.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            } else {
                park(&mut pending, pc, mask);
                let f = take_min(&mut pending);
                pc = f.pc;
                mask = f.mask;
            }
            next_wait = min_pc(&pending);
        }
        if pc >= n_ops {
            // This fragment's lanes completed the program. Resume the
            // earliest waiter, or finish.
            if pending.is_empty() {
                break;
            }
            debug_assert_eq!(wf.sp, 0, "operand stack empty at fragment retire");
            let f = take_min(&mut pending);
            pc = f.pc;
            mask = f.mask;
            next_wait = min_pc(&pending);
            continue;
        }
        match ops[pc as usize] {
            // Constants broadcast to the whole row: writing inactive
            // lanes is harmless (their values are never read) and a
            // `fill` beats a masked loop.
            Op::ConstF(x) => {
                let r = wf.push(RowTy::F32);
                wf.f[r * lanes..(r + 1) * lanes].fill(x);
            }
            Op::ConstI(x) => {
                let r = wf.push(RowTy::I64);
                wf.i[r * lanes..(r + 1) * lanes].fill(x);
            }
            Op::ConstB(x) => {
                let r = wf.push(RowTy::Bool);
                wf.b[r * lanes..(r + 1) * lanes].fill(x);
            }
            Op::Load(s) => {
                let r = wf.push(RowTy::F32);
                wf.copy_row(r, s as usize, mask, true);
            }
            // Masked: inactive lanes keep their slot values across
            // divergent branches.
            Op::Store(s) => {
                let r = wf.pop();
                wf.copy_row(s as usize, r, mask, mask == resident);
            }
            Op::Pop => {
                let r = wf.push(RowTy::F32);
                io.pop_row(mask, &mut wf.f[r * lanes..(r + 1) * lanes]);
            }
            Op::Peek => {
                let r = wf.top();
                wf.ints(r, mask, &mut ints);
                wf.ty[r] = RowTy::F32;
                io.peek_row(mask, &ints[..lanes], &mut wf.f[r * lanes..(r + 1) * lanes]);
            }
            Op::StateLoad(id) => {
                let r = wf.top();
                wf.ints(r, mask, &mut ints);
                wf.ty[r] = RowTy::F32;
                let out = &mut wf.f[r * lanes..(r + 1) * lanes];
                io.state_load_row(
                    id,
                    &prog.state_names()[id as usize],
                    mask,
                    &ints[..lanes],
                    out,
                );
            }
            Op::StateStore(id) => {
                let rv = wf.pop();
                wf.floats(rv, mask, &mut floats);
                let ri = wf.pop();
                wf.ints(ri, mask, &mut ints);
                let name = &prog.state_names()[id as usize];
                io.state_store_row(id, name, mask, &ints[..lanes], &floats[..lanes]);
            }
            Op::PushOut => {
                let r = wf.pop();
                wf.floats(r, mask, &mut floats);
                io.push_row(mask, &floats[..lanes]);
            }
            Op::Bin(op) => {
                wf.pop();
                let a = wf.top();
                wf.bin_rows(op, mask, a);
            }
            Op::Neg => {
                let r = wf.top();
                let rg = r * lanes..(r + 1) * lanes;
                match wf.ty[r] {
                    RowTy::F32 => map_lanes(&mut wf.f[rg], |x: f32| -x),
                    RowTy::I64 => map_lanes(&mut wf.i[rg], i64::wrapping_neg),
                    RowTy::Bool | RowTy::Mixed => {
                        let mut out = [Value::F32(0.0); MAX_LANES];
                        for_lanes(mask, lanes, |l| {
                            out[l] = match wf.get(r, l) {
                                Value::I64(i) => Value::I64(i.wrapping_neg()),
                                other => Value::F32(-as_f32(other)),
                            };
                        });
                        wf.put(r, mask, &out);
                    }
                }
            }
            Op::Not => {
                let r = wf.top();
                let t = wf.truths(r, mask);
                wf.set_bools(r, !t);
            }
            Op::Call(intr) => {
                wf.sp -= intr.arity() - 1;
                let r = wf.top();
                wf.call_rows(intr, mask, r);
            }
            Op::Jump(t) => {
                pc = t;
                continue;
            }
            Op::JumpIfFalse(t) => {
                let r = wf.pop();
                let false_mask = mask & !wf.truths(r, mask);
                if false_mask == mask {
                    pc = t;
                    continue;
                }
                if false_mask != 0 {
                    debug_assert_eq!(wf.sp, 0, "branch at operand depth 0");
                    park(&mut pending, t, false_mask);
                    next_wait = next_wait.min(t);
                    mask &= !false_mask;
                }
            }
            Op::ForInit { counter, end } => {
                let hi = wf.pop();
                let lo = wf.pop();
                wf.ints(lo, mask, &mut ints);
                wf.ints(hi, mask, &mut ints2);
                wf.put_i64(counter as usize, mask, mask == resident, &ints);
                wf.put_i64(end as usize, mask, mask == resident, &ints2);
            }
            Op::ForTest {
                counter,
                end,
                var,
                exit,
            } => {
                wf.ints(counter as usize, mask, &mut ints);
                wf.ints(end as usize, mask, &mut ints2);
                let mut exit_mask = 0u64;
                for_lanes(mask, lanes, |l| {
                    exit_mask |= ((ints[l] >= ints2[l]) as u64) << l
                });
                let stay = mask & !exit_mask;
                if stay != 0 {
                    wf.put_i64(var as usize, stay, stay == resident, &ints);
                }
                if exit_mask == mask {
                    pc = exit;
                    continue;
                }
                if exit_mask != 0 {
                    debug_assert_eq!(wf.sp, 0, "branch at operand depth 0");
                    park(&mut pending, exit, exit_mask);
                    next_wait = next_wait.min(exit);
                    mask &= !exit_mask;
                }
            }
            Op::ForStep { counter, head } => {
                wf.ints(counter as usize, mask, &mut ints);
                for_lanes(mask, lanes, |l| ints[l] = ints[l].wrapping_add(1));
                wf.put_i64(counter as usize, mask, mask == resident, &ints);
                pc = head;
                continue;
            }
        }
        pc += 1;
    }
}

/// Execute a compiled *expression* warp-wide and write each active
/// lane's `f32` result into `out[lane]` (other lanes of `out` are
/// unspecified afterwards).
pub fn eval_row(
    prog: &Program,
    wf: &mut WarpFrame,
    mask: u64,
    io: &mut dyn WarpIo,
    out: &mut [f32],
) {
    eval(prog, wf, mask, io);
    assert_eq!(wf.sp, 1, "expression leaves one value row");
    let r = wf.pop();
    wf.floats(r, mask, out);
}

/// Host-side warp I/O over plain vectors: the row-granular counterpart of
/// [`crate::exec_ir::VecIo`], used by differential tests and benches.
/// Each lane owns an independent cursor into the shared `input` and a
/// preassigned output range, so lane results land exactly where a scalar
/// per-lane run would put them. State arrays are shared; within a row,
/// lanes are served in ascending lane order.
#[derive(Debug, Default)]
pub struct VecWarpIo {
    /// Shared input words.
    pub input: Vec<f32>,
    /// Per-lane read cursor into `input` (peeks are cursor-relative).
    pub cursor: Vec<usize>,
    /// Flat output buffer; must be pre-sized.
    pub output: Vec<f32>,
    /// Per-lane next write index into `output`.
    pub out_pos: Vec<usize>,
    /// Shared state arrays.
    pub state: HashMap<String, Vec<f32>>,
}

impl WarpIo for VecWarpIo {
    fn pop_row(&mut self, mask: u64, out: &mut [f32]) {
        for_lanes(mask, out.len(), |l| {
            out[l] = self.input[self.cursor[l]];
            self.cursor[l] += 1;
        });
    }

    fn peek_row(&mut self, mask: u64, offsets: &[i64], out: &mut [f32]) {
        for_lanes(mask, out.len(), |l| {
            out[l] = self.input[(self.cursor[l] as i64 + offsets[l]) as usize];
        });
    }

    fn push_row(&mut self, mask: u64, vals: &[f32]) {
        for_lanes(mask, vals.len(), |l| {
            self.output[self.out_pos[l]] = vals[l];
            self.out_pos[l] += 1;
        });
    }

    fn state_load_row(&mut self, _id: u16, array: &str, mask: u64, idx: &[i64], out: &mut [f32]) {
        let arr = &self.state[array];
        for_lanes(mask, out.len(), |l| out[l] = arr[idx[l] as usize]);
    }

    fn state_store_row(&mut self, _id: u16, array: &str, mask: u64, idx: &[i64], vals: &[f32]) {
        let arr = self.state.get_mut(array).expect("bound state array");
        for_lanes(mask, idx.len(), |l| arr[idx[l] as usize] = vals[l]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile_body, compile_expr, eval as scalar_eval, Frame};
    use crate::exec_ir::VecIo;
    use streamir::graph::bindings;
    use streamir::ir::Stmt;
    use streamir::parse::parse_program;

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().actors[0].work.body.clone()
    }

    /// Run `body` scalar (per lane) and warp-wide over per-lane inputs;
    /// assert bit-identical outputs and cursors.
    fn run_both(body: &[Stmt], lane_inputs: &[Vec<f32>], pushes_per_lane: usize) {
        let binds = bindings(&[]);
        let prog = compile_body(body, &binds, &["lane"]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lane_slot = prog.slot_of("lane");
        let lanes = lane_inputs.len();

        // Scalar reference: lane-by-lane with private cursors.
        let mut want = Vec::new();
        let mut want_cursors = Vec::new();
        for (l, input) in lane_inputs.iter().enumerate() {
            let mut frame = Frame::default();
            frame.fit(&prog);
            frame.reset(&proto);
            if let Some(s) = lane_slot {
                frame.set(s, Value::I64(l as i64));
            }
            let mut io = VecIo {
                input: input.clone(),
                ..Default::default()
            };
            scalar_eval(&prog, &mut frame, &mut io);
            want.extend(io.output);
            want_cursors.push(io.cursor);
        }

        // Warp run: one shared input with per-lane segments.
        let seg = lane_inputs[0].len();
        let mut wio = VecWarpIo {
            input: lane_inputs.iter().flatten().copied().collect(),
            cursor: (0..lanes).map(|l| l * seg).collect(),
            output: vec![0.0; pushes_per_lane * lanes],
            out_pos: (0..lanes).map(|l| l * pushes_per_lane).collect(),
            ..Default::default()
        };
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        if let Some(s) = lane_slot {
            wf.set_row(s, full_mask(lanes), |l| Value::I64(l as i64));
        }
        eval(&prog, &mut wf, full_mask(lanes), &mut wio);

        assert_eq!(want.len(), wio.output.len());
        for (i, (a, b)) in want.iter().zip(&wio.output).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "output {i}: {a} vs {b}");
        }
        for (l, c) in wio.cursor.iter().enumerate() {
            assert_eq!(c - l * seg, want_cursors[l], "lane {l} cursor");
        }
    }

    #[test]
    fn uniform_body_matches_scalar() {
        let body = body_of(
            r#"pipeline P() {
                actor H(pop 1, push 1) {
                    x = pop();
                    acc = 0.0;
                    for i in 0..16 { acc = acc * x + 1.0; }
                    push(acc);
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 * 0.25 - 3.0]).collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn divergent_branches_match_scalar() {
        let body = body_of(
            r#"pipeline P() {
                actor D(pop 1, push 1) {
                    x = pop();
                    if (x < 0.0) { x = 0.0 - x; if (x > 2.0) { x = x * 0.5; } }
                    else { x = x * 1.5; }
                    push(x);
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 - 16.0]).collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn uneven_trip_counts_match_scalar() {
        // Trip count depends on the lane id: lanes exit the loop at
        // different iterations and must reconverge at the exit pc.
        let body = body_of(
            r#"pipeline P() {
                actor U(pop 1, push 1) {
                    x = pop();
                    for i in 0..lane { x = x + i * 1.0; if (i % 2 == 0) { x = x * 1.0625; } }
                    push(x);
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 * 0.5]).collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn pops_under_divergence_match_scalar() {
        // Divergent lanes consume different numbers of inputs.
        let body = body_of(
            r#"pipeline P() {
                actor V(pop 4, push 1) {
                    x = pop();
                    if (x < 8.0) { x = x + pop(); } else { x = x * 2.0; }
                    push(x);
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32)
            .map(|l| vec![l as f32, 100.0, 200.0, 300.0])
            .collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn nan_payloads_match_scalar() {
        // `log` of a negative lane yields the default NaN, `abs` of it a
        // NaN of the other sign; commutative operators over two NaNs must
        // return the payload the scalar evaluator returns.
        let body = body_of(
            r#"pipeline P() {
                actor N(pop 1, push 8) {
                    y = log(pop());
                    z = abs(y);
                    push(y * z); push(z * y); push(y + z); push(z + y);
                    push(max(y, z)); push(max(z, y)); push(min(y, z)); push(min(z, y));
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..32).map(|l| vec![l as f32 - 20.0]).collect();
        run_both(&body, &inputs, 8);
    }

    #[test]
    fn ragged_final_warp_runs_partial_mask() {
        let body = body_of(
            r#"pipeline P() {
                actor R(pop 1, push 1) { push(pop() + 1.0); }
            }"#,
        );
        let binds = bindings(&[]);
        let prog = compile_body(&body, &binds, &[]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lanes = 32;
        let resident = 5usize; // ragged: only 5 of 32 lanes live
        let mut wio = VecWarpIo {
            input: (0..lanes).map(|l| l as f32).collect(),
            cursor: (0..lanes).collect(),
            output: vec![-1.0; lanes],
            out_pos: (0..lanes).collect(),
            ..Default::default()
        };
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        eval(&prog, &mut wf, full_mask(resident), &mut wio);
        for l in 0..lanes {
            let want = if l < resident { l as f32 + 1.0 } else { -1.0 };
            assert_eq!(wio.output[l], want, "lane {l}");
        }
    }

    #[test]
    fn wrapping_integer_semantics_preserved() {
        let body = body_of(
            r#"pipeline P() {
                actor W(pop 1, push 1) {
                    k = 9223372036854775807;
                    k = k + 1;
                    x = pop();
                    push(select(k < 0, x, 0.0 - x));
                }
            }"#,
        );
        let inputs: Vec<Vec<f32>> = (0..8).map(|l| vec![l as f32]).collect();
        run_both(&body, &inputs, 1);
    }

    #[test]
    fn state_rows_read_and_write() {
        let body = body_of(
            r#"pipeline P() {
                actor S(pop 1, push 1) {
                    state s[64];
                    x = pop();
                    s[lane] = x * 2.0;
                    push(s[lane] + 1.0);
                }
            }"#,
        );
        let binds = bindings(&[]);
        let prog = compile_body(&body, &binds, &["lane"]).unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lane_slot = prog.slot_of("lane").unwrap();
        let lanes = 16;
        let mut wio = VecWarpIo {
            input: (0..lanes).map(|l| l as f32).collect(),
            cursor: (0..lanes).collect(),
            output: vec![0.0; lanes],
            out_pos: (0..lanes).collect(),
            ..Default::default()
        };
        wio.state.insert("s".into(), vec![0.0; 64]);
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        wf.set_row(lane_slot, full_mask(lanes), |l| Value::I64(l as i64));
        eval(&prog, &mut wf, full_mask(lanes), &mut wio);
        for l in 0..lanes {
            assert_eq!(wio.output[l], l as f32 * 2.0 + 1.0);
            assert_eq!(wio.state["s"][l], l as f32 * 2.0);
        }
    }

    #[test]
    fn expression_rows_yield_values() {
        use streamir::ir::{BinOp, Expr};
        let e = Expr::bin(BinOp::Mul, Expr::var("acc"), Expr::Float(0.5));
        let binds = bindings(&[]);
        let prog = compile_expr(&e, &binds, &["acc"]).unwrap();
        let slot = prog.slot_of("acc").unwrap();
        let proto = prog.bind(&binds).unwrap();
        let lanes = 8;
        let mut wf = WarpFrame::default();
        wf.fit(&prog, lanes);
        wf.reset(&proto);
        wf.set_row(slot, full_mask(lanes), |l| Value::F32(l as f32 * 2.0));
        let mut io = VecWarpIo::default();
        let mut out = vec![0.0f32; lanes];
        eval_row(&prog, &mut wf, full_mask(lanes), &mut io, &mut out);
        for (l, v) in out.iter().enumerate() {
            assert_eq!(*v, l as f32);
        }
    }

    #[test]
    fn warp_frame_pool_recycles_and_recovers_poison() {
        let pool = WarpFramePool::new();
        let f1 = pool.take();
        pool.give(f1);
        assert_eq!(pool.idle(), 1);
        let _f2 = pool.take();
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.reused(), 1);
    }
}
