//! Raw numeric kernels shared by forward and backward passes.
//!
//! All kernels operate on contiguous row-major buffers.
//!
//! ## One matmul micro-kernel
//!
//! Every matmul layout runs the same register-tiled kernel for
//! `c += a·b` (`a` m×k, `b` k×n, all row-major). A tile holds up to [`MR`]
//! output rows × a few SIMD vectors of output columns in registers: it
//! loads the `c` tile once, streams k, broadcasting one `a` element per row
//! against the tile's `b` vectors, and stores the tile once. The kernel
//! reads `a` through a row and a column stride, so [`matmul_at_b_acc`]
//! hands it `aᵀ` in place (its broadcasts walk along a row of the stored
//! `a`), and [`matmul_a_bt_acc`] packs `bᵀ` into an arena buffer once per
//! call, before any fan-out to the pool; both then run the same kernel.
//!
//! The kernel is written once (the `fma_gemm!` macro) and instantiated
//! three ways, picked by the `isa()` detected once per process: AVX-512F
//! (16 lanes, masked column tails), AVX2 + FMA (8 lanes, masked column
//! tails), and a portable fallback whose "lanes" are `f32::mul_add` calls.
//!
//! **Accumulation-order invariant (the fused-chain contract):** every
//! output element is one fused multiply-add chain,
//!
//! ```text
//! acc = c[i][j];  for p in 0..k ascending { acc = fma(a[i][p], b[p][j], acc) }
//! ```
//!
//! with one rounding per step and no skipped terms. SIMD lanes only ever
//! hold different output columns and tiles only change which register
//! holds an element's accumulator, never its chain, so every ISA path,
//! every tile shape and every pool chunking produces the same bits as the
//! naive fused loops (`matmul_*_naive`, the test oracles). An IEEE fused
//! multiply-add is exactly rounded, so `f32::mul_add` and the vector FMA
//! instructions agree bit for bit.
//!
//! Zero operands are not skipped. Adding a ±0 product leaves a nonzero
//! accumulator unchanged, and an accumulator that starts at `+0.0` can
//! never become `-0.0` (an exact zero sum rounds to `+0.0` unless both
//! addends are `-0.0`), so appending zero-weight terms to a chain started
//! from a zeroed output is a bitwise no-op as long as their other factor is
//! finite. `0 · NaN` and `0 · ∞` are NaN: a non-finite value multiplied by
//! a zero weight reaches the output.
//!
//! ## Data parallelism
//!
//! Kernels above the `PAR_*` size cutoffs fan out over the
//! [`bootleg_pool`] execution layer by splitting their *output* rows (or
//! batch slabs) into disjoint chunks; below the cutoffs they run the plain
//! serial loop. Every chunk computes exactly the elements the serial loop
//! would, with the same per-element floating-point accumulation order, so
//! results are **bit-identical at any thread count** — parallelism here is
//! purely a scheduling choice, never a numeric one.
//!
//! ## Observability
//!
//! Each public kernel counts its calls, work volume (`kernel.matmul.flops`,
//! `kernel.*.rows`), and which path it chose (`.par` when it fanned out to
//! the pool, `.serial` otherwise) through `bootleg-obs`. A counted `.par`
//! call can still *execute* serially inside the pool (nested fork-join);
//! `pool.serial_fallback` accounts for those.

use bootleg_obs::counter;
use std::sync::OnceLock;

/// Micro-kernel row blocking: output rows per register tile.
pub const MR: usize = 4;

/// Minimum multiply-accumulate count before a matmul fans out to the pool.
pub const PAR_MATMUL_FLOPS: usize = 64 * 1024;
/// Target multiply-accumulate count per parallel matmul chunk. Sized so a
/// chunk outlives the pool's enqueue/steal overhead by a comfortable margin.
const PAR_MATMUL_CHUNK_FLOPS: usize = 64 * 1024;
/// Minimum element count before row-wise kernels (softmax, layer norm,
/// gather) fan out to the pool.
pub const PAR_ROWS_MIN_ELEMS: usize = 16 * 1024;
/// Target element count per parallel row chunk.
const PAR_ROW_CHUNK_ELEMS: usize = 8 * 1024;

/// Rows per chunk that lands roughly `target` scalar ops per chunk when each
/// row costs `row_work`.
fn rows_per_chunk(target: usize, row_work: usize) -> usize {
    (target / row_work.max(1)).max(1)
}

/// Counts one matmul-family call: `macs` multiply-accumulates → 2·macs FLOPs.
#[inline]
fn obs_matmul(macs: usize, par: bool) {
    counter!("kernel.matmul.calls").inc();
    counter!("kernel.matmul.flops").add(2 * macs as u64);
    if par {
        counter!("kernel.matmul.par").inc();
    } else {
        counter!("kernel.matmul.serial").inc();
    }
}

/// Counts one gather call over `rows` output rows.
#[inline]
fn obs_gather(rows: usize, par: bool) {
    counter!("kernel.gather.calls").inc();
    counter!("kernel.gather.rows").add(rows as u64);
    if par {
        counter!("kernel.gather.par").inc();
    } else {
        counter!("kernel.gather.serial").inc();
    }
}

/// Counts one softmax / log-softmax call over `rows` rows.
#[inline]
fn obs_softmax(rows: usize, par: bool) {
    counter!("kernel.softmax.calls").inc();
    counter!("kernel.softmax.rows").add(rows as u64);
    if par {
        counter!("kernel.softmax.par").inc();
    } else {
        counter!("kernel.softmax.serial").inc();
    }
}

/// Counts one layer-norm call over `rows` rows.
#[inline]
fn obs_layer_norm(rows: usize, par: bool) {
    counter!("kernel.layer_norm.calls").inc();
    counter!("kernel.layer_norm.rows").add(rows as u64);
    if par {
        counter!("kernel.layer_norm.par").inc();
    } else {
        counter!("kernel.layer_norm.serial").inc();
    }
}

/// The instruction set the vector kernels run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum Isa {
    /// Scalar code; the matmul kernel's lanes are `f32::mul_add` calls.
    Portable,
    /// AVX2 + FMA, 8 lanes.
    Avx2,
    /// AVX-512F, 16 lanes (AVX2 + FMA for the elementwise kernels).
    Avx512,
}

/// The best [`Isa`] this host supports, detected once per process.
pub(crate) fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 =
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
            if avx2 && std::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if avx2 {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    })
}

/// `c += a (m×k) · b (k×n)`; `c` is m×n and must be pre-zeroed by the caller
/// if plain assignment is wanted. Fans out over output rows above the cutoff.
pub fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let par = m >= 2 && m * k * n >= PAR_MATMUL_FLOPS;
    obs_matmul(m * k * n, par);
    gemm_rows(Lhs::rows(a, k), b, c, m, k, n, par);
}

/// `c += aᵀ (k×m, stored m×k) · b (m×n)`; result is k×n.
/// Used for weight gradients: dW = xᵀ dy. Runs the [`matmul_acc`] kernel
/// on `aᵀ` read in place, so element `(p, j)` chains over `i` ascending.
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    let par = k >= 2 && m * k * n >= PAR_MATMUL_FLOPS;
    obs_matmul(m * k * n, par);
    gemm_rows(Lhs { data: a, row: 1, col: k }, b, c, k, m, n, par);
}

/// `c += a (m×k) · bᵀ (n×k, stored n×k)`; result is m×n.
/// Used for input gradients: dx = dy Wᵀ. Packs `bᵀ` once, then runs the
/// [`matmul_acc`] kernel.
pub fn matmul_a_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let par = m >= 2 && m * k * n >= PAR_MATMUL_FLOPS;
    obs_matmul(m * k * n, par);
    let bt = transposed(b, n, k);
    gemm_rows(Lhs::rows(a, k), &bt, c, m, k, n, par);
    crate::arena::release(bt);
}

/// `(B, M, K) × (B, K, N)` batched matmul into a pre-zeroed `c` (B, M, N),
/// parallel over the batch axis above the flop cutoff.
pub fn batch_matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], bb: usize, m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), bb * m * k);
    debug_assert_eq!(b.len(), bb * k * n);
    debug_assert_eq!(c.len(), bb * m * n);
    let slab = m * n;
    let par = bb >= 2 && bb * m * k * n >= PAR_MATMUL_FLOPS;
    obs_matmul(bb * m * k * n, par);
    let one = |t: usize, cc: &mut [f32]| {
        let (at, bt) = (&a[t * m * k..(t + 1) * m * k], &b[t * k * n..(t + 1) * k * n]);
        gemm_on(isa(), Lhs::rows(at, k), bt, cc, m, k, n);
    };
    if par {
        bootleg_pool::parallel_chunks_mut(c, slab, one);
    } else {
        for t in 0..bb {
            one(t, &mut c[t * slab..(t + 1) * slab]);
        }
    }
}

/// Fused-chain oracle for [`matmul_acc`]: one `mul_add` chain per output
/// element, `p` ascending from the element's initial value.
pub fn matmul_acc_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc = a[i * k + p].mul_add(b[p * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
}

/// Fused-chain oracle for [`matmul_at_b_acc`] (`i` ascending).
pub fn matmul_at_b_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for p in 0..k {
        for j in 0..n {
            let mut acc = c[p * n + j];
            for i in 0..m {
                acc = a[i * k + p].mul_add(b[i * n + j], acc);
            }
            c[p * n + j] = acc;
        }
    }
}

/// Fused-chain oracle for [`matmul_a_bt_acc`] (`p` ascending).
pub fn matmul_a_bt_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc = a[i * k + p].mul_add(b[j * k + p], acc);
            }
            c[i * n + j] = acc;
        }
    }
}

/// `x` (`rows × cols`) transposed into an arena buffer (`cols × rows`),
/// walked in 8-row strips so each write is a short contiguous run.
fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = crate::arena::take(rows * cols);
    for r0 in (0..rows).step_by(8) {
        let r1 = (r0 + 8).min(rows);
        for c in 0..cols {
            for r in r0..r1 {
                t[c * rows + r] = x[r * cols + c];
            }
        }
    }
    t
}

/// The kernel's `a` operand: element `(i, p)` is `data[i * row + p * col]`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row: usize,
    col: usize,
}

impl<'a> Lhs<'a> {
    /// A row-major matrix with `k` columns.
    fn rows(data: &'a [f32], k: usize) -> Self {
        Self { data, row: k, col: 1 }
    }
}

/// The serial kernel over `m` output rows, split into [`MR`]-aligned row
/// chunks on the pool when `par`.
fn gemm_rows(a: Lhs, b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, par: bool) {
    if par {
        let rows_per = rows_per_chunk(PAR_MATMUL_CHUNK_FLOPS, k * n).next_multiple_of(MR);
        bootleg_pool::parallel_chunks_mut(c, rows_per * n, |ci, cc| {
            let a = Lhs { data: &a.data[ci * rows_per * a.row..], ..a };
            gemm_on(isa(), a, b, cc, cc.len() / n, k, n);
        });
    } else {
        gemm_on(isa(), a, b, c, m, k, n);
    }
}

/// The serial kernel on `isa`, which must be one the host supports.
fn gemm_on(isa: Isa, a: Lhs, b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a_end = (m - 1) * a.row + (k - 1) * a.col;
    assert!(a_end < a.data.len() && b.len() >= k * n && c.len() >= m * n);
    let (ap, strides, bp, cp) = (a.data.as_ptr(), (a.row, a.col), b.as_ptr(), c.as_mut_ptr());
    // SAFETY: the operand extents were checked above, and `isa()` only
    // reports instruction sets the CPU was detected to support.
    unsafe {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => avx512::gemm(ap, strides, bp, cp, m, k, n),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => avx2::gemm(ap, strides, bp, cp, m, k, n),
            _ => portable::gemm(ap, strides, bp, cp, m, k, n),
        }
    }
}

/// The micro-kernel, instantiated inside an ISA module that defines
/// `LANES`, the register type `Reg`, the tail-mask type `Mask` and the
/// primitives `zero`/`splat`/`load`/`store`/`load_tail`/`store_tail`/
/// `mask`/`fma`. `vectors` lists the tile widths in registers, 1 up to the
/// widest; the trailing attributes carry the module's target features.
macro_rules! fma_gemm {
    (vectors = [$($v:literal),+] $(, #[$feat:meta])*) => {
        const NV: usize = [$($v),+].len();

        /// `c += a·b` over raw operands, all of them non-empty: `a` is
        /// m×k with element `(i, p)` at `a[i·rs + p·cs]`, `b` (k×n) and
        /// `c` (m×n) are row-major. Column blocks of up to
        /// `NV · LANES` run outermost so the block's `b` panel stays in
        /// cache across every row tile.
        ///
        /// # Safety
        /// `a`, `b` and `c` must be valid for those extents, `c` must not
        /// overlap the inputs, and the CPU must support the module's
        /// target features.
        $(#[$feat])*
        pub(super) unsafe fn gemm(
            a: *const f32,
            (rs, cs): (usize, usize),
            b: *const f32,
            c: *mut f32,
            m: usize,
            k: usize,
            n: usize,
        ) {
            let mut j = 0;
            while j < n {
                let cols = (NV * LANES).min(n - j);
                let nv = cols.div_ceil(LANES);
                let tail = mask(cols - (nv - 1) * LANES);
                let mut i = 0;
                while i < m {
                    let mr = super::MR.min(m - i);
                    let (a, b, c) = (a.add(i * rs), b.add(j), c.add(i * n + j));
                    match (mr, nv) {
                        $(
                            (1, $v) => tile::<1, $v>(a, (rs, cs), b, c, k, n, tail),
                            (2, $v) => tile::<2, $v>(a, (rs, cs), b, c, k, n, tail),
                            (3, $v) => tile::<3, $v>(a, (rs, cs), b, c, k, n, tail),
                            (4, $v) => tile::<4, $v>(a, (rs, cs), b, c, k, n, tail),
                        )+
                        _ => unreachable!("tile {mr}x{nv} outside {}x{NV}", super::MR),
                    }
                    i += mr;
                }
                j += cols;
            }
        }

        /// One `R`-row × `V`-register tile at `c`; the last register
        /// covers only the lanes set in `tail`.
        ///
        /// # Safety
        /// As for `gemm`, for the `R` rows and the `V` registers of
        /// columns (the last one masked by `tail`) this tile covers.
        $(#[$feat])*
        unsafe fn tile<const R: usize, const V: usize>(
            a: *const f32,
            (rs, cs): (usize, usize),
            b: *const f32,
            c: *mut f32,
            k: usize,
            n: usize,
            tail: Mask,
        ) {
            let mut acc = [[zero(); V]; R];
            for (r, accr) in acc.iter_mut().enumerate() {
                for (v, x) in accr.iter_mut().enumerate() {
                    let p = c.add(r * n + v * LANES);
                    *x = if v + 1 < V { load(p) } else { load_tail(p, tail) };
                }
            }
            for p in 0..k {
                let brow = b.add(p * n);
                let mut bv = [zero(); V];
                for (v, x) in bv.iter_mut().enumerate() {
                    let q = brow.add(v * LANES);
                    *x = if v + 1 < V { load(q) } else { load_tail(q, tail) };
                }
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = splat(*a.add(r * rs + p * cs));
                    for (x, &bx) in accr.iter_mut().zip(&bv) {
                        *x = fma(av, bx, *x);
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                for (v, &x) in accr.iter().enumerate() {
                    let p = c.add(r * n + v * LANES);
                    if v + 1 < V {
                        store(p, x)
                    } else {
                        store_tail(p, tail, x)
                    }
                }
            }
        }
    };
}

/// AVX-512F: 4 × 64-column tiles in 16 of the 32 `zmm` registers.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::*;

    const LANES: usize = 16;
    type Reg = __m512;
    type Mask = __mmask16;

    #[inline]
    fn mask(w: usize) -> Mask {
        (u32::MAX >> (32 - w)) as Mask
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn zero() -> Reg {
        _mm512_setzero_ps()
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(x: f32) -> Reg {
        _mm512_set1_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fma(a: Reg, b: Reg, c: Reg) -> Reg {
        _mm512_fmadd_ps(a, b, c)
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(p: *const f32) -> Reg {
        _mm512_loadu_ps(p)
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(p: *mut f32, x: Reg) {
        _mm512_storeu_ps(p, x)
    }
    /// # Safety
    /// `p` must be valid for reading the lanes set in `m`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_tail(p: *const f32, m: Mask) -> Reg {
        _mm512_maskz_loadu_ps(m, p)
    }
    /// # Safety
    /// `p` must be valid for writing the lanes set in `m`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_tail(p: *mut f32, m: Mask, x: Reg) {
        _mm512_mask_storeu_ps(p, m, x)
    }

    fma_gemm!(vectors = [1, 2, 3, 4], #[target_feature(enable = "avx512f")]);
}

/// AVX2 + FMA: 4 × 16-column tiles in 8 of the 16 `ymm` registers. A
/// 4 × 24 tile would need all 16 for accumulators, `b` and the broadcast,
/// and spills: it measured half the throughput.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    const LANES: usize = 8;
    type Reg = __m256;
    type Mask = __m256i;

    /// All-ones in lanes `0..w`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mask(w: usize) -> Mask {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    fn zero() -> Reg {
        _mm256_setzero_ps()
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(x: f32) -> Reg {
        _mm256_set1_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn fma(a: Reg, b: Reg, c: Reg) -> Reg {
        _mm256_fmadd_ps(a, b, c)
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(p: *const f32) -> Reg {
        _mm256_loadu_ps(p)
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(p: *mut f32, x: Reg) {
        _mm256_storeu_ps(p, x)
    }
    /// # Safety
    /// `p` must be valid for reading the lanes set in `m`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_tail(p: *const f32, m: Mask) -> Reg {
        _mm256_maskload_ps(p, m)
    }
    /// # Safety
    /// `p` must be valid for writing the lanes set in `m`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_tail(p: *mut f32, m: Mask, x: Reg) {
        _mm256_maskstore_ps(p, m, x)
    }

    fma_gemm!(vectors = [1, 2], #[target_feature(enable = "avx2,fma")]);
}

/// Portable fallback: 8-wide `[f32; 8]` "registers" whose lanes are
/// `f32::mul_add` calls.
mod portable {
    const LANES: usize = 8;
    type Reg = [f32; LANES];
    type Mask = usize;

    fn mask(w: usize) -> Mask {
        w
    }
    fn zero() -> Reg {
        [0.0; LANES]
    }
    fn splat(x: f32) -> Reg {
        [x; LANES]
    }
    fn fma(a: Reg, b: Reg, c: Reg) -> Reg {
        std::array::from_fn(|l| a[l].mul_add(b[l], c[l]))
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` floats.
    unsafe fn load(p: *const f32) -> Reg {
        p.cast::<Reg>().read_unaligned()
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` floats.
    unsafe fn store(p: *mut f32, x: Reg) {
        p.cast::<Reg>().write_unaligned(x)
    }
    /// # Safety
    /// `p` must be valid for reading `w` floats.
    unsafe fn load_tail(p: *const f32, w: Mask) -> Reg {
        let mut x = zero();
        std::ptr::copy_nonoverlapping(p, x.as_mut_ptr(), w);
        x
    }
    /// # Safety
    /// `p` must be valid for writing `w` floats.
    unsafe fn store_tail(p: *mut f32, w: Mask, x: Reg) {
        std::ptr::copy_nonoverlapping(x.as_ptr(), p, w)
    }

    fma_gemm!(vectors = [1, 2]);
}

/// Gathers `rows` of a row-major `(·, cols)` table into `out`
/// (`rows.len() × cols`), parallel over output rows above the cutoff.
pub fn gather_rows(table: &[f32], rows: &[u32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(out.len(), rows.len() * cols);
    let copy = |rs: &[u32], os: &mut [f32]| {
        for (r, orow) in rs.iter().zip(os.chunks_exact_mut(cols)) {
            let r = *r as usize;
            orow.copy_from_slice(&table[r * cols..(r + 1) * cols]);
        }
    };
    let par = rows.len() >= 2 && out.len() >= PAR_ROWS_MIN_ELEMS;
    obs_gather(rows.len(), par);
    if par {
        let rows_per = rows_per_chunk(PAR_ROW_CHUNK_ELEMS, cols);
        bootleg_pool::parallel_chunks_mut(out, rows_per * cols, |ci, oc| {
            let r0 = ci * rows_per;
            copy(&rows[r0..r0 + oc.len() / cols], oc);
        });
    } else {
        copy(rows, out);
    }
}

/// Numerically-stable softmax over each row of an `rows × cols` buffer,
/// written into `out` (may not alias `x`).
pub fn softmax_rows(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    let par = rows >= 2 && rows * cols >= PAR_ROWS_MIN_ELEMS;
    obs_softmax(rows, par);
    if par {
        let rows_per = rows_per_chunk(PAR_ROW_CHUNK_ELEMS, cols);
        bootleg_pool::parallel_chunks_mut(out, rows_per * cols, |ci, oc| {
            let r0 = ci * rows_per;
            let nr = oc.len() / cols;
            softmax_rows_serial(&x[r0 * cols..(r0 + nr) * cols], oc, nr, cols);
        });
    } else {
        softmax_rows_serial(x, out, rows, cols);
    }
}

fn softmax_rows_serial(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let xi = &x[r * cols..(r + 1) * cols];
        let oi = &mut out[r * cols..(r + 1) * cols];
        let mx = xi.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        exp_shifted(xi, oi, mx);
        // The sum stays a plain ascending scalar fold: reassociating it
        // would change which bits the division below sees.
        let mut sum = 0.0;
        for &e in oi.iter() {
            sum += e;
        }
        let inv = 1.0 / sum;
        for o in oi.iter_mut() {
            *o *= inv;
        }
    }
}

/// `out[j] = exp(x[j] − mx)` — the shifted-exponent loop of row softmax.
///
/// Portable hosts use libm. AVX2 hosts evaluate the shared polynomial
/// `exp` with the scalar tail replaying the identical op sequence, so a
/// value's output bits do not depend on its offset. A `x − mx` of exactly
/// `-inf` (masked padding) maps to exactly `+0.0` on every path — the
/// ragged-batching mask argument depends on that, so the vector path
/// zeroes those lanes explicitly rather than letting the range clamp turn
/// them into `2^-126`-scale noise.
fn exp_shifted(x: &[f32], out: &mut [f32], mx: f32) {
    #[cfg(target_arch = "x86_64")]
    if isa() >= Isa::Avx2 {
        // SAFETY: `isa()` detected AVX2 at runtime.
        unsafe { exp_shifted_avx2(x, out, mx) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = (v - mx).exp();
    }
}

/// Scalar replica of one [`exp_shifted_avx2`] lane.
#[cfg(target_arch = "x86_64")]
fn exp_shifted_poly(v: f32, mx: f32) -> f32 {
    use expc::*;
    let ex0 = v - mx;
    if ex0 == f32::NEG_INFINITY {
        return 0.0;
    }
    let ex = ex0.max(MIN_X);
    let n = (ex * LOG2E).round_ties_even();
    let r = (ex - n * LN2_HI) - n * LN2_LO;
    let z = r * r;
    let mut y = P0;
    y = y * r + P1;
    y = y * r + P2;
    y = y * r + P3;
    y = y * r + P4;
    y = y * r + P5;
    y = (y * z + r) + 1.0;
    let pow2 = f32::from_bits(((n as i32 + 127) << 23) as u32);
    y * pow2
}

/// 8-lane shifted exp; see [`exp_shifted`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exp_shifted_avx2(x: &[f32], out: &mut [f32], mx: f32) {
    use core::arch::x86_64::*;
    use expc::*;
    let one = _mm256_set1_ps(1.0);
    let mxv = _mm256_set1_ps(mx);
    let ninf = _mm256_set1_ps(f32::NEG_INFINITY);
    let n = x.len();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        let ex0 = _mm256_sub_ps(v, mxv);
        let masked = _mm256_cmp_ps::<{ _CMP_EQ_OQ }>(ex0, ninf);
        let ex = _mm256_max_ps(ex0, _mm256_set1_ps(MIN_X));
        let nf = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(ex, _mm256_set1_ps(LOG2E)),
        );
        let r = _mm256_sub_ps(
            _mm256_sub_ps(ex, _mm256_mul_ps(nf, _mm256_set1_ps(LN2_HI))),
            _mm256_mul_ps(nf, _mm256_set1_ps(LN2_LO)),
        );
        let z = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P5));
        y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), one);
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(nf),
            _mm256_set1_epi32(127),
        )));
        let e = _mm256_andnot_ps(masked, _mm256_mul_ps(y, pow2));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), e);
        i += 8;
    }
    for (o, &v) in out[i..].iter_mut().zip(x[i..].iter()) {
        *o = exp_shifted_poly(v, mx);
    }
}

/// Backward of row softmax: given y = softmax(x) and dy, computes
/// dx = y ⊙ (dy − ⟨dy, y⟩) per row, accumulated into `dx`.
pub fn softmax_rows_backward(y: &[f32], dy: &[f32], dx: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let yi = &y[r * cols..(r + 1) * cols];
        let dyi = &dy[r * cols..(r + 1) * cols];
        let dxi = &mut dx[r * cols..(r + 1) * cols];
        let dot: f32 = yi.iter().zip(dyi.iter()).map(|(a, b)| a * b).sum();
        for ((d, &yv), &dyv) in dxi.iter_mut().zip(yi.iter()).zip(dyi.iter()) {
            *d += yv * (dyv - dot);
        }
    }
}

/// log-softmax over each row, written into `out`.
pub fn log_softmax_rows(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    let par = rows >= 2 && rows * cols >= PAR_ROWS_MIN_ELEMS;
    obs_softmax(rows, par);
    if par {
        let rows_per = rows_per_chunk(PAR_ROW_CHUNK_ELEMS, cols);
        bootleg_pool::parallel_chunks_mut(out, rows_per * cols, |ci, oc| {
            let r0 = ci * rows_per;
            let nr = oc.len() / cols;
            log_softmax_rows_serial(&x[r0 * cols..(r0 + nr) * cols], oc, nr, cols);
        });
    } else {
        log_softmax_rows_serial(x, out, rows, cols);
    }
}

fn log_softmax_rows_serial(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let xi = &x[r * cols..(r + 1) * cols];
        let oi = &mut out[r * cols..(r + 1) * cols];
        let mx = xi.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = xi.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx;
        for (o, &v) in oi.iter_mut().zip(xi.iter()) {
            *o = v - lse;
        }
    }
}

/// Layer norm over each row with affine `gamma`/`beta` (length `cols`),
/// written into `out`; parallel over rows above the cutoff.
pub fn layer_norm_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    rows: usize,
    cols: usize,
    eps: f32,
) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(gamma.len(), cols);
    debug_assert_eq!(beta.len(), cols);
    let norm = |xs: &[f32], os: &mut [f32], nr: usize| {
        for r in 0..nr {
            let xr = &xs[r * cols..(r + 1) * cols];
            let or = &mut os[r * cols..(r + 1) * cols];
            let mu: f32 = xr.iter().sum::<f32>() / cols as f32;
            let var: f32 = xr.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            for j in 0..cols {
                or[j] = (xr[j] - mu) * inv_std * gamma[j] + beta[j];
            }
        }
    };
    let par = rows >= 2 && rows * cols >= PAR_ROWS_MIN_ELEMS;
    obs_layer_norm(rows, par);
    if par {
        let rows_per = rows_per_chunk(PAR_ROW_CHUNK_ELEMS, cols);
        bootleg_pool::parallel_chunks_mut(out, rows_per * cols, |ci, oc| {
            let r0 = ci * rows_per;
            let nr = oc.len() / cols;
            norm(&x[r0 * cols..(r0 + nr) * cols], oc, nr);
        });
    } else {
        norm(x, out, rows);
    }
}

/// The tanh-approximation GELU and its derivative.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// GELU over a contiguous slice — the forward elementwise kernel.
///
/// The portable path is the scalar [`gelu`]. On AVX2 hosts the tanh is
/// instead evaluated as `sign · (1 − e) / (1 + e)` with `e = exp(−2|y|)`
/// from a Cephes-style degree-5 polynomial (≤ 2 ulp from libm). The scalar
/// tail after the 8-wide loop replays the *same* polynomial op sequence
/// ([`gelu_poly`]), never libm, so a given input value maps to the same
/// output bits wherever it sits in the slice. That per-value determinism is
/// what the batched-vs-alone parity invariant needs: ragged batching
/// shifts an element's offset (and thus body-vs-tail placement), but never
/// its value.
pub fn gelu_slice(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if isa() >= Isa::Avx2 {
        // SAFETY: `isa()` detected AVX2 at runtime.
        unsafe { gelu_slice_avx2(x, out) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = gelu(v);
    }
}

/// Cephes-style `exp` coefficients shared by the vector kernel and its
/// scalar-tail replica.
#[cfg(target_arch = "x86_64")]
mod expc {
    pub const LOG2E: f32 = std::f32::consts::LOG2_E;
    /// `ln 2` split hi/lo for an exact-ish range reduction. The hi part is
    /// written out in full: it is exactly `355/512`, chosen so `n · LN2_HI`
    /// is exact for the `n` range in play.
    #[allow(clippy::excessive_precision)]
    pub const LN2_HI: f32 = 0.693_359_375;
    pub const LN2_LO: f32 = -2.121_944_4e-4;
    /// Inputs below this clamp; keeps `2^n` a normal number.
    pub const MIN_X: f32 = -87.0;
    pub const P0: f32 = 1.987_569_2e-4;
    pub const P1: f32 = 1.398_199_9e-3;
    pub const P2: f32 = 8.333_452e-3;
    pub const P3: f32 = 4.166_579_6e-2;
    pub const P4: f32 = 1.666_666_5e-1;
    pub const P5: f32 = 5.000_000_3e-1;
    pub const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi), same as `gelu`
    pub const GELU_K: f32 = 0.044_715;
}

/// Scalar replica of the AVX2 lane math: identical constants and operation
/// order (every mul/add/div unfused), so it produces bit-identical results
/// to one vector lane and can serve as the loop tail.
#[cfg(target_arch = "x86_64")]
fn gelu_poly(x: f32) -> f32 {
    use expc::*;
    let inner = GELU_C * (x + GELU_K * (x * x * x));
    // e = exp(-2|inner|) via round-to-nearest 2^n · poly(r).
    let ex = (inner.abs() * -2.0).max(MIN_X);
    let n = (ex * LOG2E).round_ties_even();
    let r = (ex - n * LN2_HI) - n * LN2_LO;
    let z = r * r;
    let mut y = P0;
    y = y * r + P1;
    y = y * r + P2;
    y = y * r + P3;
    y = y * r + P4;
    y = y * r + P5;
    y = (y * z + r) + 1.0;
    let pow2 = f32::from_bits(((n as i32 + 127) << 23) as u32);
    let e = y * pow2;
    let t = ((1.0 - e) / (1.0 + e)).copysign(inner);
    (0.5 * x) * (1.0 + t)
}

/// 8-lane AVX2 GELU; see [`gelu_slice`] for the math and the parity
/// argument. Lanes are independent — no horizontal operations — so lane
/// placement cannot affect a value's result.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_slice_avx2(x: &[f32], out: &mut [f32]) {
    use core::arch::x86_64::*;
    use expc::*;
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let signbit = _mm256_set1_ps(-0.0);
    let n = x.len();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        let x3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
        let inner = _mm256_mul_ps(
            _mm256_set1_ps(GELU_C),
            _mm256_add_ps(v, _mm256_mul_ps(_mm256_set1_ps(GELU_K), x3)),
        );
        let sign = _mm256_and_ps(inner, signbit);
        let ex = _mm256_max_ps(
            _mm256_mul_ps(_mm256_andnot_ps(signbit, inner), _mm256_set1_ps(-2.0)),
            _mm256_set1_ps(MIN_X),
        );
        let nf = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(ex, _mm256_set1_ps(LOG2E)),
        );
        let r = _mm256_sub_ps(
            _mm256_sub_ps(ex, _mm256_mul_ps(nf, _mm256_set1_ps(LN2_HI))),
            _mm256_mul_ps(nf, _mm256_set1_ps(LN2_LO)),
        );
        let z = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P5));
        y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), one);
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(nf),
            _mm256_set1_epi32(127),
        )));
        let e = _mm256_mul_ps(y, pow2);
        let t = _mm256_or_ps(
            _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e)),
            sign,
        );
        let g = _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), g);
        i += 8;
    }
    for (o, &v) in out[i..].iter_mut().zip(x[i..].iter()) {
        *o = gelu_poly(v);
    }
}

/// Elementwise tanh over a slice, for the additive-attention bag scorer.
///
/// Portable hosts use libm; AVX2 hosts evaluate
/// `sign · (1 − e) / (1 + e)` with `e = exp(−2|x|)` from the shared
/// polynomial, scalar tail included, so output bits depend only on the
/// input value — see [`gelu_slice`] for why that is the invariant ragged
/// batching needs.
pub fn tanh_slice(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if isa() >= Isa::Avx2 {
        // SAFETY: `isa()` detected AVX2 at runtime.
        unsafe { tanh_slice_avx2(x, out) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = v.tanh();
    }
}

/// Scalar replica of one [`tanh_slice_avx2`] lane.
#[cfg(target_arch = "x86_64")]
fn tanh_poly(x: f32) -> f32 {
    use expc::*;
    let ex = (x.abs() * -2.0).max(MIN_X);
    let n = (ex * LOG2E).round_ties_even();
    let r = (ex - n * LN2_HI) - n * LN2_LO;
    let z = r * r;
    let mut y = P0;
    y = y * r + P1;
    y = y * r + P2;
    y = y * r + P3;
    y = y * r + P4;
    y = y * r + P5;
    y = (y * z + r) + 1.0;
    let pow2 = f32::from_bits(((n as i32 + 127) << 23) as u32);
    let e = y * pow2;
    ((1.0 - e) / (1.0 + e)).copysign(x)
}

/// 8-lane AVX2 tanh; see [`tanh_slice`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_slice_avx2(x: &[f32], out: &mut [f32]) {
    use core::arch::x86_64::*;
    use expc::*;
    let one = _mm256_set1_ps(1.0);
    let signbit = _mm256_set1_ps(-0.0);
    let n = x.len();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        let sign = _mm256_and_ps(v, signbit);
        let ex = _mm256_max_ps(
            _mm256_mul_ps(_mm256_andnot_ps(signbit, v), _mm256_set1_ps(-2.0)),
            _mm256_set1_ps(MIN_X),
        );
        let nf = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(ex, _mm256_set1_ps(LOG2E)),
        );
        let r = _mm256_sub_ps(
            _mm256_sub_ps(ex, _mm256_mul_ps(nf, _mm256_set1_ps(LN2_HI))),
            _mm256_mul_ps(nf, _mm256_set1_ps(LN2_LO)),
        );
        let z = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P5));
        y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), one);
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(nf),
            _mm256_set1_epi32(127),
        )));
        let e = _mm256_mul_ps(y, pow2);
        let t = _mm256_or_ps(
            _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e)),
            sign,
        );
        _mm256_storeu_ps(out.as_mut_ptr().add(i), t);
        i += 8;
    }
    for (o, &v) in out[i..].iter_mut().zip(x[i..].iter()) {
        *o = tanh_poly(v);
    }
}

/// Derivative of [`gelu`].
#[inline]
pub fn gelu_deriv(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a: Vec<f32> = (0..6).map(|x| x as f32 * 0.5 - 1.0).collect();
        let b: Vec<f32> = (0..12).map(|x| (x as f32).sin()).collect();
        let mut c = vec![0.0; 2 * 4];
        matmul_acc(&a, &b, &mut c, 2, 3, 4);
        let expect = naive_matmul(&a, &b, 2, 3, 4);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn at_b_matches_transpose() {
        // aᵀ b where a is 3x2 (so aᵀ is 2x3), b is 3x4 -> 2x4
        let a: Vec<f32> = (0..6).map(|x| x as f32 + 1.0).collect();
        let b: Vec<f32> = (0..12).map(|x| x as f32 - 5.0).collect();
        let mut c = vec![0.0; 2 * 4];
        matmul_at_b_acc(&a, &b, &mut c, 3, 2, 4);
        // build explicit transpose
        let mut at = vec![0.0; 6];
        for i in 0..3 {
            for j in 0..2 {
                at[j * 3 + i] = a[i * 2 + j];
            }
        }
        let expect = naive_matmul(&at, &b, 2, 3, 4);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn a_bt_matches_transpose() {
        // a (2x3) * bᵀ where b is 4x3 -> 2x4
        let a: Vec<f32> = (0..6).map(|x| x as f32 * 0.3).collect();
        let b: Vec<f32> = (0..12).map(|x| (x as f32).cos()).collect();
        let mut c = vec![0.0; 2 * 4];
        matmul_a_bt_acc(&a, &b, &mut c, 2, 3, 4);
        let mut bt = vec![0.0; 12];
        for i in 0..4 {
            for j in 0..3 {
                bt[j * 4 + i] = b[i * 3 + j];
            }
        }
        let expect = naive_matmul(&a, &bt, 2, 3, 4);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut y = [0.0; 6];
        softmax_rows(&x, &mut y, 2, 3);
        for r in 0..2 {
            let s: f32 = y[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(y[2] > y[1] && y[1] > y[0]);
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let x = [1000.0, 1001.0];
        let mut y = [0.0; 2];
        softmax_rows(&x, &mut y, 1, 2);
        assert!(y.iter().all(|v| v.is_finite()));
        assert!((y[0] + y[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = [0.3, -1.2, 2.0];
        let mut s = [0.0; 3];
        let mut ls = [0.0; 3];
        softmax_rows(&x, &mut s, 1, 3);
        log_softmax_rows(&x, &mut ls, 1, 3);
        for i in 0..3 {
            assert!((s[i].ln() - ls[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn gelu_deriv_matches_fd() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 3.0] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!((gelu_deriv(x) - fd).abs() < 1e-3, "x={x}");
        }
    }

    /// Runs `f` under a 1-thread and an 8-thread pool and asserts the two
    /// output buffers are bit-identical.
    fn assert_par_bitwise(mut f: impl FnMut() -> Vec<f32>) {
        let serial_pool = bootleg_pool::ThreadPool::new(1);
        let par_pool = bootleg_pool::ThreadPool::new(8);
        let serial = bootleg_pool::with_pool(&serial_pool, &mut f);
        let parallel = bootleg_pool::with_pool(&par_pool, &mut f);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.to_bits(), p.to_bits(), "element {i}: serial {s} vs parallel {p}");
        }
    }

    fn pseudo(n: usize, salt: u64) -> Vec<f32> {
        // Deterministic, non-trivial values with some exact zeros.
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(salt);
                if h.is_multiple_of(17) {
                    0.0
                } else {
                    ((h >> 11) as f32 / (1u64 << 53) as f32) * 4.0 - 1.0
                }
            })
            .collect()
    }

    /// Every ISA path this host supports must reproduce the fused oracle's
    /// bits on the same operands, across row tails (m mod 4), every column
    /// tail width of both vector sizes, k = 0, and `-0.0`/zero entries —
    /// with `a` read row-major and, as `matmul_at_b_acc` reads it, through
    /// a stored transpose.
    #[test]
    fn every_isa_path_matches_the_fused_oracle_bitwise() {
        let isas: Vec<Isa> =
            [Isa::Portable, Isa::Avx2, Isa::Avx512].into_iter().filter(|&i| i <= isa()).collect();
        let shapes = [(1, 1, 1), (3, 5, 7), (4, 8, 16), (5, 17, 33), (2, 3, 100), (7, 40, 128)];
        let tails = (1..=65).map(|n| (6, 9, n));
        for (s, (m, k, n)) in shapes.into_iter().chain(tails).chain([(4, 0, 9)]).enumerate() {
            let a = pseudo(m * k, 31 + s as u64);
            let b = pseudo(k * n, 32 + s as u64);
            let mut c0 = pseudo(m * n, 33);
            c0.iter_mut().step_by(5).for_each(|x| *x = -0.0);
            let mut want = c0.clone();
            matmul_acc_naive(&a, &b, &mut want, m, k, n);
            let mut a_t = vec![0.0; k * m];
            for (i, row) in a.chunks_exact(k.max(1)).enumerate() {
                for (p, &x) in row.iter().enumerate() {
                    a_t[p * m + i] = x;
                }
            }
            let lhs = [Lhs::rows(&a, k), Lhs { data: &a_t, row: 1, col: m }];
            for &path in &isas {
                for (l, lhs) in lhs.iter().enumerate() {
                    let mut got = c0.clone();
                    gemm_on(path, *lhs, &b, &mut got, m, k, n);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let at = format!("{path:?} lhs {l} {m}x{k}x{n} element {i}");
                        assert_eq!(g.to_bits(), w.to_bits(), "{at}: {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn par_matmul_bit_identical_above_cutoff() {
        // 96×80×72 = 552960 flops ≫ PAR_MATMUL_FLOPS.
        let (m, k, n) = (96, 80, 72);
        let a = pseudo(m * k, 1);
        let b = pseudo(k * n, 2);
        assert_par_bitwise(|| {
            let mut c = vec![0.0; m * n];
            matmul_acc(&a, &b, &mut c, m, k, n);
            c
        });
    }

    #[test]
    fn par_matmul_at_b_bit_identical() {
        let (m, k, n) = (90, 64, 70);
        let a = pseudo(m * k, 3);
        let b = pseudo(m * n, 4);
        assert_par_bitwise(|| {
            let mut c = vec![0.0; k * n];
            matmul_at_b_acc(&a, &b, &mut c, m, k, n);
            c
        });
    }

    #[test]
    fn par_matmul_a_bt_bit_identical() {
        let (m, k, n) = (88, 60, 66);
        let a = pseudo(m * k, 5);
        let b = pseudo(n * k, 6);
        assert_par_bitwise(|| {
            let mut c = vec![0.0; m * n];
            matmul_a_bt_acc(&a, &b, &mut c, m, k, n);
            c
        });
    }

    #[test]
    fn par_batch_matmul_bit_identical() {
        let (bb, m, k, n) = (12, 20, 24, 18);
        let a = pseudo(bb * m * k, 7);
        let b = pseudo(bb * k * n, 8);
        assert_par_bitwise(|| {
            let mut c = vec![0.0; bb * m * n];
            batch_matmul_acc(&a, &b, &mut c, bb, m, k, n);
            c
        });
    }

    #[test]
    fn par_row_ops_bit_identical() {
        let (rows, cols) = (256, 96); // 24576 elems > PAR_ROWS_MIN_ELEMS
        let x = pseudo(rows * cols, 9);
        assert_par_bitwise(|| {
            let mut y = vec![0.0; rows * cols];
            softmax_rows(&x, &mut y, rows, cols);
            y
        });
        assert_par_bitwise(|| {
            let mut y = vec![0.0; rows * cols];
            log_softmax_rows(&x, &mut y, rows, cols);
            y
        });
        let gamma = pseudo(cols, 10);
        let beta = pseudo(cols, 11);
        assert_par_bitwise(|| {
            let mut y = vec![0.0; rows * cols];
            layer_norm_rows(&x, &gamma, &beta, &mut y, rows, cols, 1e-5);
            y
        });
    }

    #[test]
    fn par_gather_rows_bit_identical() {
        let cols = 64;
        let table = pseudo(500 * cols, 12);
        let rows: Vec<u32> = (0..400u32).map(|i| (i * 37) % 500).collect();
        assert_par_bitwise(|| {
            let mut out = vec![0.0; rows.len() * cols];
            gather_rows(&table, &rows, &mut out, cols);
            out
        });
    }

    #[test]
    fn small_sizes_stay_on_the_serial_path() {
        // Below every cutoff: must match the naive reference exactly.
        let a = pseudo(6, 21);
        let b = pseudo(12, 22);
        let mut c = vec![0.0; 8];
        matmul_acc(&a, &b, &mut c, 2, 3, 4);
        let expect = naive_matmul(&a, &b, 2, 3, 4);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
