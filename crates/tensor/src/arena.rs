//! Size-class buffer arena: a thread-local free-list of recycled `Vec<f32>`
//! buffers keyed by capacity class.
//!
//! The forward/backward pass over a batch allocates (and zeroes) dozens of
//! intermediate buffers whose sizes recur from batch to batch. Instead of
//! hitting the system allocator per op, [`take`] hands back a previously
//! [`release`]d buffer from the size class of the requested length when one
//! is available, and the autograd tape releases every node buffer when a
//! graph is dropped, so steady-state training and eval loops run with
//! near-zero tensor allocations.
//!
//! Design notes:
//!
//! * **Thread-local, lock-free.** Each thread (including long-lived pool
//!   workers) owns its own free-list; there is no cross-thread transfer and
//!   therefore no synchronization on the hot path.
//! * **Capacity classes.** Lengths up to 8 are their own class; above that
//!   classes step by quarter octaves (…, 16, 20, 24, 28, 32, 40, …), so a
//!   pooled buffer over-reserves at most 25% of the length it serves.
//!   [`take`] pops a buffer from the class of the requested length (whose
//!   capacity covers it) and sets its length; [`release`] files a buffer
//!   under the largest class its capacity covers. Exact-length keys fail
//!   under ragged batches: a tall training graph stacks a different number
//!   of rows on nearly every step, so almost every length is new, and the
//!   pool fills to its byte cap with buffers it never reuses.
//! * **Numerics-neutral.** Recycled buffers hold stale values; [`take`] is
//!   for sites that fully overwrite, [`take_zeroed`] for sites that
//!   accumulate. Whether a buffer came from the arena or the allocator never
//!   changes the arithmetic, so results are bit-identical with the arena on
//!   or off (enforced by `tests/arena_parity.rs`).
//! * **Bounded.** Per-bucket and per-thread byte caps keep a pathological
//!   shape distribution from pinning unbounded memory; overflow buffers are
//!   simply dropped (counted under `arena.drop`).
//! * **Kill switch.** `BOOTLEG_ARENA=0` (or [`set_enabled`]`(false)`)
//!   degrades every call to a plain allocation so any suspected arena bug can
//!   be ruled out in one run.
//!
//! Traffic is observable through `bootleg-obs` counters: `arena.hit`,
//! `arena.miss` (their sum is the take count), `arena.release`, and
//! `arena.drop`. The take path fires exactly one counter op so the
//! instrumentation stays inside the perf bench's overhead budget.

use crate::tensor::Tensor;
use bootleg_obs::counter;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};

/// Max recycled buffers kept per size class. An autograd tape holds
/// every intermediate of a sentence simultaneously, so one graph can release
/// well over a hundred buffers of the same activation shape at drop time;
/// the cap must absorb that burst or the overflow is dropped and re-missed
/// on the next sentence.
const MAX_PER_BUCKET: usize = 256;

/// Max total bytes (of capacity) of recycled buffers kept per thread.
const MAX_THREAD_BYTES: usize = 64 << 20;

/// Lengths up to this are their own size class.
const EXACT_CLASS_MAX: usize = 8;

/// Buffers below this length aren't worth recycling. Only zero-length
/// buffers are exempt (they never touch the allocator): per-mention scalar
/// scores and tiny reductions dominate an eval graph's buffer *count*, so
/// exempting even lengths 1-3 leaves most of the steady-state allocator
/// traffic in place.
const MIN_RECYCLE_LEN: usize = 1;

static ENABLED: AtomicBool = AtomicBool::new(true);

thread_local! {
    static FREE: RefCell<FreeList> = RefCell::new(FreeList::from_env());
}

struct FreeList {
    /// Free buffers by size class; every buffer's capacity covers its class.
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    held_bytes: usize,
    env_enabled: bool,
}

impl FreeList {
    fn from_env() -> Self {
        let env_enabled = std::env::var("BOOTLEG_ARENA").map_or(true, |v| v != "0");
        Self { buckets: HashMap::new(), held_bytes: 0, env_enabled }
    }
}

/// Size `2^o` splits the next octave into four classes of step `2^(o-2)`.
fn class_step(octave: u32) -> usize {
    1 << (octave - 2)
}

/// The smallest class that holds `len` elements: the capacity a fresh
/// buffer for `len` gets, and the class [`take`] pops from.
fn class_ceil(len: usize) -> usize {
    if len <= EXACT_CLASS_MAX {
        return len;
    }
    let octave = usize::BITS - 1 - (len - 1).leading_zeros();
    len.next_multiple_of(class_step(octave))
}

/// The largest class a buffer of capacity `cap` covers: where [`release`]
/// files it.
fn class_floor(cap: usize) -> usize {
    if cap <= EXACT_CLASS_MAX {
        return cap;
    }
    let octave = usize::BITS - 1 - cap.leading_zeros();
    cap - cap % class_step(octave)
}

/// Globally enables or disables recycling at runtime (overridden off by
/// `BOOTLEG_ARENA=0`). Disabling does not drop already-pooled buffers; it
/// just makes [`take`] allocate fresh and [`release`] drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` if recycling is active on this thread.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && FREE.with(|f| f.borrow().env_enabled)
}

/// Takes a buffer of exactly `len` elements with **unspecified contents**
/// (stale values from a prior use, or zeros if freshly allocated). Use only
/// when every element is overwritten before being read; use [`take_zeroed`]
/// otherwise.
pub fn take(len: usize) -> Vec<f32> {
    if enabled() && len >= MIN_RECYCLE_LEN {
        let class = class_ceil(len);
        let hit = FREE.with(|f| {
            let mut f = f.borrow_mut();
            let v = f.buckets.get_mut(&class).and_then(Vec::pop);
            if let Some(ref buf) = v {
                f.held_bytes -= buf.capacity() * std::mem::size_of::<f32>();
            }
            v
        });
        if let Some(mut buf) = hit {
            counter!("arena.hit").inc();
            buf.resize(len, 0.0);
            return buf;
        }
        counter!("arena.miss").inc();
        // Reserve the whole class so the buffer is reusable for every
        // length of the class once released.
        let mut buf = Vec::with_capacity(class);
        buf.resize(len, 0.0);
        return buf;
    }
    counter!("arena.miss").inc();
    vec![0.0; len]
}

/// Takes a buffer of exactly `len` elements, all zero.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.iter_mut().for_each(|x| *x = 0.0);
    buf
}

/// Returns a buffer to this thread's free-list for later reuse. Dropped
/// (not pooled) when recycling is disabled, the buffer is tiny, or a cap is
/// hit.
pub fn release(buf: Vec<f32>) {
    counter!("arena.release").inc();
    let cap = buf.capacity();
    let bytes = cap * std::mem::size_of::<f32>();
    if !enabled() || cap < MIN_RECYCLE_LEN {
        counter!("arena.drop").inc();
        return;
    }
    FREE.with(|f| {
        let mut f = f.borrow_mut();
        if f.held_bytes + bytes > MAX_THREAD_BYTES {
            counter!("arena.drop").inc();
            return;
        }
        let bucket = f.buckets.entry(class_floor(cap)).or_default();
        if bucket.len() >= MAX_PER_BUCKET {
            counter!("arena.drop").inc();
            return;
        }
        bucket.push(buf);
        f.held_bytes += bytes;
    });
}

/// Releases a tensor's buffer back to the arena.
pub fn release_tensor(t: Tensor) {
    release(t.into_data());
}

/// A zero-filled tensor whose buffer comes from the arena.
pub fn zeros_tensor(shape: &[usize]) -> Tensor {
    Tensor::new(shape, take_zeroed(crate::shape::numel(shape)))
}

/// A copy of `t` whose buffer comes from the arena.
pub fn clone_tensor(t: &Tensor) -> Tensor {
    let mut buf = take(t.numel());
    buf.copy_from_slice(t.data());
    Tensor::new(t.dims(), buf)
}

/// A scoped arena-backed copy of a tensor: derefs to [`Tensor`] and returns
/// its buffer to the arena on drop. Used for the short-lived value copies the
/// backward pass needs to satisfy the borrow checker.
pub struct TempTensor(Option<Tensor>);

impl Deref for TempTensor {
    type Target = Tensor;

    #[inline]
    fn deref(&self) -> &Tensor {
        self.0.as_ref().expect("TempTensor already dropped")
    }
}

impl Drop for TempTensor {
    fn drop(&mut self) {
        if let Some(t) = self.0.take() {
            release_tensor(t);
        }
    }
}

/// An arena-backed scoped copy of `t` (see [`TempTensor`]).
pub fn temp_clone(t: &Tensor) -> TempTensor {
    TempTensor(Some(clone_tensor(t)))
}

/// Drops every pooled buffer on this thread. Mainly for tests and for
/// bounding memory between phases.
pub fn clear_thread() {
    FREE.with(|f| {
        let mut f = f.borrow_mut();
        f.buckets.clear();
        f.held_bytes = 0;
    });
}

/// Bytes currently pooled on this thread, counted by buffer capacity.
pub fn thread_held_bytes() -> usize {
    FREE.with(|f| f.borrow().held_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Arena state is thread-local and the process-global ENABLED flag is
    // shared across tests, so each test runs on its own thread with the
    // flag left enabled.
    fn on_own_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    /// Tests that assert pooling behaviour can't run under the
    /// `BOOTLEG_ARENA=0` kill switch (CI exercises the whole suite that way).
    fn pooling_disabled_by_env() -> bool {
        std::env::var("BOOTLEG_ARENA").is_ok_and(|v| v == "0")
    }

    #[test]
    fn take_release_roundtrip_reuses_buffer() {
        if pooling_disabled_by_env() {
            return;
        }
        on_own_thread(|| {
            clear_thread();
            let mut a = take(64);
            a.iter_mut().for_each(|x| *x = 7.0);
            let ptr = a.as_ptr();
            release(a);
            let b = take(64);
            assert_eq!(b.as_ptr(), ptr, "expected the recycled buffer back");
            assert_eq!(b.len(), 64);
            // Contents are unspecified for take(): stale values may persist.
            assert_eq!(b[0], 7.0);
            release(b);
            let c = take_zeroed(64);
            assert!(c.iter().all(|&x| x == 0.0));
        });
    }

    #[test]
    fn mismatched_length_is_a_miss() {
        on_own_thread(|| {
            clear_thread();
            release(take(64));
            let b = take(128);
            assert_eq!(b.len(), 128);
            assert!(b.iter().all(|&x| x == 0.0), "fresh buffer must be zeroed");
        });
    }

    #[test]
    fn shorter_request_in_same_class_reuses_buffer() {
        if pooling_disabled_by_env() {
            return;
        }
        on_own_thread(|| {
            clear_thread();
            let a = take(80);
            assert_eq!(a.capacity(), 80);
            let ptr = a.as_ptr();
            release(a);
            // 65..=80 share the class of 80.
            let b = take(70);
            assert_eq!(b.as_ptr(), ptr, "a shorter length of the same class must hit");
            assert_eq!(b.len(), 70);
            release(b);
            let c = take(81);
            assert_ne!(c.as_ptr(), ptr, "the next class up must miss");
            assert_eq!(c.len(), 81);
        });
    }

    #[test]
    fn held_bytes_count_capacity() {
        if pooling_disabled_by_env() {
            return;
        }
        on_own_thread(|| {
            clear_thread();
            let mut v = Vec::with_capacity(100);
            v.resize(10, 1.0f32);
            release(v);
            assert_eq!(thread_held_bytes(), 100 * std::mem::size_of::<f32>());
            // Capacity 100 is filed under class 96, which it fully covers.
            let b = take(96);
            assert_eq!(b.len(), 96);
            assert_eq!(b.capacity(), 100);
            assert_eq!(thread_held_bytes(), 0);
        });
    }

    #[test]
    fn class_slack_is_at_most_a_quarter() {
        for len in 1..20_000usize {
            let c = class_ceil(len);
            assert!(c >= len, "class {c} cannot hold {len}");
            assert!(4 * (c - len) <= len, "class {c} over-reserves {len} by more than 25%");
            assert_eq!(class_floor(c), c, "class sizes are fixed points");
            let f = class_floor(len);
            assert!(f <= len && class_ceil(f) == f, "floor {f} of {len} is not a class");
            assert!(len < EXACT_CLASS_MAX || 4 * (len - f) < len, "floor {f} wastes {len}");
        }
        let mut classes: Vec<usize> = (1..=40).map(class_ceil).collect();
        classes.dedup();
        assert_eq!(classes, [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40]);
    }

    #[test]
    fn tiny_buffers_not_pooled() {
        on_own_thread(|| {
            clear_thread();
            release(take(MIN_RECYCLE_LEN - 1));
            assert_eq!(thread_held_bytes(), 0);
        });
    }

    #[test]
    fn bucket_cap_drops_overflow() {
        if pooling_disabled_by_env() {
            return;
        }
        on_own_thread(|| {
            clear_thread();
            for _ in 0..MAX_PER_BUCKET + 5 {
                release(vec![0.0; 64]);
            }
            let expected = MAX_PER_BUCKET * 64 * std::mem::size_of::<f32>();
            assert_eq!(thread_held_bytes(), expected);
        });
    }

    #[test]
    fn disabled_arena_allocates_fresh() {
        on_own_thread(|| {
            clear_thread();
            release(take(64));
            set_enabled(false);
            let before = thread_held_bytes();
            let b = take(64);
            assert!(b.iter().all(|&x| x == 0.0));
            assert_eq!(thread_held_bytes(), before, "disabled take must not pop the pool");
            release(b);
            assert_eq!(thread_held_bytes(), before, "disabled release must drop");
            set_enabled(true);
        });
    }

    #[test]
    fn tensor_helpers() {
        if pooling_disabled_by_env() {
            return;
        }
        on_own_thread(|| {
            clear_thread();
            let z = zeros_tensor(&[4, 8]);
            assert_eq!(z.shape(), &[4, 8]);
            assert!(z.data().iter().all(|&x| x == 0.0));
            let src = Tensor::from_slice(&[1.0; 32]);
            let c = clone_tensor(&src);
            assert_eq!(c, src);
            {
                let t = temp_clone(&src);
                assert_eq!(t.data(), src.data());
            }
            // temp_clone's buffer was released on drop: the next same-size
            // take should hit.
            release_tensor(c);
            assert!(thread_held_bytes() > 0);
        });
    }
}
