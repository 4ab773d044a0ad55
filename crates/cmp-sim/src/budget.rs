//! Process-wide core-budget arbiter for nested parallelism.
//!
//! Every layer of this workspace can spend threads: the experiment
//! harness fans (benchmark × scheme) jobs over an outer worker pool, each
//! simulation can run its LLC slices / set shards on scoped workers
//! ([`crate::shard`], [`crate::slice`]), each workload thread can generate
//! on a pipelined producer ([`crate::pipeline`]), and trace
//! materialisation packs one stream per workload thread. Sized
//! independently from [`std::thread::available_parallelism`], those layers
//! multiply: M outer jobs × N inner workers oversubscribes the host, while
//! an inner engine that sees a "busy" machine serialises even when the
//! host is idle. This module provides the single source of truth they
//! arbitrate through instead.
//!
//! The model is a fixed pool of **core tokens** (total = `--jobs` /
//! `ICP_CORES` / host cores). Every running thread implicitly holds one
//! token, so an engine that wants `k` workers leases `k - 1` *extra*
//! tokens and runs with `1 + granted` — degrading all the way to its
//! bit-identical inline path when the pool is dry. Leases are RAII
//! guards: the shard and slice engines lease per interval and return at
//! the merge barrier, pipeline producers hold one token for their
//! lifetime and return it at the join boundary, so parallelism freed by a
//! draining outer pool is immediately available to widen the tail.
//!
//! Budget arbitration never changes results — only where and when work
//! executes. Every engine's leased path is pinned bit-identical to its
//! serial reference (`tests/shard_equivalence.rs`,
//! `tests/slice_equivalence.rs`, `tests/stream_equivalence.rs`), and
//! `tests/determinism.rs` pins whole-run digests across budgets.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A fixed pool of core tokens shared by every parallelism layer.
///
/// `total` counts cores including the one the calling thread already
/// occupies; the leasable *spare* pool therefore starts at `total - 1`.
/// The low-water mark of the spare pool is tracked so tests and the bench
/// harness can read back the peak number of live workers
/// ([`CoreBudget::peak_threads`]).
#[derive(Debug)]
pub struct CoreBudget {
    total: usize,
    /// Extra tokens currently available beyond the implicit one per
    /// running thread.
    spare: AtomicUsize,
    /// Minimum `spare` ever observed (watermark for peak-thread checks).
    low_water: AtomicUsize,
}

impl CoreBudget {
    /// A budget of `total` cores (clamped to at least 1). The calling
    /// thread's core is included: a budget of 1 leases nothing and every
    /// engine runs its inline path.
    pub fn new(total: usize) -> Arc<CoreBudget> {
        let total = total.max(1);
        Arc::new(CoreBudget {
            total,
            spare: AtomicUsize::new(total - 1),
            low_water: AtomicUsize::new(total - 1),
        })
    }

    /// The configured core count (including the implicit caller token).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Extra tokens currently available for leasing.
    pub fn spare(&self) -> usize {
        self.spare.load(Ordering::Acquire)
    }

    /// Leases up to `want` extra tokens, returning a guard holding
    /// however many were free (possibly zero). Never blocks: callers fall
    /// back to their bit-identical inline path when the grant is zero.
    /// Tokens return to the pool when the guard drops.
    pub fn lease(self: &Arc<Self>, want: usize) -> Lease {
        let mut granted = 0;
        if want > 0 {
            let mut seen = self.spare.load(Ordering::Acquire);
            loop {
                let take = seen.min(want);
                if take == 0 {
                    break;
                }
                match self.spare.compare_exchange(
                    seen,
                    seen - take,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        granted = take;
                        self.low_water.fetch_min(seen - take, Ordering::AcqRel);
                        break;
                    }
                    Err(now) => seen = now,
                }
            }
        }
        Lease { budget: Arc::clone(self), tokens: granted }
    }

    /// Peak live worker count implied by the lease watermark: the implicit
    /// caller thread plus the largest number of extra tokens ever out on
    /// lease since the last [`CoreBudget::reset_watermark`]. Every worker
    /// thread in this workspace holds exactly one leased token, so this
    /// bounds the number of simultaneously live threads.
    pub fn peak_threads(&self) -> usize {
        let spare_at_start = self.total - 1;
        1 + (spare_at_start - self.low_water.load(Ordering::Acquire).min(spare_at_start))
    }

    /// Restarts peak tracking from the current spare level.
    pub fn reset_watermark(&self) {
        self.low_water.store(self.spare.load(Ordering::Acquire), Ordering::Release);
    }
}

/// RAII grant of extra core tokens; tokens return to the pool on drop.
/// Send, so an engine can hand a token to the worker thread it covers
/// (pipeline producers do) and return it exactly when that worker exits.
#[derive(Debug)]
pub struct Lease {
    budget: Arc<CoreBudget>,
    tokens: usize,
}

impl Lease {
    /// Extra tokens granted (0 ⇒ run inline).
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.tokens > 0 {
            self.budget.spare.fetch_add(self.tokens, Ordering::AcqRel);
        }
    }
}

/// Host parallelism fallback for the global budget. The only ambient
/// sizing read left in the workspace: it picks how much parallelism to
/// spend, never what any simulation computes.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parses an `ICP_CORES` value against the host's core count `host`.
/// A positive integer is the budget total, even above `host` (an
/// oversubscribed budget is a legitimate choice and results do not
/// depend on it). Anything else falls back to `host`, with the warning
/// to print naming the rejected value and the fallback.
fn parse_cores(raw: &str, host: usize) -> (usize, Option<String>) {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => (n, None),
        _ => (
            host,
            Some(format!(
                "ICP_CORES={raw:?} is not a positive integer; using {host} host cores"
            )),
        ),
    }
}

static GLOBAL: OnceLock<Arc<CoreBudget>> = OnceLock::new();

/// The process-wide budget: `ICP_CORES` if set, else host cores —
/// initialised on first use, or earlier by [`configure_total`]. A bad
/// `ICP_CORES` value is reported on stderr, never silently ignored.
pub fn global() -> &'static Arc<CoreBudget> {
    GLOBAL.get_or_init(|| {
        let total = match std::env::var("ICP_CORES") {
            Ok(raw) => {
                let (total, warning) = parse_cores(&raw, host_parallelism());
                if let Some(w) = warning {
                    eprintln!("warning: {w}");
                }
                total
            }
            Err(_) => host_parallelism(),
        };
        CoreBudget::new(total)
    })
}

/// Installs `total` as the process-wide budget (the binaries' `--jobs`
/// flag). Returns `false` if the global budget was already initialised —
/// call before any parallel work.
pub fn configure_total(total: usize) -> bool {
    GLOBAL.set(CoreBudget::new(total)).is_ok()
}

std::thread_local! {
    /// Scoped overrides, innermost last. Thread-local so parallel tests
    /// can each pin their own budget without races; pools that spawn
    /// workers re-enter [`scoped`] on each worker to propagate.
    static OVERRIDE: RefCell<Vec<Arc<CoreBudget>>> = const { RefCell::new(Vec::new()) };
}

/// The budget in force on this thread: the innermost [`scoped`] override,
/// else the process-wide [`global`] budget.
pub fn current() -> Arc<CoreBudget> {
    let over = OVERRIDE.with(|o| o.borrow().last().cloned());
    over.unwrap_or_else(|| Arc::clone(global()))
}

/// Runs `f` with `budget` as this thread's [`current`] budget, restoring
/// the previous budget afterwards (also on unwind).
pub fn scoped<R>(budget: Arc<CoreBudget>, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(budget));
    let _pop = Pop;
    f()
}

/// Maps `f` over `0..n` on workers leased from the [`current`] budget,
/// returning outputs in index order. Up to `n - 1` extra tokens are
/// leased; the indices are cut into one contiguous chunk per worker, the
/// caller works chunk 0 while scoped workers run the rest, and chunks are
/// joined in index order — so the output equals `(0..n).map(f)` whatever
/// the grant. Tokens return at the join boundary (also on unwind); a
/// panicking worker's payload is re-raised on the caller. With a dry pool
/// the caller maps everything itself.
pub fn map_chunked<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let lease = current().lease(n.saturating_sub(1));
    let workers = (1 + lease.tokens()).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let base = n / workers;
    let extra = n % workers;
    let mut starts = Vec::with_capacity(workers + 1);
    let mut at = 0;
    for i in 0..workers {
        starts.push(at);
        at += base + usize::from(i < extra);
    }
    starts.push(n);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = starts
            .windows(2)
            .skip(1)
            .map(|w| {
                let range = w[0]..w[1];
                scope.spawn(move || range.map(f).collect::<Vec<_>>())
            })
            .collect();
        let mut out: Vec<T> = (starts[0]..starts[1]).map(f).collect();
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
    // `lease` drops here: tokens return at the join boundary.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_spare_and_returns_on_drop() {
        let b = CoreBudget::new(4);
        assert_eq!(b.total(), 4);
        assert_eq!(b.spare(), 3);
        let l1 = b.lease(2);
        assert_eq!(l1.tokens(), 2);
        assert_eq!(b.spare(), 1);
        let l2 = b.lease(5);
        assert_eq!(l2.tokens(), 1, "partial grant of what is left");
        let l3 = b.lease(1);
        assert_eq!(l3.tokens(), 0, "dry pool grants nothing");
        drop(l2);
        drop(l3);
        assert_eq!(b.spare(), 1);
        drop(l1);
        assert_eq!(b.spare(), 3, "all tokens returned");
    }

    #[test]
    fn budget_of_one_never_grants() {
        let b = CoreBudget::new(1);
        assert_eq!(b.spare(), 0);
        assert_eq!(b.lease(8).tokens(), 0);
        assert_eq!(b.peak_threads(), 1);
    }

    #[test]
    fn zero_total_clamps_to_one() {
        let b = CoreBudget::new(0);
        assert_eq!(b.total(), 1);
        assert_eq!(b.lease(1).tokens(), 0);
    }

    #[test]
    fn watermark_tracks_peak_leases() {
        let b = CoreBudget::new(4);
        {
            let _a = b.lease(1);
            let _c = b.lease(1);
        }
        assert_eq!(b.peak_threads(), 3, "two extras were out at once");
        b.reset_watermark();
        assert_eq!(b.peak_threads(), 1);
        let _d = b.lease(3);
        assert_eq!(b.peak_threads(), 4);
    }

    #[test]
    fn scoped_overrides_nest_and_restore() {
        let outer = CoreBudget::new(2);
        let inner = CoreBudget::new(7);
        scoped(Arc::clone(&outer), || {
            assert_eq!(current().total(), 2);
            scoped(Arc::clone(&inner), || {
                assert_eq!(current().total(), 7);
            });
            assert_eq!(current().total(), 2);
        });
        // Out of scope: back to the global (whatever it is, not ours).
        assert!(!Arc::ptr_eq(&current(), &outer));
    }

    #[test]
    fn icp_cores_parse_accepts_positive_integers() {
        assert_eq!(parse_cores("3", 2), (3, None));
        assert_eq!(parse_cores(" 1\n", 8), (1, None), "surrounding whitespace is tolerated");
        // Far above the host: an oversubscribed budget, taken as given.
        assert_eq!(parse_cores("4096", 2), (4096, None));
    }

    #[test]
    fn icp_cores_parse_rejects_nonsense_with_a_named_fallback() {
        for raw in ["0", "abc", "-3", "", "2.5", "99999999999999999999999"] {
            let (total, warning) = parse_cores(raw, 6);
            assert_eq!(total, 6, "{raw:?} falls back to the host cores");
            let w = warning.unwrap_or_else(|| panic!("{raw:?} must warn"));
            assert!(w.contains(&format!("{raw:?}")), "warning names the value: {w}");
            assert!(w.contains("using 6 host cores"), "warning names the fallback: {w}");
        }
    }

    #[test]
    fn map_chunked_keeps_index_order_and_returns_tokens() {
        for total in [1usize, 2, 3, 8] {
            let b = CoreBudget::new(total);
            scoped(Arc::clone(&b), || {
                for n in [0usize, 1, 2, 5, 16] {
                    let out = map_chunked(n, |i| i * 10);
                    assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>(), "n={n}");
                }
            });
            assert_eq!(b.spare(), total - 1, "budget={total}: tokens leaked");
            assert!(b.peak_threads() <= total, "budget={total}: over budget");
        }
    }

    #[test]
    fn map_chunked_reraises_worker_panics_and_returns_tokens() {
        let b = CoreBudget::new(4);
        let caught = std::panic::catch_unwind(|| {
            scoped(Arc::clone(&b), || {
                map_chunked(8, |i| {
                    assert!(i != 7, "injected failure in the last chunk");
                    i
                })
            })
        });
        assert!(caught.is_err(), "the worker's panic reaches the caller");
        assert_eq!(b.spare(), 3, "tokens returned on unwind");
    }

    #[test]
    fn leases_are_send_across_scoped_threads() {
        let b = CoreBudget::new(3);
        let lease = b.lease(1);
        assert_eq!(lease.tokens(), 1);
        std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    // Worker holds the token for its lifetime.
                    let held = lease;
                    assert_eq!(held.tokens(), 1);
                })
                .join()
                .unwrap();
        });
        assert_eq!(b.spare(), 2, "token returned at the join boundary");
    }
}
