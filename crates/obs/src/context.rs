//! The one per-thread task context — the innermost open span and the
//! current [`JobScope`] — and the rayon shim's single hook, which copies
//! it by value onto every worker a parallel operation spawns.

use crate::metrics::Counter;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-counter sums of one [`JobScope`], indexed by counter id.
type Sums = Mutex<Vec<u64>>;

struct Context {
    /// The innermost open span (0 = none), parent of what is recorded here.
    span: Cell<u64>,
    /// The scope collecting this thread's counter bumps, if any.
    scope: RefCell<Option<Arc<Sums>>>,
}

thread_local! {
    static CONTEXT: Context = const {
        Context { span: Cell::new(0), scope: RefCell::new(None) }
    };
}

/// Sets the rayon shim's context hook (idempotent).
pub(crate) fn propagate() {
    rayon::set_task_context_hook(|| {
        let (span, scope) = CONTEXT.with(|c| (c.span.get(), c.scope.borrow().clone()));
        Box::new(move || {
            CONTEXT.with(|c| {
                c.span.set(span);
                c.scope.replace(scope.clone());
            });
        })
    });
}

/// The innermost open span on this thread (0 = none).
pub(crate) fn current_span() -> u64 {
    CONTEXT.with(|c| c.span.get())
}

/// Makes `id` the innermost open span, returning the previous one.
pub(crate) fn swap_span(id: u64) -> u64 {
    CONTEXT.with(|c| c.span.replace(id))
}

/// Adds `n` to counter `id` in this thread's open scope, if any.
pub(crate) fn record(id: usize, n: u64) {
    let _ = CONTEXT.try_with(|c| {
        if let Some(sums) = &*c.scope.borrow() {
            let mut sums = sums.lock().unwrap_or_else(PoisonError::into_inner);
            if sums.len() <= id {
                sums.resize(id + 1, 0);
            }
            sums[id] += n;
        }
    });
}

/// A per-job counter scope: every [`Counter`] bump made on the thread
/// that opened it, or on a rayon worker its tasks fan out to, lands in
/// the scope as well as in the process-wide total. Scopes nest last-wins
/// per thread; dropping one (also while unwinding) restores the scope
/// that was current when it began.
pub struct JobScope {
    sums: Arc<Sums>,
    prev: Option<Arc<Sums>>,
}

impl JobScope {
    /// Opens a scope on the current thread.
    pub fn begin() -> JobScope {
        propagate();
        let sums = Arc::new(Sums::default());
        let prev = CONTEXT.with(|c| c.scope.replace(Some(Arc::clone(&sums))));
        JobScope { sums, prev }
    }

    /// What this scope has collected of `counter` so far.
    pub fn get(&self, counter: &Counter) -> u64 {
        let sums = self.sums.lock().unwrap_or_else(PoisonError::into_inner);
        sums.get(counter.id).copied().unwrap_or(0)
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        let _ = CONTEXT.try_with(|c| {
            let mut current = c.scope.borrow_mut();
            if current.as_ref().is_some_and(|s| Arc::ptr_eq(s, &self.sums)) {
                *current = self.prev.take();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter;

    #[test]
    fn job_scope_attributes_only_its_own_work() {
        let (computed, reused) = (counter("obs_test_computed"), counter("obs_test_reused"));
        let scope = JobScope::begin();
        computed.add(5);
        // Unscoped work on another thread must not leak into this scope.
        std::thread::spawn(move || computed.add(1000))
            .join()
            .expect("bump thread");
        reused.add(2);
        assert_eq!((scope.get(computed), scope.get(reused)), (5, 2));
    }

    #[test]
    fn job_scope_propagates_to_parallel_workers() {
        use rayon::prelude::*;
        let words = counter("obs_test_words");
        let scope = JobScope::begin();
        (0..64usize).into_par_iter().for_each(|_| words.inc());
        assert_eq!(
            scope.get(words),
            64,
            "scoped bumps from rayon workers must land in the scope"
        );
    }

    #[test]
    fn job_scopes_nest_and_restore() {
        let rounds = counter("obs_test_rounds");
        let outer = JobScope::begin();
        rounds.inc();
        {
            let inner = JobScope::begin();
            rounds.inc();
            assert_eq!(inner.get(rounds), 1, "inner sees only inner work");
        }
        rounds.inc();
        assert_eq!(
            outer.get(rounds),
            2,
            "outer resumes after the inner scope ends (inner bumps are the inner scope's)"
        );
    }
}
