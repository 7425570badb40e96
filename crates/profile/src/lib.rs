//! Performance observability for the simulation stack.
//!
//! Three layers, all dependency-free so every crate in the workspace can
//! use them:
//!
//! * [`Profiler`] — hierarchical scoped phase timers. A profiler is
//!   cheaply cloneable (a shared handle); it starts *disabled*, and a
//!   disabled profiler's [`Profiler::scope`] is a single boolean load —
//!   hot paths keep it unconditionally.
//! * [`sampler`] — process-level samplers: peak RSS from
//!   `/proc/self/status` and a counting global allocator (behind the
//!   `count-allocs` feature).
//! * [`report`] — the perf cell of a profiled run ([`RunPerf`], with its
//!   [`PhaseRow`]s and [`MsgRow`]s). `flower-bench` writes the cells as
//!   `BENCH_<label>.json`; whether a change is faster is decided by the
//!   repository benchmark (`benchmark/`).

pub mod report;
pub mod sampler;

pub use report::{MsgRow, PhaseRow, RunPerf};
#[cfg(feature = "count-allocs")]
pub use sampler::CountingAlloc;
pub use sampler::{alloc_count, peak_rss_bytes};

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// One phase in the tree: a `&'static str` label aggregated under its
/// parent. Children are kept in first-entry order so reports are
/// deterministic for a deterministic run.
struct PhaseNode {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
}

struct ProfState {
    /// `nodes[0]` is the synthetic root; real phases hang off it.
    nodes: Vec<PhaseNode>,
    /// Stack of open scopes (indices into `nodes`), root at the bottom.
    stack: Vec<usize>,
}

impl ProfState {
    fn new() -> ProfState {
        ProfState {
            nodes: vec![PhaseNode {
                name: "",
                children: Vec::new(),
                count: 0,
                total_ns: 0,
            }],
            stack: vec![0],
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let top = *self.stack.last().expect("root never popped");
        let found = self.nodes[top]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let idx = match found {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(PhaseNode {
                    name,
                    children: Vec::new(),
                    count: 0,
                    total_ns: 0,
                });
                self.nodes[top].children.push(i);
                i
            }
        };
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, elapsed_ns: u64) {
        let popped = self.stack.pop().expect("scope stack underflow");
        debug_assert_eq!(popped, idx, "phase scopes must close in LIFO order");
        let node = &mut self.nodes[idx];
        node.count += 1;
        node.total_ns += elapsed_ns;
    }

    fn rows(&self) -> Vec<PhaseRow> {
        let mut rows = Vec::new();
        self.flatten(0, "", &mut rows);
        rows
    }

    fn flatten(&self, idx: usize, prefix: &str, out: &mut Vec<PhaseRow>) {
        let node = &self.nodes[idx];
        let path = if idx == 0 {
            String::new()
        } else if prefix.is_empty() {
            node.name.to_string()
        } else {
            format!("{prefix}/{}", node.name)
        };
        if idx != 0 {
            let child_ns: u64 = node.children.iter().map(|&c| self.nodes[c].total_ns).sum();
            out.push(PhaseRow {
                path: path.clone(),
                count: node.count,
                total_ns: node.total_ns,
                self_ns: node.total_ns.saturating_sub(child_ns),
            });
        }
        for &c in &node.children {
            self.flatten(c, &path, out);
        }
    }
}

struct ProfCore {
    enabled: Cell<bool>,
    state: RefCell<ProfState>,
}

/// Shared handle to a phase-timer tree. Cloning shares the underlying
/// state, so a handle can be distributed into the world and every peer
/// context at construction time and flipped on later with
/// [`Profiler::enable`].
///
/// Single-threaded by design (the simulations are single-threaded); the
/// handle is `!Send` like the worlds it instruments.
#[derive(Clone)]
pub struct Profiler(Rc<ProfCore>);

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh, *disabled* profiler.
    pub fn new() -> Profiler {
        Profiler(Rc::new(ProfCore {
            enabled: Cell::new(false),
            state: RefCell::new(ProfState::new()),
        }))
    }

    /// Start recording. Scopes opened before this call were no-ops.
    pub fn enable(&self) {
        self.0.enabled.set(true);
    }

    /// Whether the profiler is currently recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.get()
    }

    /// Open a timed phase scope nested under the innermost open scope.
    /// Disabled: one boolean load, no clock read, no allocation. The
    /// guard owns a handle, so it never borrows the profiler's owner.
    #[inline]
    pub fn scope(&self, name: &'static str) -> PhaseGuard {
        if !self.0.enabled.get() {
            return PhaseGuard { live: None };
        }
        let idx = self.0.state.borrow_mut().enter(name);
        PhaseGuard {
            live: Some((self.clone(), idx, Instant::now())),
        }
    }

    /// Like [`Profiler::scope`] but the label is computed lazily, for
    /// labels that cost something to derive (a match over a message enum).
    #[inline]
    pub fn scope_with(&self, name: impl FnOnce() -> &'static str) -> PhaseGuard {
        if !self.0.enabled.get() {
            return PhaseGuard { live: None };
        }
        self.scope(name())
    }

    /// Flamegraph-style rows (pre-order, `a/b/c` paths) with self and
    /// total times. `self_ns` is total minus the children's totals.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        self.0.state.borrow().rows()
    }
}

/// RAII guard returned by [`Profiler::scope`]; closes the phase on drop.
pub struct PhaseGuard {
    live: Option<(Profiler, usize, Instant)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((prof, idx, started)) = self.live.take() {
            let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            prof.0.state.borrow_mut().exit(idx, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::new();
        {
            let _a = p.scope("a");
            let _b = p.scope("b");
        }
        assert!(p.phase_rows().is_empty());
    }

    #[test]
    fn scopes_nest_and_aggregate() {
        let p = Profiler::new();
        p.enable();
        for _ in 0..3 {
            let _outer = p.scope("dispatch");
            {
                let _inner = p.scope("gossip");
            }
            {
                let _inner = p.scope("query");
            }
        }
        let rows = p.phase_rows();
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["dispatch", "dispatch/gossip", "dispatch/query"]);
        let dispatch = &rows[0];
        assert_eq!(dispatch.count, 3);
        let child_total: u64 = rows[1..].iter().map(|r| r.total_ns).sum();
        assert!(dispatch.total_ns >= child_total, "children sum ≤ parent");
        for r in &rows {
            assert!(r.self_ns <= r.total_ns, "self ≤ total for {}", r.path);
        }
        assert_eq!(dispatch.self_ns, dispatch.total_ns - child_total);
    }

    #[test]
    fn clones_share_state_and_late_enable_works() {
        let p = Profiler::new();
        let handle = p.clone();
        {
            let _pre = handle.scope("early");
        }
        p.enable();
        assert!(handle.is_enabled(), "clones see enable()");
        {
            let _g = handle.scope("late");
        }
        let rows = p.phase_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].path, "late");
    }
}
