//! Asserts the steady-state Newton step of the GP kernel performs **zero
//! heap allocations**: assembly from the cached evaluation of the current
//! iterate, barrier scatter, packed ridged Cholesky solve, line-search
//! trials evaluated into the trial buffer, and the swap on accept all
//! reuse warmed-up buffers.
//!
//! This file holds exactly one `#[test]` and installs a counting global
//! allocator, so the counter window cannot race a sibling test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smart_gp::linalg::{axpy, dot, norm, solve_spd_ridged_packed};
use smart_posy::{GradHessWorkspace, LogEval, LogSystem, Monomial, Posynomial, VarPool};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// All reusable buffers of one solver — the same set the production
/// `NewtonWorkspace` carries.
struct Buffers {
    ws: GradHessWorkspace,
    factor: Vec<f64>,
    rhs: Vec<f64>,
    dir: Vec<f64>,
    trial: Vec<f64>,
    cur: LogEval,
    next: LogEval,
}

/// One full phase-II Newton step exactly as the production solver runs
/// it: assembly from the cached evaluation at `y` (posynomial 0 is the
/// objective), packed ridged solve, then backtracking trials evaluated
/// into `next` until one passes the Armijo test, whereupon the iterate
/// and the evaluations are swapped.
fn newton_step(sys: &LogSystem, y: &mut Vec<f64>, t: f64, b: &mut Buffers) {
    let dim = y.len();
    b.ws.reset(dim);
    let obj_val = sys.stage(0, &b.cur, &mut b.ws);
    b.ws.scatter_staged(t, t, 0.0);
    let mut f0 = t * obj_val;
    for p in 1..sys.len() {
        let fv = sys.stage(p, &b.cur, &mut b.ws);
        assert!(fv < 0.0, "iterate must stay strictly interior");
        f0 -= (-fv).ln();
        let inv = -1.0 / fv;
        b.ws.scatter_staged(inv, inv, inv * inv);
    }
    b.rhs.clear();
    b.rhs.extend(b.ws.grad().iter().map(|&g| -g));
    solve_spd_ridged_packed(b.ws.hess_packed(), dim, &b.rhs, &mut b.factor, &mut b.dir)
        .expect("interior Hessian factors");
    let slope = dot(b.ws.grad(), &b.dir);
    let mut alpha = (8.0 / norm(&b.dir)).min(1.0);
    for _ in 0..60 {
        b.trial.clear();
        b.trial.extend_from_slice(y);
        axpy(alpha, &b.dir, &mut b.trial);
        sys.eval_rows(&b.trial, &mut b.next);
        let mut v = Some(t * sys.eval_posy(0, &mut b.next));
        for p in 1..sys.len() {
            let fv = sys.eval_posy(p, &mut b.next);
            if fv >= 0.0 {
                v = None;
                break;
            }
            v = v.map(|v| v - (-fv).ln());
        }
        if v.is_some_and(|v| v <= f0 + 0.25 * alpha * slope) {
            std::mem::swap(y, &mut b.trial);
            std::mem::swap(&mut b.cur, &mut b.next);
            return;
        }
        alpha *= 0.5;
    }
    panic!("line search stalled; the test problem is too degenerate");
}

#[test]
fn steady_state_newton_step_allocates_nothing() {
    // A chain-structured GP like a sizing problem: each constraint touches
    // two adjacent width variables (support 2 in a 24-dim ambient space),
    // and the constraints' w_{i+1} terms share their exponent rows with the
    // objective's, as the terms of a compacted sizing GP do.
    let dim = 24usize;
    let mut pool = VarPool::new();
    let vars: Vec<_> = (0..dim).map(|i| pool.var(&format!("w{i}"))).collect();
    let obj = vars
        .iter()
        .fold(Posynomial::zero(), |acc, &v| acc + Monomial::var(v));
    let cons: Vec<Posynomial> = (0..dim - 1)
        .map(|i| {
            // 0.2·w_{i+1}/w_i + 0.1/w_i + 0.05·w_{i+1} ≤ 1, strictly
            // interior at x = 1.
            Posynomial::from(Monomial::new(0.2).pow(vars[i + 1], 1.0).pow(vars[i], -1.0))
                + Monomial::new(0.1).pow(vars[i], -1.0)
                + Monomial::new(0.05).pow(vars[i + 1], 1.0)
        })
        .collect();
    let sys = LogSystem::from_posynomials(std::iter::once(&obj).chain(&cons), dim);
    assert!(sys.distinct_rows() < sys.terms(), "rows must be shared");

    let mut y = vec![0.0; dim]; // x = 1: strictly feasible
    let t = 8.0;
    let mut b = Buffers {
        ws: GradHessWorkspace::new(dim),
        factor: Vec::new(),
        rhs: Vec::new(),
        dir: Vec::new(),
        trial: Vec::new(),
        cur: LogEval::default(),
        next: LogEval::default(),
    };
    sys.eval(&y, &mut b.cur);

    // Warm-up: every buffer reaches its steady-state capacity.
    newton_step(&sys, &mut y, t, &mut b);
    newton_step(&sys, &mut y, t, &mut b);

    let before = ALLOCS.load(Ordering::SeqCst);
    newton_step(&sys, &mut y, t, &mut b);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state Newton step performed {} heap allocations",
        after - before
    );
}
