//! Cooperative resource governor: budgets, accounting, and cancellation.
//!
//! The governor is a thread-local accounting context installed around an
//! `optimize` call. Hot paths (the Omega core's elimination loop) charge it
//! with [`tick_omega`]; phase boundaries (the existing trace spans) poll it
//! with [`checkpoint`]. Both return `Err(Exhausted)` once a limit is hit, and
//! callers convert that into their own typed error — exhaustion is a value,
//! never a panic.
//!
//! Design constraints:
//! - **Near-free when idle.** All state lives in plain thread-local `Cell`s;
//!   an inactive governor costs one `Cell::get` per tick. No atomics, no
//!   locks, no `RefCell` borrow flags on the hot path.
//! - **Sound degradation only.** The governor never changes *answers*; it
//!   only stops work. Every limit raises [`Exhausted`]; none makes set
//!   algebra less precise, so a governed run that never trips computes
//!   exactly what an ungoverned run computes.
//! - **Ladder liveness.** A blown deadline would poison every subsequent
//!   governed operation, so fallback rungs call [`rearm`] (fresh grant) and
//!   the final rung runs [`disarm`]ed (accounting continues, enforcement
//!   stops). Total work is bounded by rungs × budget + one polynomial
//!   fallback pass.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one optimizer run. `Default` is unlimited.
///
/// All limits are cooperative: they are polled at operation granularity, so
/// overshoot is bounded by one operation (plus up to [`DEADLINE_STRIDE`]
/// Omega steps for the deadline, which is polled with a stride to keep
/// `Instant::now` off the hot path).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Wall-clock deadline for the run, in milliseconds. `0` is legal and
    /// exhausts at the first poll.
    pub deadline_ms: Option<u64>,
    /// Total Omega elimination steps across the run.
    pub max_omega_ops: Option<u64>,
}

impl Budget {
    /// An explicitly unlimited budget (same as `Default`).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether no limit is set at all.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }
}

/// A budget limit was hit. Carries which limit and the innermost phase
/// (trace-span path) active when it tripped — both static so the error is
/// `Copy` and allocation-free on the cancellation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// Which limit tripped: `"deadline"`, `"omega-ops"`, or an injected name.
    pub limit: &'static str,
    /// The innermost [`checkpoint`] phase active when it tripped.
    pub phase: &'static str,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhausted ({} limit) in phase {}",
            self.limit, self.phase
        )
    }
}

impl std::error::Error for Exhausted {}

/// The `limit` name carried by [`Exhausted`] when a [`CancelToken`] was
/// revoked. Cancellation is *sticky*: unlike a blown deadline, [`rearm`]
/// cannot clear it, so a ladder that absorbs the first trip fails again at
/// the very next poll — callers should treat this limit as fatal for the
/// whole run (see `core::optimize`, which propagates instead of degrading).
pub const CANCELLED: &str = "cancelled";

/// A cross-thread cancellation handle for one governed region.
///
/// The token is shared between the worker thread that installs it (via
/// [`install_with_cancel`]) and any thread that may revoke it. It is
/// revoked by an explicit [`cancel`](Self::cancel) or, for a token built
/// [`with_deadline`](Self::with_deadline), once that instant passes; no
/// other thread has to watch the clock. Revocation is cooperative: the
/// worker observes it at the next [`checkpoint`] or deadline-stride
/// [`tick_omega`] poll and surfaces [`Exhausted`] with the [`CANCELLED`]
/// limit.
///
/// Memory ordering: [`cancel`](Self::cancel) stores the flag with
/// `Release` and the polls load it with `Acquire`. The flag is monotonic
/// (never un-set), so `Relaxed` would already guarantee eventual
/// observation; the Release/Acquire pair additionally makes every write
/// the canceller performed *before* revoking (say, recording the cancel
/// reason in a supervision log) visible to the worker once it observes the
/// flag — at zero extra cost on x86 and one fence on weakly-ordered ISAs.
/// The optional deadline is immutable after construction and needs no
/// synchronization at all.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline: revoked only by an explicit [`cancel`].
    ///
    /// [`cancel`]: Self::cancel
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that auto-revokes at `deadline`, and can also be cancelled
    /// explicitly before that. The governed thread reads the clock at its
    /// own polls, so the deadline needs no watching thread.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Revokes the grant. Idempotent; callable from any thread.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The auto-revoke deadline, if the token has one.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Whether the grant is revoked: explicitly cancelled *or* past its
    /// deadline. This is what the governed thread polls.
    #[must_use]
    pub fn is_revoked(&self) -> bool {
        self.is_cancelled() || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Resources consumed so far by the installed governor (or since install).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Consumed {
    /// Omega elimination steps charged via [`tick_omega`].
    pub omega_ops: u64,
    /// Times a feasibility call hit the built-in branch cap and fell back
    /// to the conservative "feasible" answer.
    pub silent_feasible: u64,
    /// Peak disjunct count observed via [`note_disjuncts`].
    pub peak_disjuncts: usize,
    /// Wall-clock time since [`install`] (or the last [`rearm`]'s epoch
    /// does not reset this: it is total elapsed, not grant-relative).
    pub elapsed: Duration,
}

/// Deadline is polled once per this many Omega ticks (power of two).
pub const DEADLINE_STRIDE: u64 = 256;

const UNSET: &str = "";

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static ENFORCING: Cell<bool> = const { Cell::new(false) };
    static OMEGA_OPS: Cell<u64> = const { Cell::new(0) };
    static OMEGA_CAP: Cell<u64> = const { Cell::new(u64::MAX) };
    static PEAK_DISJUNCTS: Cell<usize> = const { Cell::new(0) };
    static SILENT: Cell<u64> = const { Cell::new(0) };
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
    // The tightest deadline of every *enclosing* governor: nested installs
    // and `rearm` clamp their fresh grants to it so an inner region can
    // never outlive its supervisor's window.
    static CEIL: Cell<Option<Instant>> = const { Cell::new(None) };
    static GRANT: Cell<Option<Duration>> = const { Cell::new(None) };
    static START: Cell<Option<Instant>> = const { Cell::new(None) };
    // Survives guard drop on purpose: a panic unwinds span guards before any
    // catch_unwind handler runs, so the last phase is the only attribution
    // left by the time the panic is converted to an error.
    static PHASE: Cell<&'static str> = const { Cell::new(UNSET) };
    // Cancellation tokens of every nested install that supplied one; a
    // poll checks them all (outer tokens stay in force inside an inner
    // region). Depth is the install nesting depth, in practice <= 2.
    static CANCELS: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`install`]; restores the previous governor state
/// (normally "none") on drop, including during unwinding. The last phase is
/// deliberately left behind for panic attribution.
#[derive(Debug)]
pub struct GovernorGuard {
    prev: Saved,
    pushed_cancel: bool,
}

#[derive(Debug)]
struct Saved {
    active: bool,
    enforcing: bool,
    omega_ops: u64,
    omega_cap: u64,
    peak_disjuncts: usize,
    silent: u64,
    deadline: Option<Instant>,
    ceil: Option<Instant>,
    grant: Option<Duration>,
    start: Option<Instant>,
}

impl Drop for GovernorGuard {
    fn drop(&mut self) {
        // Inner consumption before restoring: when this install was nested
        // inside another governor, the work the inner region did must not
        // vanish from the outer ledger (it used to — an inner install made
        // its whole region invisible to the enclosing budget).
        let inner_ops = OMEGA_OPS.with(Cell::get);
        let inner_silent = SILENT.with(Cell::get);
        let inner_peak = PEAK_DISJUNCTS.with(Cell::get);
        if self.pushed_cancel {
            CANCELS.with(|c| {
                c.borrow_mut().pop();
            });
        }
        ACTIVE.with(|c| c.set(self.prev.active));
        ENFORCING.with(|c| c.set(self.prev.enforcing));
        if self.prev.active {
            OMEGA_OPS.with(|c| c.set(self.prev.omega_ops.saturating_add(inner_ops)));
            SILENT.with(|c| c.set(self.prev.silent.saturating_add(inner_silent)));
            PEAK_DISJUNCTS.with(|c| c.set(self.prev.peak_disjuncts.max(inner_peak)));
        } else {
            OMEGA_OPS.with(|c| c.set(self.prev.omega_ops));
            SILENT.with(|c| c.set(self.prev.silent));
            PEAK_DISJUNCTS.with(|c| c.set(self.prev.peak_disjuncts));
        }
        OMEGA_CAP.with(|c| c.set(self.prev.omega_cap));
        DEADLINE.with(|c| c.set(self.prev.deadline));
        CEIL.with(|c| c.set(self.prev.ceil));
        GRANT.with(|c| c.set(self.prev.grant));
        START.with(|c| c.set(self.prev.start));
    }
}

fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Installs `budget` as this thread's governor until the guard drops.
///
/// Installation happens even for an unlimited budget so accounting
/// (op counts, silent-feasible, peak disjuncts, elapsed) is collected;
/// enforcement is enabled only when some limit is set.
///
/// Nested installs **compose, tightest limit wins**: an inner install
/// under an enforcing outer governor gets at most the outer's *remaining*
/// Omega grant and the minimum of the two deadlines (including through
/// [`rearm`], which clamps to the enclosing window) — so an inner
/// `Budget::unlimited()` can no longer silently lift the outer's limits.
/// On guard drop the inner region's consumption is added back to the outer
/// ledger.
#[must_use]
pub fn install(budget: &Budget) -> GovernorGuard {
    install_with_cancel(budget, None)
}

/// [`install`] plus a cross-thread [`CancelToken`]: while the guard is
/// live, every [`checkpoint`] (and each deadline-stride [`tick_omega`])
/// also polls the token and reports [`Exhausted`] with the [`CANCELLED`]
/// limit once it is revoked. Tokens of enclosing installs remain in force.
/// Cancellation is polled even when the budget itself is unlimited and
/// even after [`disarm`] — a revoked grant must stop the floor rung too.
#[must_use]
pub fn install_with_cancel(budget: &Budget, cancel: Option<CancelToken>) -> GovernorGuard {
    let prev = Saved {
        active: ACTIVE.with(Cell::get),
        enforcing: ENFORCING.with(Cell::get),
        omega_ops: OMEGA_OPS.with(Cell::get),
        omega_cap: OMEGA_CAP.with(Cell::get),
        peak_disjuncts: PEAK_DISJUNCTS.with(Cell::get),
        silent: SILENT.with(Cell::get),
        deadline: DEADLINE.with(Cell::get),
        ceil: CEIL.with(Cell::get),
        grant: GRANT.with(Cell::get),
        start: START.with(Cell::get),
    };
    let outer_enforcing = prev.active && prev.enforcing;
    let now = Instant::now();
    let grant = budget.deadline_ms.map(Duration::from_millis);
    // The enclosing window this region must stay inside: the outer
    // governor's (already-clamped) deadline, when it is enforcing one.
    let ceil = if outer_enforcing {
        min_deadline(prev.ceil, prev.deadline)
    } else {
        None
    };
    let outer_remaining_ops = if outer_enforcing {
        prev.omega_cap.saturating_sub(prev.omega_ops)
    } else {
        u64::MAX
    };
    let pushed_cancel = cancel.is_some();
    if let Some(t) = cancel {
        CANCELS.with(|c| c.borrow_mut().push(t));
    }
    ACTIVE.with(|c| c.set(true));
    ENFORCING.with(|c| c.set(!budget.is_unlimited() || outer_enforcing));
    OMEGA_OPS.with(|c| c.set(0));
    OMEGA_CAP.with(|c| {
        c.set(
            budget
                .max_omega_ops
                .unwrap_or(u64::MAX)
                .min(outer_remaining_ops),
        )
    });
    PEAK_DISJUNCTS.with(|c| c.set(0));
    SILENT.with(|c| c.set(0));
    DEADLINE.with(|c| c.set(min_deadline(grant.map(|d| now + d), ceil)));
    CEIL.with(|c| c.set(ceil));
    GRANT.with(|c| c.set(grant));
    START.with(|c| c.set(Some(now)));
    GovernorGuard {
        prev,
        pushed_cancel,
    }
}

/// Whether a governor is installed on this thread (even unlimited).
#[must_use]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Charges `n` Omega elimination steps. Errors once the op budget or the
/// deadline (polled every [`DEADLINE_STRIDE`] ops) is exhausted.
///
/// # Errors
/// Returns [`Exhausted`] when a limit is hit and the governor is enforcing.
pub fn tick_omega(n: u64) -> Result<(), Exhausted> {
    if !ACTIVE.with(Cell::get) {
        return Ok(());
    }
    let ops = OMEGA_OPS.with(Cell::get).saturating_add(n);
    OMEGA_OPS.with(|c| c.set(ops));
    let stride_crossed = ops % DEADLINE_STRIDE < n;
    if stride_crossed {
        // Cancellation is polled regardless of enforcement: a revoked
        // grant stops even an unlimited-budget or disarmed region.
        check_cancel()?;
    }
    if !ENFORCING.with(Cell::get) {
        return Ok(());
    }
    if ops > OMEGA_CAP.with(Cell::get) {
        return Err(exhausted("omega-ops"));
    }
    if stride_crossed {
        check_deadline()?;
    }
    Ok(())
}

/// Marks the innermost phase and polls every limit. Call at span boundaries.
///
/// # Errors
/// Returns [`Exhausted`] when a limit is hit and the governor is enforcing,
/// or — regardless of enforcement — when an installed [`CancelToken`] has
/// been revoked (limit [`CANCELLED`]).
pub fn checkpoint(phase: &'static str) -> Result<(), Exhausted> {
    if !ACTIVE.with(Cell::get) {
        return Ok(());
    }
    PHASE.with(|c| c.set(phase));
    check_cancel()?;
    if !ENFORCING.with(Cell::get) {
        return Ok(());
    }
    if OMEGA_OPS.with(Cell::get) > OMEGA_CAP.with(Cell::get) {
        return Err(exhausted("omega-ops"));
    }
    check_deadline()
}

fn check_cancel() -> Result<(), Exhausted> {
    let revoked = CANCELS.with(|c| c.borrow().iter().any(CancelToken::is_revoked));
    if revoked {
        return Err(exhausted(CANCELLED));
    }
    Ok(())
}

fn check_deadline() -> Result<(), Exhausted> {
    if let Some(deadline) = DEADLINE.with(Cell::get) {
        if Instant::now() >= deadline {
            return Err(exhausted("deadline"));
        }
    }
    Ok(())
}

fn exhausted(limit: &'static str) -> Exhausted {
    Exhausted {
        limit,
        phase: PHASE.with(Cell::get),
    }
}

/// Grants a fresh op budget and deadline window (same sizes as installed)
/// so a fallback rung is not poisoned by the exhaustion that triggered it.
/// The fresh window is clamped to any enclosing governor's deadline, and a
/// revoked [`CancelToken`] stays revoked — rearm cannot resurrect a
/// cancelled run.
pub fn rearm() {
    if !ACTIVE.with(Cell::get) {
        return;
    }
    OMEGA_OPS.with(|c| c.set(0));
    let grant = GRANT.with(Cell::get);
    let ceil = CEIL.with(Cell::get);
    DEADLINE.with(|c| c.set(min_deadline(grant.map(|d| Instant::now() + d), ceil)));
}

/// Stops enforcement (accounting continues). The last ladder rung runs
/// disarmed so it always completes.
pub fn disarm() {
    ENFORCING.with(|c| c.set(false));
}

/// Records one silent conservative feasibility fallback.
pub fn note_silent_feasible() {
    if ACTIVE.with(Cell::get) {
        SILENT.with(|c| c.set(c.get() + 1));
    }
}

/// Records an observed disjunct count; the governor keeps the peak.
pub fn note_disjuncts(n: usize) {
    if ACTIVE.with(Cell::get) {
        PEAK_DISJUNCTS.with(|c| c.set(c.get().max(n)));
    }
}

/// Resources consumed since [`install`]. Zeroes when no governor is active.
#[must_use]
pub fn consumed() -> Consumed {
    Consumed {
        omega_ops: OMEGA_OPS.with(Cell::get),
        silent_feasible: SILENT.with(Cell::get),
        peak_disjuncts: PEAK_DISJUNCTS.with(Cell::get),
        elapsed: START
            .with(Cell::get)
            .map_or(Duration::ZERO, |s| s.elapsed()),
    }
}

/// The innermost phase last marked by [`checkpoint`] or [`note_phase`] on
/// this thread. Survives guard drop so panic handlers can attribute the
/// failure.
#[must_use]
pub fn last_phase() -> &'static str {
    PHASE.with(Cell::get)
}

/// Marks the innermost phase *without* polling any limit — unlike
/// [`checkpoint`], this can never fail, so it is safe at points where an
/// already-blown budget must still be allowed to degrade rather than
/// error. Sets the phase even when no governor is installed, so panic
/// attribution stays deterministic for ungoverned runs too.
pub fn note_phase(phase: &'static str) {
    PHASE.with(|c| c.set(phase));
}

/// Best-effort extraction of a panic payload's message (`&str` or `String`
/// payloads; anything else renders as a placeholder).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_governor_is_a_no_op() {
        assert!(!active());
        assert!(tick_omega(1_000_000).is_ok());
        assert!(checkpoint("anything").is_ok());
    }

    #[test]
    fn unlimited_budget_accounts_without_enforcing() {
        let _g = install(&Budget::unlimited());
        assert!(active());
        assert!(tick_omega(10).is_ok());
        assert!(tick_omega(5).is_ok());
        note_silent_feasible();
        note_disjuncts(7);
        note_disjuncts(3);
        let c = consumed();
        assert_eq!(c.omega_ops, 15);
        assert_eq!(c.silent_feasible, 1);
        assert_eq!(c.peak_disjuncts, 7);
    }

    #[test]
    fn omega_op_cap_trips_and_names_phase() {
        let budget = Budget {
            max_omega_ops: Some(3),
            ..Budget::default()
        };
        let _g = install(&budget);
        checkpoint("test/phase").unwrap();
        assert!(tick_omega(3).is_ok());
        let err = tick_omega(1).unwrap_err();
        assert_eq!(err.limit, "omega-ops");
        assert_eq!(err.phase, "test/phase");
        assert_eq!(
            err.to_string(),
            "budget exhausted (omega-ops limit) in phase test/phase"
        );
    }

    #[test]
    fn zero_deadline_trips_at_first_checkpoint() {
        let budget = Budget {
            deadline_ms: Some(0),
            ..Budget::default()
        };
        let _g = install(&budget);
        let err = checkpoint("early").unwrap_err();
        assert_eq!(err.limit, "deadline");
    }

    #[test]
    fn rearm_grants_fresh_ops_and_disarm_stops_enforcement() {
        let budget = Budget {
            max_omega_ops: Some(2),
            ..Budget::default()
        };
        let _g = install(&budget);
        assert!(tick_omega(2).is_ok());
        assert!(tick_omega(1).is_err());
        rearm();
        assert!(tick_omega(2).is_ok());
        assert!(tick_omega(1).is_err());
        disarm();
        assert!(tick_omega(100).is_ok());
        // Accounting continued through exhaustion and disarm.
        assert!(consumed().omega_ops >= 100);
    }

    #[test]
    fn nested_install_restores_outer_budget_and_composes_accounting() {
        let outer = Budget {
            max_omega_ops: Some(100),
            ..Budget::default()
        };
        let _g = install(&outer);
        tick_omega(10).unwrap();
        {
            let inner = Budget {
                max_omega_ops: Some(1),
                ..Budget::default()
            };
            let _g2 = install(&inner);
            assert!(tick_omega(2).is_err());
        }
        // Outer cap is back, and the inner region's 2 ops are now charged
        // to the outer ledger instead of vanishing.
        assert_eq!(consumed().omega_ops, 12);
        assert!(tick_omega(50).is_ok());
    }

    #[test]
    fn nested_unlimited_install_cannot_lift_outer_grant() {
        // The historical hazard: an inner `install(&unlimited)` replaced
        // the outer limits wholesale, so everything in the inner region ran
        // ungoverned. Composition keeps the outer's remaining grant.
        let outer = Budget {
            max_omega_ops: Some(10),
            ..Budget::default()
        };
        let _g = install(&outer);
        tick_omega(6).unwrap();
        {
            let _g2 = install(&Budget::unlimited());
            // The inner grant is only what the outer had left.
            assert!(tick_omega(4).is_ok());
            assert!(tick_omega(1).is_err());
        }
    }

    #[test]
    fn cancel_token_revokes_mid_region_from_another_thread() {
        let token = CancelToken::new();
        let remote = token.clone();
        let _g = install_with_cancel(&Budget::unlimited(), Some(token));
        checkpoint("service/attempt").unwrap();
        // Revoke from a supervisor thread; the worker sees it at the next
        // checkpoint even though the budget itself is unlimited.
        std::thread::spawn(move || remote.cancel()).join().unwrap();
        let err = checkpoint("service/attempt").unwrap_err();
        assert_eq!(err.limit, CANCELLED);
        assert_eq!(err.phase, "service/attempt");
        // Rearm cannot resurrect a cancelled region.
        rearm();
        assert_eq!(checkpoint("service/retry").unwrap_err().limit, CANCELLED);
        // Disarm cannot either: cancellation outranks enforcement.
        disarm();
        assert_eq!(checkpoint("service/floor").unwrap_err().limit, CANCELLED);
    }

    #[test]
    fn cancel_deadline_auto_revokes_and_stride_polls_it() {
        let token = CancelToken::with_deadline(Instant::now());
        assert!(token.is_revoked());
        assert!(!token.is_cancelled(), "deadline revocation is implicit");
        {
            let _g = install_with_cancel(&Budget::unlimited(), Some(token));
            // Below the stride no poll happens; crossing it observes the
            // revoked token even with no budget limits set.
            assert!(tick_omega(1).is_ok());
            let err = tick_omega(DEADLINE_STRIDE).unwrap_err();
            assert_eq!(err.limit, CANCELLED);
        }

        // A deadline ahead: nothing trips before it, `checkpoint` trips
        // after it with no other thread involved, and the trip is sticky.
        let deadline = Instant::now() + Duration::from_millis(50);
        let token = CancelToken::with_deadline(deadline);
        let _g = install_with_cancel(&Budget::unlimited(), Some(token.clone()));
        while Instant::now() < deadline {
            // A trip is only an error if the clock, read after it, is
            // still short of the deadline.
            let polled = checkpoint("service/attempt");
            assert!(
                polled.is_ok() || Instant::now() >= deadline,
                "tripped before the deadline"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let err = checkpoint("service/attempt").unwrap_err();
        assert_eq!(err.limit, CANCELLED);
        assert!(!token.is_cancelled(), "deadline revocation is implicit");
        rearm();
        assert_eq!(checkpoint("service/retry").unwrap_err().limit, CANCELLED);
        disarm();
        assert_eq!(checkpoint("service/floor").unwrap_err().limit, CANCELLED);
    }

    #[test]
    fn outer_cancel_token_stays_in_force_inside_nested_install() {
        let token = CancelToken::new();
        let _g = install_with_cancel(&Budget::unlimited(), Some(token.clone()));
        {
            let _g2 = install(&Budget::unlimited());
            token.cancel();
            assert_eq!(checkpoint("inner").unwrap_err().limit, CANCELLED);
        }
        assert_eq!(checkpoint("outer").unwrap_err().limit, CANCELLED);
    }

    #[test]
    fn nested_deadline_clamps_to_enclosing_window_through_rearm() {
        let outer = Budget {
            deadline_ms: Some(0),
            ..Budget::default()
        };
        let _g = install(&outer);
        {
            // Inner asks for a generous fresh window, but the outer's
            // already-expired deadline is the ceiling.
            let inner = Budget {
                deadline_ms: Some(60_000),
                ..Budget::default()
            };
            let _g2 = install(&inner);
            assert_eq!(checkpoint("inner").unwrap_err().limit, "deadline");
            rearm();
            assert_eq!(checkpoint("inner").unwrap_err().limit, "deadline");
        }
    }

    #[test]
    fn last_phase_survives_guard_drop() {
        {
            let _g = install(&Budget::unlimited());
            checkpoint("doomed/phase").unwrap();
        }
        assert_eq!(last_phase(), "doomed/phase");
    }

    #[test]
    fn deadline_polled_on_stride() {
        let budget = Budget {
            deadline_ms: Some(0),
            max_omega_ops: None,
        };
        let _g = install(&budget);
        // Below the stride no deadline poll happens...
        assert!(tick_omega(1).is_ok());
        // ...but a bulk charge crossing the stride boundary polls it.
        assert!(tick_omega(DEADLINE_STRIDE).is_err());
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(s.as_ref()), "kaboom");
        let s: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(s.as_ref()), "<non-string panic payload>");
    }
}
