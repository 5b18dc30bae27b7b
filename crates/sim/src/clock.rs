//! Simulation clock.
//!
//! The paper's stage-2 latency (~43 s) is pure waiting on blockchain
//! machinery: block intervals, confirmation depth, queueing. Re-running the
//! full figure suite against wall-clock Ethereum timings would take hours,
//! so every time-dependent component reads a [`Clock`] instead of
//! `Instant::now()`:
//!
//! - [`Clock::realtime`] — simulated time == wall time.
//! - [`Clock::compressed`] — simulated time advances `factor`× faster than
//!   wall time (benches use ~1000×: a 13 sim-second block interval costs
//!   13 ms of wall time). Every *ratio* between simulated latencies is
//!   preserved exactly.
//! - [`Clock::manual`] — time advances only on [`Clock::advance`], for
//!   deterministic unit tests (e.g. Payment-contract period accounting).

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A point in simulated time, measured from the clock's epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct SimInstant(Duration);

impl SimInstant {
    /// The clock epoch.
    pub const EPOCH: SimInstant = SimInstant(Duration::ZERO);

    /// Duration since an earlier instant (zero if `earlier` is later).
    pub fn since(&self, earlier: SimInstant) -> Duration {
        self.0.saturating_sub(earlier.0)
    }

    /// Offset from the epoch.
    pub fn elapsed(&self) -> Duration {
        self.0
    }

    /// Whole simulated seconds since the epoch (the chain's block-timestamp
    /// unit, mirroring Ethereum's seconds-since-genesis timestamps).
    pub fn as_secs(&self) -> u64 {
        self.0.as_secs()
    }

    /// Adds a simulated duration.
    pub fn add(&self, d: Duration) -> SimInstant {
        SimInstant(self.0 + d)
    }
}

enum Inner {
    /// Wall time scaled by `factor`.
    Scaled { start: Instant, factor: f64 },
    /// Manually advanced time.
    Manual {
        state: Mutex<Duration>,
        waiters: Condvar,
    },
}

/// A shareable simulation clock (cheap to clone).
#[derive(Clone)]
pub struct Clock {
    inner: Arc<Inner>,
}

impl Clock {
    /// A clock where simulated time equals wall time.
    pub fn realtime() -> Clock {
        Clock::compressed(1.0)
    }

    /// A clock where simulated time advances `factor`× faster than wall
    /// time. `factor` must be positive and finite.
    pub fn compressed(factor: f64) -> Clock {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid compression factor"
        );
        Clock {
            inner: Arc::new(Inner::Scaled {
                start: Instant::now(),
                factor,
            }),
        }
    }

    /// A clock that only advances via [`Clock::advance`].
    pub fn manual() -> Clock {
        Clock {
            inner: Arc::new(Inner::Manual {
                state: Mutex::new(Duration::ZERO),
                waiters: Condvar::new(),
            }),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        match &*self.inner {
            Inner::Scaled { start, factor } => SimInstant(Duration::from_secs_f64(
                start.elapsed().as_secs_f64() * factor,
            )),
            Inner::Manual { state, .. } => SimInstant(*state.lock()),
        }
    }

    /// Blocks the calling thread for `d` of simulated time.
    ///
    /// On a scaled clock this is a real sleep of `d / factor`; on a manual
    /// clock it waits until [`Clock::advance`] moves time past the target.
    pub fn sleep(&self, d: Duration) {
        match &*self.inner {
            Inner::Scaled { factor, .. } => {
                std::thread::sleep(Duration::from_secs_f64(d.as_secs_f64() / factor));
            }
            Inner::Manual { state, waiters } => {
                let mut now = state.lock();
                let target = *now + d;
                while *now < target {
                    waiters.wait(&mut now);
                }
            }
        }
    }

    /// Advances a manual clock by `d`, waking sleepers.
    ///
    /// # Panics
    /// Panics if the clock is not manual — advancing wall time is a logic
    /// error, not a runtime condition.
    pub fn advance(&self, d: Duration) {
        match &*self.inner {
            Inner::Manual { state, waiters } => {
                *state.lock() += d;
                waiters.notify_all();
            }
            // lint: allow(panic) — documented `# Panics` contract: advancing a wall clock is a caller logic error, not a runtime condition
            Inner::Scaled { .. } => panic!("advance() requires a manual clock"),
        }
    }

    /// The simulated-per-wall time factor (1.0 for realtime, `None` for
    /// manual clocks).
    pub fn compression(&self) -> Option<f64> {
        match &*self.inner {
            Inner::Scaled { factor, .. } => Some(*factor),
            Inner::Manual { .. } => None,
        }
    }
}

impl core::fmt::Debug for Clock {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &*self.inner {
            Inner::Scaled { factor, .. } => write!(f, "Clock(scaled ×{factor})"),
            Inner::Manual { state, .. } => write!(f, "Clock(manual @ {:?})", *state.lock()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_advances() {
        let clock = Clock::realtime();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        let t1 = clock.now();
        assert!(t1 > t0);
        assert!(t1.since(t0) >= Duration::from_millis(4));
    }

    #[test]
    fn compressed_runs_faster() {
        let clock = Clock::compressed(1000.0);
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(10));
        let elapsed = clock.now().since(t0);
        // 10 ms wall = 10 sim-seconds at 1000x.
        assert!(elapsed >= Duration::from_secs(5), "elapsed {elapsed:?}");
    }

    #[test]
    fn compressed_sleep_is_short() {
        let clock = Clock::compressed(1000.0);
        let wall0 = Instant::now();
        clock.sleep(Duration::from_secs(5)); // should take ~5 ms of wall time
        assert!(wall0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn manual_clock_is_frozen_until_advanced() {
        let clock = Clock::manual();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now(), t0);
        clock.advance(Duration::from_secs(60));
        assert_eq!(clock.now().since(t0), Duration::from_secs(60));
        assert_eq!(clock.now().as_secs(), 60);
    }

    #[test]
    fn manual_sleep_wakes_on_advance() {
        let clock = Clock::manual();
        let woke = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (c, w) = (clock.clone(), woke.clone());
        let handle = std::thread::spawn(move || {
            c.sleep(Duration::from_secs(10));
            w.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(10));
        assert!(!woke.load(std::sync::atomic::Ordering::SeqCst));
        clock.advance(Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(10));
        assert!(!woke.load(std::sync::atomic::Ordering::SeqCst));
        clock.advance(Duration::from_secs(5));
        handle.join().unwrap();
        assert!(woke.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    #[should_panic(expected = "manual clock")]
    fn advance_on_scaled_clock_panics() {
        Clock::realtime().advance(Duration::from_secs(1));
    }

    #[test]
    fn sim_instant_arithmetic() {
        let a = SimInstant::EPOCH.add(Duration::from_secs(10));
        let b = a.add(Duration::from_secs(5));
        assert_eq!(b.since(a), Duration::from_secs(5));
        assert_eq!(a.since(b), Duration::ZERO); // saturating
        assert_eq!(b.elapsed(), Duration::from_secs(15));
    }
}
