//! Property tests for the simulation clock.

use std::time::Duration;

use proptest::prelude::*;
use wedge_sim::{Clock, SimInstant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn manual_clock_advances_exactly(steps in prop::collection::vec(0u64..10_000, 1..20)) {
        let clock = Clock::manual();
        let mut expected = Duration::ZERO;
        for step in steps {
            clock.advance(Duration::from_millis(step));
            expected += Duration::from_millis(step);
            prop_assert_eq!(clock.now().elapsed(), expected);
        }
    }

    #[test]
    fn sim_instant_ordering_is_consistent(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let ia = SimInstant::EPOCH.add(Duration::from_micros(a));
        let ib = SimInstant::EPOCH.add(Duration::from_micros(b));
        prop_assert_eq!(ia < ib, a < b);
        // since() is saturating: never panics, zero when earlier >= later.
        if a >= b {
            prop_assert_eq!(ib.since(ia), Duration::ZERO);
            prop_assert_eq!(ia.since(ib), Duration::from_micros(a - b));
        }
    }
}

#[test]
fn compressed_clock_ratios_hold() {
    // Two compressed clocks at different factors measure the same wall
    // interval; their simulated elapsed times must scale accordingly.
    let fast = Clock::compressed(2000.0);
    let slow = Clock::compressed(200.0);
    let f0 = fast.now();
    let s0 = slow.now();
    std::thread::sleep(Duration::from_millis(20));
    let f = fast.now().since(f0).as_secs_f64();
    let s = slow.now().since(s0).as_secs_f64();
    let ratio = f / s;
    assert!(
        (8.0..12.0).contains(&ratio),
        "expected ~10x, got {ratio:.2}"
    );
}
