//! Seeded input generation: the flex-offers and ground-truth baselines
//! a round consumes.
//!
//! These mirror the private generators in `mirabel_edms::simulation`
//! draw for draw, so a pump fed from the same seed submits the very
//! offers the program's own driver would and its plan signatures can be
//! compared against the program's (`trace.signature_match`).

use mirabel_core::{ActorId, EnergyRange, FlexOffer, Price, Profile, Slice, TimeSlot};
use rand::rngs::StdRng;
use rand::Rng;
use std::f64::consts::PI;

/// One prosumer offer executing inside `[window, window + horizon)`.
pub fn gen_offer(
    id: u64,
    owner: ActorId,
    window: TimeSlot,
    horizon: u32,
    deadline: TimeSlot,
    rng: &mut StdRng,
) -> FlexOffer {
    let dur = rng.gen_range(2..=6u32);
    let base = rng.gen_range(0.5..2.5);
    let width = base * rng.gen_range(0.1..0.4);
    let profile = Profile::new(vec![Slice {
        duration: dur,
        energy: EnergyRange::new(base, base + width).expect("ordered"),
    }])
    .expect("non-empty");
    let es = rng.gen_range(0..(horizon - dur));
    let max_tf = horizon - dur - es;
    let tf = if max_tf == 0 {
        0
    } else {
        rng.gen_range(0..=max_tf)
    };
    FlexOffer::builder(id, owner.value())
        .earliest_start(window + es)
        .time_flexibility(tf)
        .assignment_before(deadline.min(window + es))
        .profile(profile)
        .unit_price(Price(0.02))
        .build()
        .expect("generated offers are valid")
}

/// Ground-truth baseline imbalance of one window: evening-peaking
/// demand minus a midday RES bump.
pub fn window_baseline(scale: f64, horizon: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..horizon)
        .map(|i| {
            let x = i as f64 / horizon as f64;
            let demand = 0.6 + 0.4 * (2.0 * PI * (x - 0.80)).cos();
            let res = 1.5 * (-((x - 0.5) * (x - 0.5)) / 0.02).exp();
            scale * (demand - res + rng.gen_range(-0.05..0.05))
        })
        .collect()
}
