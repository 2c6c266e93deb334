//! Property tests for the failure-detection half of the degraded-mode
//! loop: [`LinkHealth`]'s slot-clocked `Up → Suspect → Down →
//! Recovering` machine and its bounded exponential retransmit backoff.
//!
//! The properties mirror what the chaos campaigns rely on: detection
//! latency is bounded by `down_after` plus one tick interval, every
//! transition sequence is legal under *any* random drop/partition/heal
//! schedule, and the whole machine is a pure function of its input
//! schedule — the determinism that keeps islanded campaign reports
//! bit-identical across worker-pool widths.

use mirabel_core::TimeSlot;
use mirabel_edms::{LinkHealth, LinkHealthConfig, LinkState};
use proptest::prelude::*;

/// A random but valid pair of horizons (`down_after >= suspect_after`).
fn horizons() -> impl Strategy<Value = LinkHealthConfig> {
    (1i64..100, 0i64..100).prop_map(|(suspect, extra)| LinkHealthConfig {
        suspect_after: suspect,
        down_after: suspect + extra,
        retransmit_base: 8,
        max_retransmits: 3,
    })
}

/// One event of a random link schedule, with a time gap before it.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Peer traffic arrives (`heard`).
    Traffic,
    /// A heartbeat arrives (`heard_heartbeat`).
    Heartbeat,
    /// The owner polls the detector (`tick`).
    Tick,
}

fn schedule() -> impl Strategy<Value = Vec<(i64, Event)>> {
    proptest::collection::vec(
        (
            0i64..60,
            (0u8..3).prop_map(|k| match k {
                0 => Event::Traffic,
                1 => Event::Heartbeat,
                _ => Event::Tick,
            }),
        ),
        1..80,
    )
}

/// Replay a schedule against a fresh detector, returning the state
/// observed after every event.
fn replay(config: LinkHealthConfig, schedule: &[(i64, Event)]) -> Vec<(LinkState, u64, u64, u64)> {
    let mut health = LinkHealth::new(config);
    let mut now = 0i64;
    let mut trace = Vec::with_capacity(schedule.len());
    for &(gap, event) in schedule {
        now += gap;
        match event {
            Event::Traffic => health.heard(TimeSlot(now)),
            Event::Heartbeat => health.heard_heartbeat(TimeSlot(now)),
            Event::Tick => {
                health.tick(TimeSlot(now));
            }
        }
        let s = health.stats();
        trace.push((health.state(), s.suspects, s.downs, s.recoveries));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After the last peer traffic, a detector polled every `interval`
    /// slots reports `Down` within `down_after + interval` — the
    /// detection-latency bound the islanding path is built on.
    #[test]
    fn prop_detection_latency_is_bounded(
        config in horizons(),
        interval in 1i64..50,
        last_heard in 0i64..500,
    ) {
        let mut health = LinkHealth::new(config);
        health.heard(TimeSlot(last_heard));
        let mut t = last_heard;
        let detected_at = loop {
            t += interval;
            if health.tick(TimeSlot(t)) == LinkState::Down {
                break t;
            }
            prop_assert!(
                t - last_heard < config.down_after + interval,
                "no Down after {} slots of silence (down_after {})",
                t - last_heard,
                config.down_after
            );
        };
        prop_assert!(detected_at - last_heard >= config.down_after);
        prop_assert!(detected_at - last_heard < config.down_after + interval);
        prop_assert_eq!(health.stats().downs, 1);
    }

    /// Any random interleaving of traffic, heartbeats and polls produces
    /// only legal transitions (no `Down → Up` shortcut past the
    /// reconciliation handshake, no re-suspecting a `Recovering` link)
    /// and monotone counters.
    #[test]
    fn prop_random_schedules_produce_legal_transitions(
        config in horizons(),
        schedule in schedule(),
    ) {
        let trace = replay(config, &schedule);
        let mut prev = (LinkState::Up, 0u64, 0u64, 0u64);
        for &step in &trace {
            let (state, suspects, downs, recoveries) = step;
            let (prev_state, ps, pd, pr) = prev;
            let legal = match (prev_state, state) {
                // Self-loops are always fine.
                (a, b) if a == b => true,
                (LinkState::Up, LinkState::Suspect | LinkState::Down) => true,
                (LinkState::Suspect, LinkState::Up | LinkState::Down) => true,
                (LinkState::Down, LinkState::Recovering) => true,
                (LinkState::Recovering, LinkState::Up | LinkState::Down) => true,
                _ => false,
            };
            prop_assert!(legal, "illegal transition {prev_state:?} -> {state:?}");
            prop_assert!(suspects >= ps && downs >= pd && recoveries >= pr);
            prev = step;
        }
        let heartbeats = schedule
            .iter()
            .filter(|(_, e)| matches!(e, Event::Heartbeat))
            .count() as u64;
        let mut health = LinkHealth::new(config);
        let mut now = 0;
        for &(gap, event) in &schedule {
            now += gap;
            match event {
                Event::Traffic => health.heard(TimeSlot(now)),
                Event::Heartbeat => health.heard_heartbeat(TimeSlot(now)),
                Event::Tick => { health.tick(TimeSlot(now)); }
            }
        }
        prop_assert_eq!(health.stats().heartbeats_seen, heartbeats);
    }

    /// A drop/partition/heal cycle behaves as the campaigns assume:
    /// steady traffic keeps the link `Up`, a partition longer than
    /// `down_after` drives it `Down`, the first post-heal traffic only
    /// reaches `Recovering`, and fresh steady traffic completes exactly
    /// one recovery back to `Up`.
    #[test]
    fn prop_partition_then_heal_recovers(
        config in horizons(),
        interval in 1i64..40,
        steady in 2usize..20,
    ) {
        let mut health = LinkHealth::new(config);
        let mut now = 0i64;
        // Steady phase: traffic then poll every interval — never worse
        // than Up, because each poll sees zero silence.
        for _ in 0..steady {
            health.heard(TimeSlot(now));
            prop_assert_eq!(health.tick(TimeSlot(now)), LinkState::Up);
            now += interval;
        }
        // Partition: polls continue, traffic stops, for long enough that
        // the silence horizon must trip.
        let silence_start = now - interval;
        while now - silence_start < config.down_after + interval {
            health.tick(TimeSlot(now));
            now += interval;
        }
        prop_assert_eq!(health.state(), LinkState::Down);
        // Heal: the first traffic only earns Recovering…
        health.heard(TimeSlot(now));
        prop_assert_eq!(health.state(), LinkState::Recovering);
        // …and a poll with fresh traffic confirms the heal.
        prop_assert_eq!(health.tick(TimeSlot(now)), LinkState::Up);
        prop_assert_eq!(health.stats().downs, 1);
        prop_assert_eq!(health.stats().recoveries, 1);
    }

    /// The detector is a pure function of its schedule: two instances
    /// replaying the same random schedule agree on state and counters at
    /// every step. This is the property that keeps islanded chaos
    /// reports bit-identical at any worker-pool width.
    #[test]
    fn prop_detector_is_deterministic(
        config in horizons(),
        schedule in schedule(),
    ) {
        prop_assert_eq!(replay(config, &schedule), replay(config, &schedule));
    }

    /// With an unacked frontier and no acks, the link fires exactly
    /// `max_retransmits` times under exponential backoff — attempt `n`
    /// waits at least `retransmit_base << n` — then stays quiet forever.
    /// A full ack clears the frontier immediately.
    #[test]
    fn prop_retransmit_backoff_is_bounded(
        base in 1i64..64,
        budget in 0u32..6,
        flushes in 1u64..5,
    ) {
        let config = LinkHealthConfig {
            suspect_after: 1,
            down_after: 1,
            retransmit_base: base,
            max_retransmits: budget,
        };
        let mut link = LinkHealth::new(config);
        for _ in 0..flushes {
            link.on_flush(TimeSlot(0));
        }
        prop_assert_eq!(link.unacked(), flushes);

        let horizon = base.saturating_mul(1 << (budget + 2));
        let mut fired_at = Vec::new();
        for now in 0..=horizon {
            if link.due_retransmit(TimeSlot(now)) {
                fired_at.push(now);
            }
        }
        prop_assert_eq!(fired_at.len(), budget as usize);
        prop_assert_eq!(link.stats().retransmits, u64::from(budget));
        for (n, pair) in fired_at.windows(2).enumerate() {
            prop_assert!(
                pair[1] - pair[0] >= base << (n + 1),
                "attempt {} gap {} under backoff {}",
                n + 1,
                pair[1] - pair[0],
                base << (n + 1)
            );
        }

        // A partial ack leaves the frontier pending; a full ack clears
        // it and silences the link for good.
        prop_assert!(!link.on_ack(flushes - 1));
        prop_assert!(link.on_ack(flushes));
        prop_assert_eq!(link.unacked(), 0);
        prop_assert!(!link.due_retransmit(TimeSlot(horizon * 2 + 1)));
    }
}
