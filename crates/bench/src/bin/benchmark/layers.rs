//! The traced run: per-layer metrics from the pump's spans, from
//! direct drives of the layers the pump cannot isolate in place
//! (`codec`, `wal`, `aggregate`, `datastore`), and from width-1 /
//! width-W reps of the program for the `exec` and `simulation` rows.
//!
//! Per-unit numbers divide a layer's self time by the items its spans
//! counted, over rounds 1.. (round 0 pays first-touch costs); `_ms`
//! numbers are means per timed round.

use crate::e2e::{check_conservation, Program};
use crate::pump::{self, PumpRun};
use crate::stats::{median, uncontended_positions};
use crate::trace::{layer_totals, LayerTotals, Span, Tracer};
use crate::workloads::Workload;
use crate::Measured;
use mirabel_aggregate::{AggregationParams, AggregationPipeline, FlexOfferUpdate};
use mirabel_core::codec::Wire;
use mirabel_core::exec::Pool;
use mirabel_core::{FlexOffer, TimeSlot};
use mirabel_edms::datastore::OfferFact;
use mirabel_edms::{
    DataStore, Envelope, Federation, NodeWal, OfferState, SimulationConfig, WalConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric as `(name, unit, higher is better)`, in
/// printing order. The traced run reports all of them on every workload;
/// a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str, bool); 51] = [
    ("prosumer.submit_us_per_offer", "us", false),
    ("prosumer.handle_us_per_msg", "us", false),
    ("comm.route_us_per_env", "us", false),
    ("comm.drain_us_per_env", "us", false),
    ("comm.envelopes_per_offer", "count", false),
    ("comm.bytes_per_env", "B", false),
    ("comm.dropped", "count", false),
    ("comm.duplicated", "count", false),
    ("comm.dead_lettered", "count", false),
    ("comm.replayed", "count", false),
    ("codec.encode_ns_per_env", "ns", false),
    ("codec.decode_ns_per_env", "ns", false),
    ("brp.ingest_us_per_offer", "us", false),
    ("brp.disagg_us_per_offer", "us", false),
    ("brp.prepare_ms", "ms", false),
    ("brp.replan_ms", "ms", false),
    ("brp.islanded_rounds", "count", false),
    ("schedule.evals_per_ms", "1/ms", true),
    ("schedule.repair_gain_frac", "ratio", true),
    ("schedule.scoped_offers", "count", false),
    ("tso.splice_ms", "ms", false),
    ("tso.prepare_ms", "ms", false),
    ("tso.replan_ms", "ms", false),
    ("tso.commit_ms", "ms", false),
    ("tso.macro_offers", "count", false),
    ("tso.provisional_adopted", "count", true),
    ("tso.provisional_superseded", "count", false),
    ("aggregate.insert_us_per_offer", "us", false),
    ("aggregate.delete_us_per_offer", "us", false),
    ("aggregate.flush_ms", "ms", false),
    ("aggregate.offers_per_macro", "count", true),
    ("datastore.record_offer_us", "us", false),
    ("forecast.pubsub_us_per_event", "us", false),
    ("wal.append_us_per_event", "us", false),
    ("wal.bytes_per_event", "B", false),
    ("wal.recover_ms", "ms", false),
    ("wire.resyncs_requested", "count", false),
    ("wire.resyncs_applied", "count", false),
    ("wire.buffered", "count", false),
    ("wire.dedup_duplicates", "count", false),
    ("wire.link_downs", "count", false),
    ("wire.retransmits", "count", false),
    ("exec.width_speedup", "ratio", true),
    ("exec.tasks_per_round", "count", false),
    ("simulation.driver_gap_ms", "ms", false),
    ("federation.exchange_byte_ratio", "ratio", false),
    ("federation.deltas_published", "count", false),
    ("trace.overhead_frac", "ratio", false),
    ("trace.signature_match", "bool", true),
    ("trace.coverage_frac", "ratio", true),
    ("trace.pump_round_ms", "ms", false),
];

/// Run `cycles` rounds of `program`, returning each round's seconds.
fn time_rounds(program: &mut Program, cycles: usize) -> Vec<f64> {
    (0..cycles)
        .map(|c| {
            let t = Instant::now();
            program.run_cycle(c);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// `total / n`, or 0 when nothing was processed.
fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Direct drive of the codec and the WAL over the pump's captured
/// envelopes: `(encode ns, decode ns, wire bytes, append us, log bytes)`
/// per envelope.
fn drive_codec_and_wal(envelopes: &[Envelope]) -> (f64, f64, f64, f64, f64) {
    let n = envelopes.len();
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(n);
    let t = Instant::now();
    for envelope in envelopes {
        let mut buf = Vec::new();
        envelope.encode(&mut buf);
        frames.push(buf);
    }
    let encode_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for frame in &frames {
        black_box(Envelope::from_bytes(frame).expect("own encoding decodes"));
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();

    let mut wal = NodeWal::in_memory(WalConfig::default());
    let t = Instant::now();
    for envelope in envelopes {
        wal.append(envelope, None, true, envelope.sent_at);
    }
    let append_us = t.elapsed().as_secs_f64() * 1e6;
    let (_, log) = wal.into_store().load().expect("in-memory load cannot fail");
    let log_bytes: usize = log.iter().map(Vec::len).sum();
    (
        per(encode_ns, n),
        per(decode_ns, n),
        per(wire_bytes as f64, n),
        per(append_us, n),
        per(log_bytes as f64, n),
    )
}

/// Direct drive of the aggregation pipeline over one round's offers, at
/// the BRP's default thresholds: per-offer inserts as BRP ingest issues
/// them, one bulk flush of the same offers, then one batched delete as
/// the commit issues it. Returns `(insert us/offer, delete us/offer,
/// bulk flush ms, offers per macro offer)`.
fn drive_aggregate(offers: &[FlexOffer], pool: &Pool) -> (f64, f64, f64, f64) {
    let pipeline = || {
        let mut p = AggregationPipeline::new(AggregationParams::p3(8, 8), None);
        p.set_flush_pool(pool.clone());
        p
    };
    let n = offers.len();
    let mut incremental = pipeline();
    let t = Instant::now();
    for offer in offers {
        black_box(incremental.apply(vec![FlexOfferUpdate::Insert(offer.clone())]));
    }
    let insert_us = t.elapsed().as_secs_f64() * 1e6;
    let macros = incremental.aggregate_count();

    let mut bulk = pipeline();
    let inserts = offers
        .iter()
        .cloned()
        .map(FlexOfferUpdate::Insert)
        .collect();
    let t = Instant::now();
    black_box(bulk.apply(inserts));
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;

    let deletes = offers
        .iter()
        .map(|o| FlexOfferUpdate::Delete(o.id()))
        .collect();
    let t = Instant::now();
    black_box(incremental.apply(deletes));
    let delete_us = t.elapsed().as_secs_f64() * 1e6;
    (
        per(insert_us, n),
        per(delete_us, n),
        flush_ms,
        per(n as f64, macros),
    )
}

/// Direct drive of the star-schema store: microseconds per offer fact.
fn drive_datastore(offers: &[FlexOffer]) -> f64 {
    let mut store = DataStore::new();
    let t = Instant::now();
    for offer in offers {
        store.record_offer(OfferFact {
            offer: offer.id(),
            actor: offer.owner(),
            slot: TimeSlot(0),
            state: OfferState::Accepted,
        });
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    black_box(store.row_counts());
    per(us, offers.len())
}

/// The traced run of `w`. Each iteration runs the pump with spans off
/// and on (alternating which goes first), the program on the pump's
/// region shape at width 1, and the whole workload at width 1 and at
/// `pool`'s width; iterations start until `seconds` have passed,
/// so the cheap shapes gather enough rounds for their medians to settle.
/// Every iteration uses `seed`: identical work, so spans-on and
/// spans-off rounds differ by tracing alone.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    pool: &Pool,
    quick: bool,
) -> (Measured, Vec<Span>) {
    let serial = Pool::new(1);
    // For a federation the pump drives one region's shape.
    let shape: SimulationConfig = w.region(seed, &serial, quick);
    let cycles = shape.cycles;

    let mut tracer = Tracer::new(true);
    let mut first: Option<PumpRun> = None;
    let mut signature_match = true;
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let (mut region_w1_s, mut full_w1_s, mut full_ww_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool_tasks = 0;
    let started = Instant::now();
    let mut rep = 0;
    while rep == 0 || (!quick && started.elapsed().as_secs_f64() < seconds) {
        tracer.set_rep(rep);
        for spans_on in [rep % 2 == 1, rep % 2 == 0] {
            if spans_on {
                let run = pump::run(&shape, &mut tracer);
                traced_s.extend_from_slice(&run.round_secs[1..]);
                first.get_or_insert(run);
            } else {
                let run = pump::run(&shape, &mut Tracer::new(false));
                untraced_s.extend_from_slice(&run.round_secs[1..]);
            }
        }
        let signatures = &first.as_ref().expect("a traced pump ran above").signatures;

        // The program on the same shape and seed: what its driver adds
        // on top of the node calls, and the signature probe.
        let mut region = Program::region(shape.clone(), false);
        region_w1_s.extend_from_slice(&time_rounds(&mut region, cycles)[1..]);
        signature_match &= match &region {
            Program::Region(sim) => sim.plan_signatures() == signatures,
            Program::Federation(_) => unreachable!("Program::region builds a RegionSim"),
        };
        drop(region);

        // The whole workload at width 1 and at the pool's width.
        if w.regions() > 1 {
            let mut program = Program::new(w, seed, &serial, quick, false);
            full_w1_s.extend_from_slice(&time_rounds(&mut program, cycles)[1..]);
        }
        if pool.width() > 1 {
            let before = pool.stats();
            let mut program = Program::new(w, seed, pool, quick, false);
            full_ww_s.extend_from_slice(&time_rounds(&mut program, cycles)[1..]);
            let after = pool.stats();
            pool_tasks += (after.tasks_submitted - before.tasks_submitted)
                + (after.batch_tasks - before.batch_tasks);
        }
        rep += 1;
    }
    let reps = rep;
    let timed_rounds = reps * (cycles - 1);
    let run = first.expect("the loop runs at least once");
    let spans = tracer.spans().to_vec();
    // Held to the checks the program's reps are held to.
    let failures = check_conservation(
        w,
        run.offers_submitted,
        run.assigned,
        run.fallbacks,
        run.phantom_offers,
        run.energy_violations,
    );

    // A round's time as the end-to-end run reports it: the median over
    // the script's positions of each position's uncontended time.
    let round_ms = |rounds: &[f64]| median(&uncontended_positions(rounds, cycles - 1)) * 1e3;
    let region_w1_ms = round_ms(&region_w1_s);
    let full_w1_ms = if w.regions() > 1 {
        round_ms(&full_w1_s)
    } else {
        region_w1_ms
    };
    // On a one-core host there is no wider pool to compare against.
    let full_ww_ms = if pool.width() > 1 {
        round_ms(&full_ww_s)
    } else {
        full_w1_ms
    };
    let tasks_per_round = per(pool_tasks as f64, reps * cycles);

    // Cross-border accounting needs a metered federation of its own.
    let (exchange_byte_ratio, deltas_published) = if w.regions() > 1 {
        let mut cfg = w.federation(seed, pool, quick);
        cfg.meter_bytes = true;
        let mut fed = Federation::new(cfg);
        for c in 0..cycles {
            fed.run_cycle(c);
        }
        let stats = fed.stats();
        let intra: u64 = stats.regions.iter().map(|r| r.network.bytes_sent).sum();
        let published: u64 = fed.gateways().iter().map(|g| g.deltas_published).sum();
        (
            per(stats.exchange_bus.bytes_sent as f64, intra as usize),
            published as f64,
        )
    } else {
        (0.0, 0.0)
    };

    let (encode_ns, decode_ns, env_bytes, append_us, wal_bytes) =
        drive_codec_and_wal(&run.envelopes);
    let (insert_us, delete_us, flush_ms, offers_per_macro) = drive_aggregate(&run.offers, &serial);
    let record_offer_us = drive_datastore(&run.offers);

    let layers = layer_totals(&spans, |s| s.round > 0);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per_round = |t: LayerTotals| per(t.ms(), timed_rounds);
    let round_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.round > 0)
        .map(Span::duration_ns)
        .sum();
    let pump_overhead_ns = layer("round").self_ns
        + layers
            .iter()
            .filter(|(name, _)| name.starts_with("phase."))
            .map(|(_, t)| t.self_ns)
            .sum::<u64>();
    let recover = layer("wal.recover");

    let scheduling = if shape.use_tso {
        layer("tso.prepare")
    } else {
        layer("brp.prepare")
    };
    let evaluations = shape.budget_evaluations as f64 * scheduling.calls as f64;
    let (cost_before, gain) = run.replans.iter().fold((0.0, 0.0), |(b, g), r| {
        (b + r.cost_before.abs(), g + (r.cost_before - r.cost_after))
    });
    let scoped: usize = run.replans.iter().map(|r| r.scoped_offers).sum();
    let handle = layer("prosumer.handle");
    let pump_ms = round_ms(&traced_s);
    let untraced_ms = round_ms(&untraced_s);

    let values: BTreeMap<&str, f64> = [
        (
            "prosumer.submit_us_per_offer",
            layer("prosumer.submit").us_per_item(),
        ),
        ("prosumer.handle_us_per_msg", handle.us_per_item()),
        ("comm.route_us_per_env", layer("comm.route").us_per_item()),
        ("comm.drain_us_per_env", layer("comm.drain").us_per_item()),
        (
            "comm.envelopes_per_offer",
            per(run.network.sent as f64, run.offers_submitted),
        ),
        ("comm.bytes_per_env", env_bytes),
        ("comm.dropped", run.network.dropped as f64),
        ("comm.duplicated", run.network.duplicated as f64),
        ("comm.dead_lettered", run.network.dead_lettered as f64),
        ("comm.replayed", run.network.replayed as f64),
        ("codec.encode_ns_per_env", encode_ns),
        ("codec.decode_ns_per_env", decode_ns),
        ("brp.ingest_us_per_offer", layer("brp.ingest").us_per_item()),
        ("brp.disagg_us_per_offer", layer("brp.disagg").us_per_item()),
        ("brp.prepare_ms", per_round(layer("brp.prepare"))),
        ("brp.replan_ms", per_round(layer("brp.replan"))),
        ("brp.islanded_rounds", run.islanded.len() as f64),
        (
            "schedule.evals_per_ms",
            if scheduling.self_ns == 0 {
                0.0
            } else {
                evaluations / scheduling.ms()
            },
        ),
        (
            "schedule.repair_gain_frac",
            if cost_before == 0.0 {
                0.0
            } else {
                gain / cost_before
            },
        ),
        (
            "schedule.scoped_offers",
            per(scoped as f64, run.replans.len()),
        ),
        ("tso.splice_ms", per_round(layer("tso.splice"))),
        ("tso.prepare_ms", per_round(layer("tso.prepare"))),
        ("tso.replan_ms", per_round(layer("tso.replan"))),
        ("tso.commit_ms", per_round(layer("tso.commit"))),
        (
            "tso.macro_offers",
            per(
                run.tso_macro_offers.iter().sum::<usize>() as f64,
                run.tso_macro_offers.len(),
            ),
        ),
        ("tso.provisional_adopted", run.provisional.0 as f64),
        ("tso.provisional_superseded", run.provisional.1 as f64),
        ("aggregate.insert_us_per_offer", insert_us),
        ("aggregate.delete_us_per_offer", delete_us),
        ("aggregate.flush_ms", flush_ms),
        ("aggregate.offers_per_macro", offers_per_macro),
        ("datastore.record_offer_us", record_offer_us),
        (
            "forecast.pubsub_us_per_event",
            layer("forecast.pubsub").us_per_item(),
        ),
        ("wal.append_us_per_event", append_us),
        ("wal.bytes_per_event", wal_bytes),
        ("wal.recover_ms", per(recover.ms(), recover.calls as usize)),
        (
            "wire.resyncs_requested",
            run.streams.resyncs_requested as f64,
        ),
        ("wire.resyncs_applied", run.streams.resyncs_applied as f64),
        ("wire.buffered", run.streams.buffered as f64),
        ("wire.dedup_duplicates", run.dedup_duplicates as f64),
        ("wire.link_downs", run.link_health.downs as f64),
        ("wire.retransmits", run.link_health.retransmits as f64),
        ("exec.width_speedup", full_w1_ms / full_ww_ms),
        ("exec.tasks_per_round", tasks_per_round),
        ("simulation.driver_gap_ms", region_w1_ms - untraced_ms),
        ("federation.exchange_byte_ratio", exchange_byte_ratio),
        ("federation.deltas_published", deltas_published),
        ("trace.overhead_frac", pump_ms / untraced_ms - 1.0),
        (
            "trace.signature_match",
            f64::from(u8::from(signature_match)),
        ),
        (
            "trace.coverage_frac",
            1.0 - per(pump_overhead_ns as f64, round_ns as usize),
        ),
        ("trace.pump_round_ms", pump_ms),
    ]
    .into_iter()
    .collect();

    let measured = Measured {
        samples: format!(
            "wide_pool_width={} pump_iterations={reps} timed_rounds={timed_rounds}",
            pool.width()
        ),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, _, _)| (name, values[name]))
            .collect(),
        attempted: run.offers_submitted,
        failed: run.offers_submitted.abs_diff(run.assigned + run.fallbacks),
        failures,
    };
    (measured, spans)
}
