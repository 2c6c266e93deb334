//! End-to-end measurement: whole rounds through the program's own
//! drivers (`RegionSim`, `Federation`), tracing and metering off.

use crate::inputs::gen_offer;
use crate::probe::Probe;
use crate::stats::{median, percentile, uncontended, uncontended_positions};
use crate::workloads::Workload;
use crate::Measured;
use mirabel_core::exec::Pool;
use mirabel_core::{ActorId, NodeId, RegionId, TimeSlot, SLOTS_PER_DAY};
use mirabel_edms::{
    BrpConfig, BrpNode, Envelope, Federation, MemWalStore, Message, NodeWal, RegionSim,
    SimulationConfig, SimulationReport, WalConfig, WalStore,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The program under test: one hierarchy, or several under a federation.
pub enum Program {
    /// A single region.
    Region(Box<RegionSim>),
    /// Regions glued by the cross-border exchange.
    Federation(Box<Federation>),
}

/// What a finished rep reports: one `SimulationReport` per region.
pub struct Outcome {
    /// Region-ordered reports.
    pub regions: Vec<SimulationReport>,
    /// Whether the cross-border exchange converged (federations only).
    pub exchange_converged: Option<bool>,
}

impl Program {
    /// Build `w`'s hierarchy. `metered` turns wire-byte counting on,
    /// which encodes every envelope: count reps only, never timed ones.
    pub fn new(w: Workload, seed: u64, pool: &Pool, quick: bool, metered: bool) -> Program {
        if w.regions() > 1 {
            let mut cfg = w.federation(seed, pool, quick);
            cfg.meter_bytes = metered;
            Program::Federation(Box::new(Federation::new(cfg)))
        } else {
            Program::region(w.region(seed, pool, quick), metered)
        }
    }

    /// A single region of the given shape.
    pub fn region(cfg: SimulationConfig, metered: bool) -> Program {
        let mut sim = RegionSim::new(cfg, RegionId::DEFAULT);
        sim.network_mut().set_metering(metered);
        Program::Region(Box::new(sim))
    }

    /// Run planning round `c`.
    pub fn run_cycle(&mut self, c: usize) {
        match self {
            Program::Region(sim) => sim.run_cycle(c),
            Program::Federation(fed) => fed.run_cycle(c),
        }
    }

    /// Wire bytes routed inside regions so far (metered programs only).
    pub fn intra_region_bytes(&self) -> u64 {
        match self {
            Program::Region(sim) => sim.network().stats().bytes_sent,
            Program::Federation(fed) => fed
                .regions()
                .iter()
                .map(|sim| sim.network().stats().bytes_sent)
                .sum(),
        }
    }

    /// Close the run: accounting plus invariant probes.
    pub fn finish(self) -> Outcome {
        match self {
            Program::Region(sim) => Outcome {
                regions: vec![sim.finish()],
                exchange_converged: None,
            },
            Program::Federation(fed) => {
                let report = fed.finish();
                Outcome {
                    regions: report.regions,
                    exchange_converged: Some(report.exchange.converged),
                }
            }
        }
    }
}

impl Outcome {
    /// Sum a per-region count.
    pub fn sum(&self, f: impl Fn(&SimulationReport) -> usize) -> usize {
        self.regions.iter().map(f).sum()
    }

    /// Offers submitted across regions.
    pub fn submitted(&self) -> usize {
        self.sum(|r| r.offers_submitted)
    }

    /// Offers that ended neither assigned nor in the open contract.
    pub fn unterminated(&self) -> usize {
        self.submitted()
            .abs_diff(self.sum(|r| r.assigned) + self.sum(|r| r.fallbacks))
    }

    /// The output checks of one rep; returns what failed.
    pub fn check(&self, w: Workload) -> Vec<String> {
        let mut failed = check_conservation(
            w,
            self.submitted(),
            self.sum(|r| r.assigned),
            self.sum(|r| r.fallbacks),
            self.sum(|r| r.phantom_offers),
            self.sum(|r| r.energy_violations),
        );
        let mut require = |ok: bool, what: String| {
            if !ok {
                failed.push(format!("{}: {what}", w.name()));
            }
        };
        if w.stormy() {
            let crashes = self.sum(|r| r.crashes);
            require(crashes == 2, format!("{crashes} crashes, script has 2"));
            let islanded: Vec<_> = self.regions.iter().flat_map(|r| &r.islanded).collect();
            require(!islanded.is_empty(), "no islanded round".to_string());
            for round in islanded {
                if let (Some(prepared), Some(committed)) =
                    (round.prepared_cost, round.committed_cost)
                {
                    require(
                        committed <= prepared + 1e-6,
                        format!("islanded round committed {committed} > prepared {prepared}"),
                    );
                }
            }
        }
        if let Some(converged) = self.exchange_converged {
            require(converged, "exchange did not converge".to_string());
        }
        failed
    }
}

/// The checks the program's reps and the traced pump share: every offer
/// ends assigned or in the open contract, the TSO pools no phantom, no
/// committed schedule leaves its offer's energy bounds, and a reliable
/// workload assigns everything. Returns what failed.
pub fn check_conservation(
    w: Workload,
    submitted: usize,
    assigned: usize,
    fallbacks: usize,
    phantoms: usize,
    violations: usize,
) -> Vec<String> {
    let mut failed = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failed.push(format!("{}: {what}", w.name()));
        }
    };
    require(
        assigned + fallbacks == submitted,
        format!("assigned {assigned} + fallbacks {fallbacks} != submitted {submitted}"),
    );
    require(phantoms == 0, format!("{phantoms} phantom offers"));
    require(violations == 0, format!("{violations} energy violations"));
    if !w.stormy() {
        require(
            assigned == submitted,
            format!("reliable run assigned {assigned} of {submitted}"),
        );
    }
    failed
}

/// The share of a round's time that follows the host-speed probe: when
/// the probe takes `p` times its reference, a round is taken to last
/// `1 + PROBE_SHARE * (p - 1)` times as long. Ten-run campaigns fitted
/// 0.73-0.74 while the host drifted by a tenth and 0.55 in a phase that
/// slowed the probe by half; one half under-corrects the first and
/// barely over-corrects the second (spread of `durable_storm`'s
/// `round_ms_p50` 13.2 % -> 5.0 % and 13.0 % -> 3.7 %). Set-up follows
/// like the rounds. `finish()` and the recover drive follow at 0.2-0.6
/// depending on the phase, so dividing them would widen their spread as
/// often as narrow it; they stay as measured (README, "Host speed").
const PROBE_SHARE: f64 = 0.5;

/// A run whose timed reps would take more than this multiple of its
/// `--seconds` stops early (after at least [`MIN_REPS`]): on a host in a
/// slow phase the run then times fewer reps instead of running long.
const OVERRUN: f64 = 1.5;
/// Timed reps that always run, however slow the host.
const MIN_REPS: usize = 2;

/// Measure `w` over the timed reps a run of `seconds` holds (one under
/// `quick`), through the program's own driver. Rep `r` runs seed
/// `seed + r`; one untimed metered rep runs first, warming caches and
/// the allocator and producing the byte count.
///
/// Timings are taken per rep and reported at their [`uncontended`]
/// value across reps: a round position's time is the lower quartile of
/// that round over all reps, and the run reports the median and the
/// 90th percentile of the script's positions.
///
/// Where the workload has a [`Workload::probe_reference_s`], the round
/// timings (`setup_s`, both round percentiles, `offers_per_s`) are then
/// divided by the run's host slow-down ([`PROBE_SHARE`]), so they read
/// as at reference host speed.
pub fn measure(w: Workload, seed: u64, seconds: f64, pool: &Pool, quick: bool) -> Measured {
    let cycles = w.region(seed, pool, quick).cycles;
    let planned_reps = if quick { 1 } else { w.reps(seconds) };

    let mut counted = Program::new(w, seed, pool, quick, true);
    for c in 0..cycles {
        counted.run_cycle(c);
    }
    let bytes = counted.intra_region_bytes();
    // No `finish()`: the byte count needs none, and the closing
    // accounting costs more than the rounds it reports on.
    drop(counted);

    let probe = w.probe_reference_s().map(|_| Probe::new());
    let mut probed = Vec::new();
    let mut recovery = RecoverDrive::new(seed);
    let recoveries_per_rep = RECOVERIES_PER_RUN.div_ceil(planned_reps);
    let (mut setups, mut reports, mut recoveries) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    let mut failures = Vec::new();
    let (mut reps, mut attempted, mut failed) = (0, 0, 0);
    let (mut assigned, mut counted_offers) = (0, 0);
    let (mut before, mut after) = (0.0, 0.0);
    let started = Instant::now();
    for rep in 0..planned_reps {
        // What the timed reps will have taken after one more like these.
        let projected = started.elapsed().as_secs_f64() * (rep + 1) as f64 / rep.max(1) as f64;
        if rep >= MIN_REPS && projected > OVERRUN * seconds {
            break;
        }
        reps += 1;
        let t = Instant::now();
        let mut program = Program::new(w, seed + rep as u64, pool, quick, false);
        // Round 0 pays first-touch costs no later round pays, so it is
        // set-up: work moved out of timed rounds into it shows here.
        program.run_cycle(0);
        setups.push(t.elapsed().as_secs_f64());
        for c in 1..cycles {
            probed.extend(probe.as_ref().map(Probe::sample));
            let t = Instant::now();
            program.run_cycle(c);
            rounds.push(t.elapsed().as_secs_f64());
        }
        probed.extend(probe.as_ref().map(Probe::sample));
        let t = Instant::now();
        let outcome = program.finish();
        reports.push(t.elapsed().as_secs_f64());
        // A batch after every rep, so the recoveries sample the whole run.
        recoveries.extend(recovery.batch(recoveries_per_rep, &mut failures));

        failures.extend(outcome.check(w));
        attempted += outcome.submitted();
        failed += outcome.unterminated();
        assigned += outcome.sum(|r| r.assigned);
        before += outcome
            .regions
            .iter()
            .map(|r| r.imbalance_before)
            .sum::<f64>();
        after += outcome
            .regions
            .iter()
            .map(|r| r.imbalance_after)
            .sum::<f64>();
        if rep == 0 {
            counted_offers = outcome.submitted();
        }
    }

    // How much slower than on a quiet reference box the probe ran, and
    // with it the rounds.
    let probe_ratio = w
        .probe_reference_s()
        .map_or(1.0, |reference| uncontended(&probed) / reference);
    let host_slowdown = 1.0 + PROBE_SHARE * (probe_ratio - 1.0);
    let positions: Vec<f64> = uncontended_positions(&rounds, cycles - 1)
        .into_iter()
        .map(|s| s / host_slowdown)
        .collect();
    let offers_per_round = counted_offers as f64 / cycles as f64;
    let mean_round_s = positions.iter().sum::<f64>() / positions.len() as f64;
    Measured {
        samples: format!(
            "reps={reps} timed_rounds={} round_positions={} host_slowdown={}{}",
            rounds.len(),
            positions.len(),
            if probed.is_empty() {
                "not probed".to_string()
            } else {
                format!(
                    "{host_slowdown:.4} (probe at {probe_ratio:.4} of its reference, {} samples)",
                    probed.len()
                )
            },
            if reps < planned_reps {
                format!(" (slow host: stopped short of {planned_reps} reps)")
            } else {
                String::new()
            }
        ),
        metrics: vec![
            ("setup_s", median(&setups) / host_slowdown),
            ("round_ms_p50", median(&positions) * 1e3),
            ("round_ms_p90", percentile(&positions, 0.9) * 1e3),
            ("offers_per_s", offers_per_round / mean_round_s),
            ("report_s", uncontended(&reports)),
            ("wire_bytes_per_offer", bytes as f64 / counted_offers as f64),
            ("assigned_frac", assigned as f64 / attempted as f64),
            ("imbalance_reduction", 1.0 - after / before),
            ("peak_rss_mb", peak_rss_mb()),
            ("recover_ms_p50", uncontended(&recoveries)),
        ],
        attempted,
        failed,
        failures,
    }
}

/// Offers in the seeded log [`RecoverDrive`] replays.
const RECOVER_OFFERS: u64 = 10_000;
/// Recoveries per run, spread evenly over its reps.
const RECOVERIES_PER_RUN: usize = 63;

/// Crash-recovery latency in isolation: one BRP ingests a seeded round
/// of offers through its WAL, then is rebuilt from copies of that log.
/// The same drive on every workload.
struct RecoverDrive {
    snapshot: Option<Vec<u8>>,
    frames: Vec<Vec<u8>>,
    pool_size: usize,
    pool_digest: u64,
}

const RECOVER_BRP: NodeId = NodeId(1);

impl RecoverDrive {
    fn new(seed: u64) -> RecoverDrive {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ec0_7e12);
        let mut brp = BrpNode::new(RECOVER_BRP, None, BrpConfig::default());
        brp.attach_wal(NodeWal::in_memory(WalConfig::default()));
        let now = TimeSlot(0);
        let (window, deadline) = (now + SLOTS_PER_DAY, now + SLOTS_PER_DAY / 2);
        for i in 0..RECOVER_OFFERS {
            let from = NodeId(10_000 + i);
            let owner = ActorId(from.value());
            let offer = gen_offer(i + 1, owner, window, SLOTS_PER_DAY, deadline, &mut rng);
            let submit = Envelope::new(from, RECOVER_BRP, now, Message::SubmitOffer(offer));
            brp.handle(submit, now);
        }
        let (pool_size, pool_digest) = (brp.pool_size(), brp.pool_digest());
        let mut store = brp.take_wal().expect("WAL attached above").into_store();
        let (snapshot, frames) = store.load().expect("in-memory load cannot fail");
        RecoverDrive {
            snapshot,
            frames,
            pool_size,
            pool_digest,
        }
    }

    /// Milliseconds of each of `n` recoveries; a recovered pool that
    /// differs from the live node's is pushed to `failures`.
    fn batch(&mut self, n: usize, failures: &mut Vec<String>) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let mut copy = MemWalStore::new();
                if let Some(snapshot) = &self.snapshot {
                    copy.install_snapshot(snapshot).expect("in-memory install");
                }
                for frame in &self.frames {
                    copy.append(frame).expect("in-memory append");
                }
                let t = Instant::now();
                let (node, _) = BrpNode::recover(
                    RECOVER_BRP,
                    None,
                    BrpConfig::default(),
                    Box::new(copy),
                    WalConfig::default(),
                    TimeSlot(0),
                )
                .expect("in-memory recovery cannot fail");
                let elapsed = t.elapsed().as_secs_f64() * 1e3;
                if (node.pool_size(), node.pool_digest()) != (self.pool_size, self.pool_digest) {
                    failures.push(format!(
                        "recovered pool of {} offers differs from the live node's {}",
                        node.pool_size(),
                        self.pool_size
                    ));
                }
                elapsed
            })
            .collect()
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
