//! Which exchange a world runs, and the seeded fault injector.
//!
//! Every collective executes on the crate-private `hub` module's `P × P`
//! slot matrix and barrier, with each split exchange's slot traffic on a
//! helper thread of its own. [`TransportKind`], which parses from the CLI
//! syntax `shared` / `faulty:shared[:<seed>[:<spec>]]`, says whether the
//! hub also runs a `FaultyNet`: a seeded injector that mangles the
//! irregular-exchange byte path — and only that path — for the
//! communicator's hardened layer (frame, CRC, retransmit) to recover
//! from. Neither kind models a machine's interconnect: modeled times come
//! from projecting a run's traffic counters (`dibella_core::project`).

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// splitmix64 — the same finalizer `dibella_kmer::mix64` uses, duplicated
/// here so the comm crate stays dependency-free. Drives every fault draw,
/// keyed by `(seed, rank, dst, call index)`, so injection is a pure
/// function of the schedule and chaos runs replay exactly.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-fault injection rates and recovery knobs of a `faulty:` world.
///
/// Rates are stored in per-mille (probability × 1000) so the config stays
/// `Copy + Eq`. Parsed from a comma-separated spec where each entry is a
/// preset (`none`, `corrupt`, `drop`, `mixed`) or a `key=value` pair:
/// `corrupt`/`drop`/`dup`/`reorder`/`stall` take probabilities in `[0, 1]`,
/// `stall_ms`/`timeout_ms` take milliseconds, `retries` a count. Later
/// entries override earlier ones, so `mixed,retries=0` is the mixed
/// preset with retransmission disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Per-mille chance a delivered frame has one random bit flipped.
    pub corrupt_per_mille: u32,
    /// Per-mille chance a frame is replaced by an empty buffer.
    pub drop_per_mille: u32,
    /// Per-mille chance a frame is replaced by a duplicate of the
    /// previous round's frame on the same lane (a stale replay).
    pub dup_per_mille: u32,
    /// Per-mille chance a frame is held back and the lane's previously
    /// held (or previous round's) frame is delivered instead —
    /// out-of-order delivery.
    pub reorder_per_mille: u32,
    /// Per-mille chance the whole exchange is stalled by `stall_ms`
    /// before any byte moves.
    pub stall_per_mille: u32,
    /// How long a stalled exchange sleeps.
    pub stall_ms: u64,
    /// Retransmit attempts per round the hardened layer makes before the
    /// rank fails the stage.
    pub retries: u32,
    /// How long, in milliseconds, one poll of a stalled exchange waits
    /// before the hardened layer counts a wait timeout.
    pub timeout_ms: u64,
}

impl Default for FaultSpec {
    /// The `none` preset: a faithful pass-through (all rates zero) that
    /// still runs the hardened layer with its default recovery knobs.
    fn default() -> Self {
        Self {
            corrupt_per_mille: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            reorder_per_mille: 0,
            stall_per_mille: 0,
            stall_ms: 20,
            retries: 8,
            timeout_ms: 30_000,
        }
    }
}

impl FaultSpec {
    /// The `mixed` preset: every fault class enabled, rates tuned so a
    /// smoke-sized run (a few hundred frame-sends) trips several faults
    /// while retries still converge sharply. A retransmit re-rolls all
    /// `P²` frames of the round, so the per-attempt clean probability is
    /// `(1-f)^(P²)`; at the ~2.3% combined rate here a P=4 round clears
    /// in ~1.4 attempts on average and exhausting the default 8-retry
    /// budget has odds in the 1e-5 range per faulted round.
    pub fn mixed() -> Self {
        Self {
            corrupt_per_mille: 10,
            drop_per_mille: 5,
            dup_per_mille: 5,
            reorder_per_mille: 3,
            stall_per_mille: 0,
            ..Self::default()
        }
    }
}

/// Parse a probability token (`0`..`1`) into per-mille.
fn parse_rate(key: &str, v: &str) -> Result<u32, String> {
    v.parse::<f64>()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .map(|p| (p * 1000.0).round() as u32)
        .ok_or_else(|| format!("invalid {key} rate {v:?} (probability in [0, 1])"))
}

impl std::str::FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut spec = FaultSpec::default();
        for entry in s.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            match entry.split_once('=') {
                None => match entry {
                    "none" => spec = FaultSpec::default(),
                    "corrupt" => {
                        spec = FaultSpec { corrupt_per_mille: 20, ..FaultSpec::default() }
                    }
                    "drop" => spec = FaultSpec { drop_per_mille: 20, ..FaultSpec::default() },
                    "mixed" => spec = FaultSpec::mixed(),
                    other => {
                        return Err(format!(
                            "unknown fault preset {other:?} (none|corrupt|drop|mixed)"
                        ))
                    }
                },
                Some((key, v)) => match key {
                    "corrupt" => spec.corrupt_per_mille = parse_rate(key, v)?,
                    "drop" => spec.drop_per_mille = parse_rate(key, v)?,
                    "dup" => spec.dup_per_mille = parse_rate(key, v)?,
                    "reorder" => spec.reorder_per_mille = parse_rate(key, v)?,
                    "stall" => spec.stall_per_mille = parse_rate(key, v)?,
                    "stall_ms" => {
                        spec.stall_ms = v
                            .parse()
                            .map_err(|_| format!("invalid stall_ms {v:?} (milliseconds)"))?
                    }
                    "retries" => {
                        spec.retries = v
                            .parse()
                            .map_err(|_| format!("invalid retries {v:?} (count)"))?
                    }
                    "timeout_ms" => {
                        spec.timeout_ms = v
                            .parse()
                            .ok()
                            .filter(|&ms: &u64| ms > 0)
                            .ok_or_else(|| {
                                format!("invalid timeout_ms {v:?} (positive milliseconds)")
                            })?
                    }
                    other => {
                        return Err(format!(
                            "unknown fault key {other:?} \
                             (corrupt|drop|dup|reorder|stall|stall_ms|retries|timeout_ms)"
                        ))
                    }
                },
            }
        }
        Ok(spec)
    }
}

impl std::fmt::Display for FaultSpec {
    /// Canonical `key=value` form that parses back to an equal spec.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt={},drop={},dup={},reorder={},stall={},stall_ms={},retries={},timeout_ms={}",
            self.corrupt_per_mille as f64 / 1000.0,
            self.drop_per_mille as f64 / 1000.0,
            self.dup_per_mille as f64 / 1000.0,
            self.reorder_per_mille as f64 / 1000.0,
            self.stall_per_mille as f64 / 1000.0,
            self.stall_ms,
            self.retries,
            self.timeout_ms,
        )
    }
}

/// Configuration of a `faulty:` world: the RNG seed and the fault rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultyConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Injection rates and recovery knobs.
    pub spec: FaultSpec,
}

/// Per-source-rank fault-injection state: the exchange call counter that
/// keys the RNG stream, plus the per-destination frames the dup and
/// reorder faults replay.
struct LaneState {
    calls: u64,
    /// Last frame genuinely submitted to each destination (previous
    /// round) — what a `dup` fault replays.
    prev: Vec<Option<Vec<u8>>>,
    /// Frame held back by a `reorder` fault, delivered by the next
    /// reorder event on the same lane.
    held: Vec<Option<Vec<u8>>>,
}

/// The fault injector a `faulty:` world's hub applies to every
/// irregular-exchange send: seeded, reproducible bit flips, drops, stale
/// duplicates, out-of-order delivery and stalled exchanges. Everything
/// else (dense collectives, barriers, the typed slot traffic, and the
/// hardened layer's own agreement handshake) passes untouched: the chaos
/// models a lossy *data plane*, which is exactly the part the frame +
/// retry machinery must survive.
///
/// Every fault draw is a pure function of `(seed, rank, destination,
/// call index)`, so a chaos run is bit-reproducible regardless of thread
/// scheduling — the property the chaos soak tests lean on.
pub(crate) struct FaultyNet {
    seed: u64,
    pub(crate) spec: FaultSpec,
    lanes: Vec<Mutex<LaneState>>,
}

impl FaultyNet {
    /// The injector of a chaos world of `p` ranks.
    pub(crate) fn new(p: usize, cfg: FaultyConfig) -> Self {
        Self {
            seed: cfg.seed,
            spec: cfg.spec,
            lanes: (0..p)
                .map(|_| {
                    Mutex::new(LaneState {
                        calls: 0,
                        prev: vec![None; p],
                        held: vec![None; p],
                    })
                })
                .collect(),
        }
    }

    /// Draw the fault stream for `(rank, dst, call)`; `word` selects
    /// independent words of the stream.
    fn draw(&self, rank: usize, dst: usize, call: u64, word: u64) -> u64 {
        let mut x = self.seed;
        x = splitmix64(x ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = splitmix64(x ^ (dst as u64));
        x = splitmix64(x ^ call);
        splitmix64(x ^ word)
    }

    /// Did a fault with rate `per_mille` fire for this draw?
    fn fires(&self, per_mille: u32, rank: usize, dst: usize, call: u64, word: u64) -> bool {
        per_mille > 0 && self.draw(rank, dst, call, word) % 1000 < per_mille as u64
    }

    /// Apply the per-lane fault schedule to one round's send buffers;
    /// returns the mangled buffers and how long the exchange stalls
    /// before any byte moves.
    pub(crate) fn mangle(&self, rank: usize, send: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, Duration) {
        let mut lane = self.lanes[rank].lock().unwrap_or_else(PoisonError::into_inner);
        let call = lane.calls;
        lane.calls += 1;
        let stall = self.fires(self.spec.stall_per_mille, rank, rank, call, 0);
        let mut out = Vec::with_capacity(send.len());
        for (dst, frame) in send.into_iter().enumerate() {
            let original = frame.clone();
            let mangled = if self.fires(self.spec.reorder_per_mille, rank, dst, call, 1) {
                // Hold this frame; deliver whatever the lane last held,
                // falling back to the previous round's frame, then to an
                // empty buffer (pure loss until a later reorder event).
                let late = lane.held[dst].take().or_else(|| lane.prev[dst].clone());
                lane.held[dst] = Some(frame);
                late.unwrap_or_default()
            } else if self.fires(self.spec.drop_per_mille, rank, dst, call, 2) {
                Vec::new()
            } else if self.fires(self.spec.dup_per_mille, rank, dst, call, 3) {
                // A stale replay of the previous round (if any).
                lane.prev[dst].clone().unwrap_or(frame)
            } else if self.fires(self.spec.corrupt_per_mille, rank, dst, call, 4) && !frame.is_empty()
            {
                let mut bad = frame;
                let bit = self.draw(rank, dst, call, 5) % (bad.len() as u64 * 8);
                bad[(bit / 8) as usize] ^= 1 << (bit % 8);
                bad
            } else {
                frame
            };
            lane.prev[dst] = Some(original);
            out.push(mangled);
        }
        (out, Duration::from_millis(if stall { self.spec.stall_ms } else { 0 }))
    }
}

/// Which exchange a world runs — the cheap, cloneable configuration that
/// [`crate::CommWorld::run_with`] and
/// `dibella_core::PipelineConfig::transport` carry around.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Real shared-memory execution (the default).
    #[default]
    SharedMem,
    /// Shared memory with seeded faults injected into the irregular
    /// exchanges' byte path, which the hardened layer recovers from.
    Faulty(FaultyConfig),
}

/// Parse the trailing `[:<seed>[:<spec>]]` of a `faulty:` transport:
/// an absent spec is the aggressive `mixed` preset, an absent seed is 0.
fn parse_faulty_tail(tail: &[&str]) -> Result<(u64, FaultSpec), String> {
    let seed = |s: &str| s.parse().map_err(|_| format!("invalid fault seed {s:?} (u64)"));
    match tail {
        [] => Ok((0, FaultSpec::mixed())),
        [s] => Ok((seed(s)?, FaultSpec::mixed())),
        [s, spec] => Ok((seed(s)?, spec.parse()?)),
        more => Err(format!(
            "trailing faulty-transport fields {more:?} (expected `[:<seed>[:<spec>]]`)"
        )),
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    /// Parse the CLI syntax: `shared`, or
    /// `faulty:shared[:<seed>[:<spec>]]` — shared memory with the fault
    /// injector, where an absent spec is the `mixed` preset and an absent
    /// seed is 0.
    fn from_str(s: &str) -> Result<Self, String> {
        if s == "shared" {
            return Ok(TransportKind::SharedMem);
        }
        let Some(rest) = s.strip_prefix("faulty:") else {
            return Err(format!(
                "unknown transport {s:?} (expected `shared` or `faulty:shared[:<seed>[:<spec>]]`)"
            ));
        };
        let parts: Vec<&str> = rest.split(':').collect();
        if parts[0] != "shared" {
            return Err(format!(
                "the faulty transport wraps only `shared`, not {:?} \
                 (expected `faulty:shared[:<seed>[:<spec>]]`)",
                parts[0]
            ));
        }
        let (seed, spec) = parse_faulty_tail(&parts[1..])?;
        Ok(TransportKind::Faulty(FaultyConfig { seed, spec }))
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::SharedMem => write!(f, "shared"),
            TransportKind::Faulty(cfg) => write!(f, "faulty:shared:{}:{}", cfg.seed, cfg.spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Hub;
    use crate::world::CommWorld;
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    fn faulty(seed: u64, spec: FaultSpec) -> TransportKind {
        TransportKind::Faulty(FaultyConfig { seed, spec })
    }

    #[test]
    fn parse_round_trip() {
        assert_eq!("shared".parse::<TransportKind>(), Ok(TransportKind::SharedMem));
        // A modeled platform is a projection of the run's counters, not a
        // transport: the CLI takes `sim:` itself.
        for s in ["", "tcp", "sim:", "sim:aws:4", "sim:cori", "shared:1"] {
            assert!(s.parse::<TransportKind>().is_err(), "{s:?} should not parse");
        }
        // Display renders back to parseable syntax.
        let k = TransportKind::SharedMem;
        assert_eq!(k.to_string().parse::<TransportKind>(), Ok(k));
    }

    #[test]
    fn parse_faulty_round_trip() {
        // Explicit seed and spec.
        assert_eq!(
            "faulty:shared:7:corrupt=0.1,retries=3".parse::<TransportKind>(),
            Ok(faulty(7, FaultSpec { corrupt_per_mille: 100, retries: 3, ..FaultSpec::default() }))
        );
        // Seed only → mixed preset; neither → seed 0 as well.
        assert_eq!("faulty:shared:9".parse::<TransportKind>(), Ok(faulty(9, FaultSpec::mixed())));
        assert_eq!("faulty:shared".parse::<TransportKind>(), Ok(faulty(0, FaultSpec::mixed())));
        for s in [
            "faulty:",
            "faulty:tcp",
            "faulty:sim:cori:2",
            "faulty:faulty:shared",
            "faulty:shared:x",
            "faulty:shared:1:bogus",
            "faulty:shared:1:corrupt=2",
            "faulty:shared:1:retries=x",
            "faulty:shared:1:timeout_ms=0",
            "faulty:shared:1:corrupt=0.1:extra",
        ] {
            assert!(s.parse::<TransportKind>().is_err(), "{s:?} should not parse");
        }
        // Display renders back to parseable, equal syntax.
        for k in [
            faulty(3, FaultSpec::mixed()),
            faulty(11, FaultSpec { stall_per_mille: 200, stall_ms: 5, timeout_ms: 2, ..FaultSpec::default() }),
        ] {
            assert_eq!(k.to_string().parse::<TransportKind>(), Ok(k), "{k}");
        }
    }

    #[test]
    fn fault_spec_presets_and_overrides() {
        let none: FaultSpec = "none".parse().unwrap();
        assert_eq!(none, FaultSpec::default());
        let mixed: FaultSpec = "mixed".parse().unwrap();
        assert_eq!(mixed, FaultSpec::mixed());
        assert_ne!(mixed, none);
        // Later entries override earlier ones.
        let tweaked: FaultSpec = "mixed,retries=0,dup=0".parse().unwrap();
        assert_eq!(tweaked.retries, 0);
        assert_eq!(tweaked.dup_per_mille, 0);
        assert_eq!(tweaked.corrupt_per_mille, FaultSpec::mixed().corrupt_per_mille);
        // Spec Display round-trips.
        for spec in [none, mixed, tweaked] {
            assert_eq!(spec.to_string().parse::<FaultSpec>(), Ok(spec));
        }
    }

    #[test]
    fn fault_injection_is_deterministic() {
        // Two injectors with the same seed mangle an identical
        // schedule identically; a different seed diverges somewhere.
        // Rates far above the presets so 50 calls guarantee divergence —
        // no retry loop runs here, only the mangler.
        let spec = FaultSpec {
            corrupt_per_mille: 200,
            drop_per_mille: 100,
            dup_per_mille: 100,
            reorder_per_mille: 50,
            ..FaultSpec::default()
        };
        let run = |seed: u64| {
            let net = FaultyNet::new(1, FaultyConfig { seed, spec });
            let mut out = Vec::new();
            for call in 0..50u8 {
                let frames = vec![vec![call; 64]];
                let (mangled, stall) = net.mangle(0, frames);
                out.push((mangled, stall));
            }
            out
        };
        assert_eq!(run(12), run(12));
        assert_ne!(run(12), run(34));
        // And the mixed preset actually injects on this schedule.
        let mangled = run(12);
        assert!(
            (0..50).any(|i| mangled[i].0[0] != vec![i as u8; 64]),
            "mixed preset injected nothing over 50 calls"
        );
    }

    #[test]
    fn faulty_exchange_recovers_bit_identically() {
        // A chaos world over shared memory: payloads after recovery must be
        // exactly what a fault-free world delivers, and the robustness
        // counters must show the layer actually worked for its living.
        let body = |comm: &crate::Comm| {
            let mut out = Vec::new();
            for round in 0..20u64 {
                let send: Vec<Vec<u8>> = (0..comm.size())
                    .map(|d| {
                        (0..(8 + (comm.rank() as u64 + d as u64 + round) % 29))
                            .map(|i| (i * 31 + round + comm.rank() as u64) as u8)
                            .collect()
                    })
                    .collect();
                let pending = comm.exchange_start(send);
                out.push(comm.exchange_wait(pending));
            }
            (out, comm.take_stats())
        };
        let clean = CommWorld::run(3, body);
        let chaotic = CommWorld::run_with(3, &faulty(5, FaultSpec::mixed()), body);
        let mut survived = 0u64;
        for ((clean_out, clean_stats), (chaos_out, chaos_stats)) in clean.iter().zip(&chaotic) {
            assert_eq!(clean_out, chaos_out, "recovered payloads must be bit-identical");
            // Logical traffic accounting is chaos-invariant.
            assert_eq!(clean_stats.dest_bytes, chaos_stats.dest_bytes);
            assert_eq!(clean_stats.alltoallv_calls, chaos_stats.alltoallv_calls);
            assert_eq!(clean_stats.peak_round_bytes, chaos_stats.peak_round_bytes);
            assert!(!clean_stats.any_faults_survived());
            survived += chaos_stats.frames_corrupt_detected
                + chaos_stats.duplicates_dropped
                + chaos_stats.frames_retransmitted;
        }
        assert!(survived > 0, "mixed preset at seed 5 injected nothing over 60 rounds");
    }

    #[test]
    fn faulty_with_zero_rates_is_transparent() {
        let kind = faulty(1, FaultSpec::default());
        let stats = CommWorld::run_with(2, &kind, |comm| {
            let send: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![4, 5]];
            let recv = comm.alltoallv_bytes(send);
            (recv, comm.take_stats())
        });
        for (rank, (recv, s)) in stats.iter().enumerate() {
            assert_eq!(recv.len(), 2);
            assert!(!s.any_faults_survived(), "rank {rank}: {s:?}");
        }
    }

    #[test]
    fn exhausted_retries_fail_the_stage() {
        // Corrupt every frame and allow no retries: the hardened wait
        // must panic with the checkpoint hint rather than loop or hang.
        let kind = faulty(2, FaultSpec { corrupt_per_mille: 1000, retries: 0, ..FaultSpec::default() });
        let err = std::panic::catch_unwind(|| {
            CommWorld::run_with(2, &kind, |comm| {
                let send = vec![vec![9u8; 100], vec![7u8; 100]];
                comm.alltoallv_bytes(send)
            })
        })
        .expect_err("all-corrupt with zero retries must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("still damaged"), "unexpected panic: {msg}");
    }

    #[test]
    fn stalled_exchange_trips_wait_timeout_then_recovers() {
        // Stall every exchange for longer than the wait timeout: the
        // hardened wait must record timeouts, keep polling, and still
        // deliver the round bit-identically.
        let kind = faulty(
            3,
            FaultSpec {
                stall_per_mille: 1000,
                stall_ms: 40,
                timeout_ms: 10,
                ..FaultSpec::default()
            },
        );
        let results = CommWorld::run_with(2, &kind, |comm| {
            let send: Vec<Vec<u8>> =
                (0..2).map(|d| vec![comm.rank() as u8 * 16 + d as u8; 32]).collect();
            let recv = comm.alltoallv_bytes(send);
            (recv, comm.take_stats())
        });
        for (rank, (recv, s)) in results.iter().enumerate() {
            for (src, buf) in recv.iter().enumerate() {
                assert_eq!(buf, &vec![src as u8 * 16 + rank as u8; 32]);
            }
            assert!(s.wait_timeouts > 0, "rank {rank} saw no wait timeouts: {s:?}");
        }
    }

    #[test]
    fn inflight_poll_times_out_then_finishes() {
        // Rank 0 starts an exchange in a 2-rank world whose partner has
        // not arrived: the helper blocks at the hub barrier, so poll must
        // report a timeout instead of hanging the suite. Once the partner
        // shows up, the same handle completes normally.
        let shared = Arc::new(Hub::new(2, &TransportKind::SharedMem));
        let pending = shared.exchange_start(0, vec![vec![1u8], vec![2u8]]);
        assert!(
            pending.poll(Duration::from_millis(50)).is_none(),
            "poll should time out while the partner is absent"
        );
        let partner = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            let pending = partner.exchange_start(1, vec![vec![3u8], vec![4u8]]);
            pending.finish()
        });
        let (recv0, _) = pending.finish();
        let (recv1, _) = t.join().unwrap();
        assert_eq!(recv0, vec![vec![1u8], vec![3u8]]);
        assert_eq!(recv1, vec![vec![2u8], vec![4u8]]);
    }

    #[test]
    fn helper_panic_reraised_on_rank_thread() {
        // Poison rank 0's incoming slot with a wrong-typed deposit; the
        // exchange helper panics downcasting it mid-overlap, and that
        // panic must re-raise on the rank thread at wait time with its
        // original message.
        let shared = Arc::new(Hub::new(2, &TransportKind::SharedMem));
        let partner = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            // Rank 1 deposits a non-Vec<u8> for (1,0) and joins only the
            // first barrier phase: rank 0's helper panics while draining
            // its column and never reaches the second phase.
            partner.put(1, 0, Box::new(42u64));
            partner.put(1, 1, Box::new(Vec::<u8>::new()));
            partner.wait();
        });
        let pending = shared.exchange_start(0, vec![Vec::new(), Vec::new()]);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pending.finish()
        }))
        .expect_err("poisoned slot must panic at wait");
        t.join().unwrap();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("unexpected type"), "unexpected panic: {msg}");
    }
}
