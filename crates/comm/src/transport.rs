//! The pluggable transport layer beneath [`crate::Comm`].
//!
//! The collective code path — pack per-destination buffers, irregular
//! exchange, unpack — lives once in `comm.rs`, written against the
//! [`Transport`] trait. Two backends implement it:
//!
//! * [`SharedMem`] — the real executor: the `P × P` slot matrix and cyclic
//!   barrier of the crate-private `hub` module. Collective wall time is
//!   whatever the host actually spent.
//! * [`SimNet`] — a *simulated network*: it delegates every payload to an
//!   inner [`SharedMem`] (so results are byte-identical), but reports the
//!   wall time a `dibella_netmodel::Platform` would have charged for the
//!   collective — `α + α_rank·P` latency per call, off-node bytes at the
//!   node's injection bandwidth, on-node bytes at memory bandwidth, and
//!   the paper's one-time first-`MPI_Alltoallv` setup (§6/§10). Ranks are
//!   placed `ranks_per_node` to a virtual node, so the same run can be
//!   executed "on" Cori Haswell or a commodity-Ethernet AWS cluster and
//!   `CommStats::exchange_wall` reflects the modeled interconnect.
//!
//! Backends are chosen via [`TransportKind`], which parses from the CLI
//! syntax `shared` / `sim:<platform>[:<ranks_per_node>]`.

use crate::hub::Hub;
use dibella_netmodel::{
    collective_latency_s, exchange_transfer_s, first_alltoallv_setup_s, Platform, PlatformId,
};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One completed collective, as described to a transport backend when the
/// communicator asks what wall time to charge for it.
#[derive(Clone, Copy, Debug)]
pub enum Collective<'a> {
    /// An irregular exchange; `dest_bytes[d]` is the payload this rank
    /// sent to destination `d` in this call.
    Alltoallv {
        /// Per-destination payload bytes of this rank's contribution.
        dest_bytes: &'a [u64],
    },
    /// A dense collective (alltoall of counts, allgather, reduction,
    /// scan) — small fixed-size values, modeled latency-only.
    Dense,
}

/// Result a split exchange's helper delivers: either the received buffers
/// plus the wall time the backend charges, or the helper's panic payload
/// (re-raised on the waiting rank thread so mismatched-collective bugs
/// surface with their original message).
pub(crate) type ExchangeResult = Result<(Vec<Vec<u8>>, Duration), Box<dyn Any + Send>>;

/// Handle to an irregular byte exchange started with
/// [`Transport::exchange_start`] and finished with
/// [`Transport::exchange_wait`].
///
/// Backend-agnostic: the backend's helper task (a thread off the rayon
/// pool) performs the actual slot traffic and sends the result through
/// this handle's channel, so the owning rank thread is free to pack the
/// next round while the exchange is in flight.
pub struct InFlight {
    rx: mpsc::Receiver<ExchangeResult>,
}

impl InFlight {
    /// Block until the helper finishes; re-raise its panic if it died.
    fn finish(self) -> (Vec<Vec<u8>>, Duration) {
        match self
            .rx
            .recv()
            .expect("exchange helper thread vanished without a result")
        {
            Ok(out) => out,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Wait up to `timeout` for the helper's result without consuming the
    /// handle. `None` means the helper is still running (a stalled or
    /// slow exchange — the hardened wait loop counts these against
    /// [`RetryPolicy::max_wait_timeouts`]); the helper's panic payload is
    /// returned as the `Err` arm for the caller to re-raise.
    pub(crate) fn poll(&self, timeout: Duration) -> Option<ExchangeResult> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("exchange helper thread vanished without a result")
            }
        }
    }
}

/// How the hardened exchange layer recovers from a damaged round: how
/// long to wait on a stalled exchange, how often to retransmit, and how
/// to back off between attempts.
///
/// A transport advertises a policy via [`Transport::retry_policy`]; the
/// communicator then frames every round payload (see [`crate::frame`])
/// and replays damaged rounds. Transports that return `None` (the
/// in-process [`SharedMem`] and [`SimNet`], whose medium cannot corrupt
/// bytes) keep the exact unframed fast path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmit attempts per round before the rank fails the stage.
    pub max_retries: u32,
    /// How long one `InFlight::poll` waits before counting a timeout.
    pub wait_timeout: Duration,
    /// Consecutive poll timeouts tolerated before the wait is declared
    /// hung and the rank panics (failing the stage cleanly).
    pub max_wait_timeouts: u32,
    /// Backoff before the first retransmit; doubles per attempt.
    pub backoff_base: Duration,
    /// Ceiling on the doubled backoff.
    pub backoff_max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 8,
            wait_timeout: Duration::from_secs(30),
            max_wait_timeouts: 40,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(100),
        }
    }
}

/// Take the `(src → dst)` deposit of a byte exchange and restore its type.
fn take_bytes(hub: &Hub, src: usize, dst: usize) -> Vec<u8> {
    *hub.take(src, dst)
        .downcast::<Vec<u8>>()
        .unwrap_or_else(|_| panic!("slot ({src},{dst}) holds unexpected type"))
}

/// Run one full irregular byte exchange for `rank` over `hub`: deposit the
/// per-destination buffers, rendezvous, drain this rank's column, and
/// rendezvous again so slots can be reused. This is the body every split
/// exchange's helper executes.
fn exchange_on_hub(hub: &Hub, rank: usize, send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let p = hub.size();
    for (dst, buf) in send.into_iter().enumerate() {
        hub.put(rank, dst, Box::new(buf));
    }
    hub.wait();
    let recv: Vec<Vec<u8>> = (0..p).map(|src| take_bytes(hub, src, rank)).collect();
    hub.wait();
    recv
}

/// A communication backend: the exchange primitives the collectives in
/// [`crate::Comm`] are written against, plus a timing policy.
///
/// Contract (the usual SPMD one): every rank of the world calls the same
/// collectives in the same order, so backends may synchronize internally —
/// [`Transport::collective_wall`] in particular is called by all ranks for
/// the same operation and may itself use barriers. The split
/// [`Transport::exchange_start`]/[`Transport::exchange_wait`] pair extends
/// that contract: at most one exchange may be in flight per rank, and no
/// other collective may be issued by that rank between the start and the
/// matching wait (packing local buffers is exactly what the gap is for).
pub trait Transport: Send + Sync {
    /// World size.
    fn size(&self) -> usize;

    /// Block until all ranks arrive (one barrier phase).
    fn wait(&self);

    /// Deposit a type-erased buffer for `(src → dst)`.
    fn put(&self, src: usize, dst: usize, value: Box<dyn Any + Send>);

    /// Take the deposit for `(src → dst)`.
    ///
    /// # Panics
    /// Panics if the slot is empty — mismatched collective calls across
    /// ranks (the bug MPI reports as a message-truncation error).
    fn take(&self, src: usize, dst: usize) -> Box<dyn Any + Send>;

    /// Wall time to charge `rank`'s `CommStats::exchange_wall` for one
    /// completed collective. `elapsed` is the time the host really spent;
    /// real backends return it, simulated ones replace it with the
    /// modeled cost.
    fn collective_wall(&self, rank: usize, op: Collective<'_>, elapsed: Duration) -> Duration;

    /// Begin a non-blocking irregular byte exchange: `send[d]` goes to
    /// rank `d`. The traffic moves on a helper task so the caller can
    /// keep computing (packing the next round) until the matching
    /// [`Transport::exchange_wait`].
    fn exchange_start(&self, rank: usize, send: Vec<Vec<u8>>) -> InFlight;

    /// Finish an exchange begun by [`Transport::exchange_start`]: return
    /// the buffers received from every source rank (indexed by source)
    /// and the wall time to charge for the exchange — the helper's
    /// measured time on a real backend, the modeled exchange alone on a
    /// simulated one. What the rank thread did while the exchange was in
    /// flight is never part of it: host packing time is accounted in
    /// `CommStats::pack_wall`, so a simulated platform's clock is a
    /// function of traffic counters only. The default hands back what the
    /// backend's helper delivered — every in-process backend computes its
    /// charge there.
    fn exchange_wait(&self, _rank: usize, pending: InFlight) -> (Vec<Vec<u8>>, Duration) {
        pending.finish()
    }

    /// The recovery policy the communicator should harden irregular
    /// exchanges with, or `None` for a reliable medium (the default):
    /// payloads then move unframed and unchecked, exactly as before the
    /// hardened layer existed.
    fn retry_policy(&self) -> Option<RetryPolicy> {
        None
    }
}

/// The real shared-memory backend: collectives execute through the hub's
/// slot matrix and wall time is the measured host time. This is the exact
/// behavior the communicator had before the transport layer existed.
///
/// Split exchanges overlap for real: the slot traffic runs on a helper
/// thread off the rayon pool while the rank thread keeps packing, so
/// communication/computation overlap is genuine host concurrency, not an
/// accounting fiction.
pub struct SharedMem {
    hub: Arc<Hub>,
}

impl SharedMem {
    /// A shared-memory world of `p` ranks.
    pub fn new(p: usize) -> Self {
        Self { hub: Arc::new(Hub::new(p)) }
    }
}

impl Transport for SharedMem {
    fn size(&self) -> usize {
        self.hub.size()
    }

    fn wait(&self) {
        self.hub.wait();
    }

    fn put(&self, src: usize, dst: usize, value: Box<dyn Any + Send>) {
        self.hub.put(src, dst, value);
    }

    fn take(&self, src: usize, dst: usize) -> Box<dyn Any + Send> {
        self.hub.take(src, dst)
    }

    fn collective_wall(&self, _rank: usize, _op: Collective<'_>, elapsed: Duration) -> Duration {
        elapsed
    }

    fn exchange_start(&self, rank: usize, send: Vec<Vec<u8>>) -> InFlight {
        let hub = Arc::clone(&self.hub);
        let (tx, rx) = mpsc::channel();
        let t0 = Instant::now();
        rayon::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let recv = exchange_on_hub(&hub, rank, send);
                (recv, t0.elapsed())
            }));
            // The receiver only disappears if the rank thread is already
            // unwinding; dropping the result is then the right thing.
            let _ = tx.send(result);
        });
        InFlight { rx }
    }
}

/// Configuration of the simulated-network backend: which platform's
/// interconnect to model and how many ranks share a virtual node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimNetConfig {
    /// The modeled machine (Table 1 platform).
    pub platform: PlatformId,
    /// Ranks per virtual node (rank `r` lives on node `r / ranks_per_node`,
    /// mirroring `dibella_netmodel::NodeMapping`).
    pub ranks_per_node: usize,
}

/// The netmodel-driven simulated-network backend. Payloads move through an
/// inner [`SharedMem`] — results are byte-identical to the real backend —
/// but every collective's reported wall time is the modeled cost on the
/// configured platform, so `CommStats::exchange_wall` behaves as if the
/// run executed on that machine's interconnect.
pub struct SimNet {
    inner: SharedMem,
    model: Arc<SimModel>,
}

/// The modeled-cost state of a [`SimNet`] world, shared with in-flight
/// exchange helpers (hence the `Arc`).
struct SimModel {
    platform: &'static Platform,
    ranks_per_node: usize,
    /// Per-rank flag: has this rank charged the job's first-`Alltoallv`
    /// setup yet? (Collectives are globally ordered, so every rank's
    /// first irregular exchange is the same call.)
    first_done: Vec<AtomicBool>,
    /// Per-rank `dest_bytes` rows of the in-flight alltoallv, published so
    /// each rank can aggregate its whole node's traffic — the NIC is a
    /// per-node resource in the model.
    rows: Vec<Mutex<Vec<u64>>>,
}

impl SimModel {
    fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Modeled wall of one irregular exchange whose per-destination send
    /// volumes on this rank are `dest_bytes`. Synchronizes twice on `hub`
    /// (publish rows / rows-reusable) to aggregate the whole node's
    /// traffic exactly as `dibella_netmodel::stage_cost` does, so it must
    /// be reached by every rank of the world for the same call — either
    /// on the rank threads (blocking collectives) or on the per-rank
    /// exchange helpers (split collectives).
    fn alltoallv_wall(&self, hub: &Hub, rank: usize, dest_bytes: &[u64]) -> Duration {
        let p = hub.size();
        let latency = collective_latency_s(self.platform, p);
        *self.rows[rank].lock().unwrap_or_else(PoisonError::into_inner) = dest_bytes.to_vec();
        hub.wait();
        let home = self.node_of(rank);
        let (mut on, mut off) = (0u64, 0u64);
        for src in (0..p).filter(|&r| self.node_of(r) == home) {
            let row = self.rows[src].lock().unwrap_or_else(PoisonError::into_inner);
            for (dst, &b) in row.iter().enumerate() {
                if self.node_of(dst) == home {
                    on += b;
                } else {
                    off += b;
                }
            }
        }
        hub.wait(); // rows may be reused after this point
        let base = latency + exchange_transfer_s(self.platform, on, off);
        let setup = if !self.first_done[rank].swap(true, Ordering::Relaxed) {
            first_alltoallv_setup_s(self.platform, p, base)
        } else {
            0.0
        };
        Duration::from_secs_f64(base + setup)
    }
}

impl SimNet {
    /// A simulated world of `p` ranks on `cfg.platform`.
    ///
    /// # Panics
    /// Panics if `cfg.ranks_per_node` is zero.
    pub fn new(p: usize, cfg: SimNetConfig) -> Self {
        assert!(cfg.ranks_per_node > 0, "ranks_per_node must be positive");
        Self {
            inner: SharedMem::new(p),
            model: Arc::new(SimModel {
                platform: Platform::get(cfg.platform),
                ranks_per_node: cfg.ranks_per_node,
                first_done: (0..p).map(|_| AtomicBool::new(false)).collect(),
                rows: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
            }),
        }
    }
}

impl Transport for SimNet {
    fn size(&self) -> usize {
        self.inner.size()
    }

    fn wait(&self) {
        self.inner.wait();
    }

    fn put(&self, src: usize, dst: usize, value: Box<dyn Any + Send>) {
        self.inner.put(src, dst, value);
    }

    fn take(&self, src: usize, dst: usize) -> Box<dyn Any + Send> {
        self.inner.take(src, dst)
    }

    fn collective_wall(&self, rank: usize, op: Collective<'_>, _elapsed: Duration) -> Duration {
        match op {
            Collective::Dense => Duration::from_secs_f64(collective_latency_s(
                self.model.platform,
                self.inner.size(),
            )),
            Collective::Alltoallv { dest_bytes } => {
                self.model.alltoallv_wall(&self.inner.hub, rank, dest_bytes)
            }
        }
    }

    fn exchange_start(&self, rank: usize, send: Vec<Vec<u8>>) -> InFlight {
        let hub = Arc::clone(&self.inner.hub);
        let model = Arc::clone(&self.model);
        let (tx, rx) = mpsc::channel();
        rayon::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let sizes: Vec<u64> = send.iter().map(|b| b.len() as u64).collect();
                let recv = exchange_on_hub(&hub, rank, send);
                let modeled = model.alltoallv_wall(&hub, rank, &sizes);
                (recv, modeled)
            }));
            let _ = tx.send(result);
        });
        InFlight { rx }
    }
}

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

/// Per-fault injection rates and recovery knobs of a [`FaultyNet`].
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
    /// Retransmit attempts granted to the hardened layer
    /// ([`RetryPolicy::max_retries`]).
    pub retries: u32,
    /// Wait-timeout granted to the hardened layer, in milliseconds
    /// ([`RetryPolicy::wait_timeout`]).
    pub timeout_ms: u64,
}

impl Default for FaultSpec {
    /// The `none` preset: a faithful pass-through (all rates zero) that
    /// still advertises the hardened layer's default recovery policy.
    fn default() -> Self {
        Self {
            corrupt_per_mille: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            reorder_per_mille: 0,
            stall_per_mille: 0,
            stall_ms: 20,
            retries: RetryPolicy::default().max_retries,
            timeout_ms: RetryPolicy::default().wait_timeout.as_millis() as u64,
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

    /// The retry policy this spec grants the hardened exchange layer.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.retries,
            wait_timeout: Duration::from_millis(self.timeout_ms),
            ..RetryPolicy::default()
        }
    }

    /// True if any injection rate is nonzero.
    pub fn any_rate(&self) -> bool {
        self.corrupt_per_mille != 0
            || self.drop_per_mille != 0
            || self.dup_per_mille != 0
            || self.reorder_per_mille != 0
            || self.stall_per_mille != 0
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

/// The transport a [`FaultyNet`] wraps. A flat enum rather than a nested
/// [`TransportKind`] so the kind stays `Copy` (and fault injection cannot
/// be stacked on itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultyInner {
    /// Wrap the real shared-memory backend.
    SharedMem,
    /// Wrap the simulated-network backend.
    SimNet(SimNetConfig),
}

impl FaultyInner {
    fn build(&self, p: usize) -> Arc<dyn Transport> {
        match self {
            FaultyInner::SharedMem => Arc::new(SharedMem::new(p)),
            FaultyInner::SimNet(cfg) => Arc::new(SimNet::new(p, *cfg)),
        }
    }

    fn as_kind(&self) -> TransportKind {
        match self {
            FaultyInner::SharedMem => TransportKind::SharedMem,
            FaultyInner::SimNet(cfg) => TransportKind::SimNet(*cfg),
        }
    }
}

/// Configuration of a [`FaultyNet`]: what to wrap, the RNG seed, and the
/// fault rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultyConfig {
    /// The wrapped transport.
    pub inner: FaultyInner,
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

/// The fault-injecting chaos backend: wraps any inner transport and
/// mangles the irregular-exchange byte path with seeded, reproducible
/// faults — bit flips, drops, stale duplicates, out-of-order delivery,
/// stalled exchanges. Everything else (dense collectives, barriers, the
/// typed slot traffic, and the hardened layer's own agreement handshake)
/// passes through untouched: the chaos models a lossy *data plane*, which
/// is exactly the part the frame + retry machinery must survive.
///
/// Every fault draw is a pure function of `(seed, rank, destination,
/// call index)`, so a chaos run is bit-reproducible regardless of thread
/// scheduling — the property the chaos soak tests lean on.
pub struct FaultyNet {
    inner: Arc<dyn Transport>,
    seed: u64,
    spec: FaultSpec,
    lanes: Vec<Mutex<LaneState>>,
}

impl FaultyNet {
    /// A chaos world of `p` ranks over `cfg.inner`.
    pub fn new(p: usize, cfg: FaultyConfig) -> Self {
        Self {
            inner: cfg.inner.build(p),
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
    /// returns the mangled buffers and whether this exchange stalls.
    fn mangle(&self, rank: usize, send: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, bool) {
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
        (out, stall)
    }
}

impl Transport for FaultyNet {
    fn size(&self) -> usize {
        self.inner.size()
    }

    fn wait(&self) {
        self.inner.wait();
    }

    fn put(&self, src: usize, dst: usize, value: Box<dyn Any + Send>) {
        self.inner.put(src, dst, value);
    }

    fn take(&self, src: usize, dst: usize) -> Box<dyn Any + Send> {
        self.inner.take(src, dst)
    }

    fn collective_wall(&self, rank: usize, op: Collective<'_>, elapsed: Duration) -> Duration {
        self.inner.collective_wall(rank, op, elapsed)
    }

    fn exchange_start(&self, rank: usize, send: Vec<Vec<u8>>) -> InFlight {
        let (send, stall) = self.mangle(rank, send);
        let stall_ms = self.spec.stall_ms;
        let inner = Arc::clone(&self.inner);
        let (tx, rx) = mpsc::channel();
        // Run the whole inner exchange on our own helper so a stall can
        // sleep without blocking the rank thread.
        rayon::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                if stall {
                    std::thread::sleep(Duration::from_millis(stall_ms));
                }
                let pending = inner.exchange_start(rank, send);
                inner.exchange_wait(rank, pending)
            }));
            let _ = tx.send(result);
        });
        InFlight { rx }
    }

    fn retry_policy(&self) -> Option<RetryPolicy> {
        Some(self.spec.retry_policy())
    }
}

/// Which transport backend a world should run on — the cheap, cloneable
/// configuration that [`crate::CommWorld::run_with`] and
/// `dibella_core::PipelineConfig::transport` carry around.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Real shared-memory execution (the default).
    #[default]
    SharedMem,
    /// Simulated network on a modeled platform.
    SimNet(SimNetConfig),
    /// Fault-injecting chaos wrapper around a real backend.
    Faulty(FaultyConfig),
}

impl TransportKind {
    /// Instantiate the backend for a world of `p` ranks.
    pub fn build(&self, p: usize) -> Arc<dyn Transport> {
        match self {
            TransportKind::SharedMem => Arc::new(SharedMem::new(p)),
            TransportKind::SimNet(cfg) => Arc::new(SimNet::new(p, *cfg)),
            TransportKind::Faulty(cfg) => Arc::new(FaultyNet::new(p, *cfg)),
        }
    }
}

/// Parse the trailing `[:<seed>[:<spec>]]` of a `faulty:` transport:
/// an absent spec is the aggressive `mixed` preset, an absent seed is 0.
fn parse_faulty_tail(tail: &[&str]) -> Result<(u64, FaultSpec), String> {
    match tail {
        [] => Ok((0, FaultSpec::mixed())),
        [seed] => {
            let seed = seed
                .parse()
                .map_err(|_| format!("invalid fault seed {seed:?} (u64)"))?;
            Ok((seed, FaultSpec::mixed()))
        }
        [seed, spec] => {
            let seed = seed
                .parse()
                .map_err(|_| format!("invalid fault seed {seed:?} (u64)"))?;
            Ok((seed, spec.parse()?))
        }
        more => Err(format!(
            "trailing faulty-transport fields {more:?} (expected `[:<seed>[:<spec>]]`)"
        )),
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    /// Parse the CLI syntax: `shared`,
    /// `sim:<platform>[:<ranks_per_node>]` where `<platform>` is `cori`,
    /// `edison`, `titan` or `aws` and `<ranks_per_node>` defaults to the
    /// platform's cores per node, or `faulty:<inner>[:<seed>[:<spec>]]`
    /// where `<inner>` is any non-faulty transport. The inner transport
    /// is matched greedily (longest colon-prefix that parses), so
    /// `faulty:sim:cori:2` wraps `sim:cori:2`; to pass a seed to a `sim`
    /// inner, spell out its ranks-per-node (`faulty:sim:cori:2:42`).
    /// An absent spec is the `mixed` preset, an absent seed is 0.
    fn from_str(s: &str) -> Result<Self, String> {
        if s == "shared" {
            return Ok(TransportKind::SharedMem);
        }
        if let Some(rest) = s.strip_prefix("faulty:") {
            let parts: Vec<&str> = rest.split(':').collect();
            for i in (1..=parts.len()).rev() {
                let inner = match parts[..i].join(":").parse::<TransportKind>() {
                    Ok(TransportKind::SharedMem) => FaultyInner::SharedMem,
                    Ok(TransportKind::SimNet(cfg)) => FaultyInner::SimNet(cfg),
                    Ok(TransportKind::Faulty(_)) | Err(_) => continue,
                };
                let (seed, spec) = parse_faulty_tail(&parts[i..])?;
                return Ok(TransportKind::Faulty(FaultyConfig { inner, seed, spec }));
            }
            return Err(format!(
                "no inner transport in {s:?} (expected `faulty:<inner>[:<seed>[:<spec>]]`)"
            ));
        }
        let Some(rest) = s.strip_prefix("sim:") else {
            return Err(format!(
                "unknown transport {s:?} (expected `shared`, \
                 `sim:<platform>[:<ranks_per_node>]` or `faulty:<inner>[:<seed>[:<spec>]]`)"
            ));
        };
        let mut parts = rest.splitn(2, ':');
        let name = parts.next().unwrap_or_default();
        let id = PlatformId::parse(name)
            .ok_or_else(|| format!("unknown platform {name:?} (cori|edison|titan|aws)"))?;
        let ranks_per_node = match parts.next() {
            None => Platform::get(id).cores_per_node,
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("invalid ranks-per-node {v:?} (positive integer)"))?,
        };
        Ok(TransportKind::SimNet(SimNetConfig { platform: id, ranks_per_node }))
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::SharedMem => write!(f, "shared"),
            TransportKind::SimNet(cfg) => {
                write!(f, "sim:{}:{}", cfg.platform.cli_name(), cfg.ranks_per_node)
            }
            TransportKind::Faulty(cfg) => {
                write!(f, "faulty:{}:{}:{}", cfg.inner.as_kind(), cfg.seed, cfg.spec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CommWorld;
    use dibella_netmodel::CORI;

    fn sim(platform: PlatformId, ranks_per_node: usize) -> TransportKind {
        TransportKind::SimNet(SimNetConfig { platform, ranks_per_node })
    }

    #[test]
    fn parse_round_trip() {
        assert_eq!("shared".parse::<TransportKind>(), Ok(TransportKind::SharedMem));
        assert_eq!(
            "sim:aws:4".parse::<TransportKind>(),
            Ok(sim(PlatformId::Aws, 4))
        );
        // Ranks-per-node defaults to the platform's cores per node.
        assert_eq!(
            "sim:cori".parse::<TransportKind>(),
            Ok(sim(PlatformId::CoriXC40, CORI.cores_per_node))
        );
        for s in ["", "tcp", "sim:", "sim:summit", "sim:aws:0", "sim:aws:x"] {
            assert!(s.parse::<TransportKind>().is_err(), "{s:?} should not parse");
        }
        // Display renders back to parseable syntax.
        for k in [TransportKind::SharedMem, sim(PlatformId::TitanXK7, 8)] {
            assert_eq!(k.to_string().parse::<TransportKind>(), Ok(k));
        }
    }

    #[test]
    fn simnet_payloads_identical_to_sharedmem() {
        let body = |comm: &crate::Comm| {
            let send: Vec<Vec<u32>> = (0..comm.size())
                .map(|d| (0..(comm.rank() + d) as u32).collect())
                .collect();
            comm.alltoallv(send)
        };
        let real = CommWorld::run(4, body);
        let simulated = CommWorld::run_with(4, &sim(PlatformId::Aws, 2), body);
        assert_eq!(real, simulated);
    }

    #[test]
    fn simnet_charges_modeled_alltoallv_time() {
        // 2 ranks on one virtual Cori node: all traffic is on-node, so the
        // second call (first-call setup already paid) must cost exactly
        // latency + bytes / memory-bandwidth.
        let stats = CommWorld::run_with(2, &sim(PlatformId::CoriXC40, 2), |comm| {
            let _ = comm.alltoallv::<u8>(vec![vec![0u8; 500]; 2]);
            comm.take_stats(); // discard the first call (setup-charged)
            let _ = comm.alltoallv::<u8>(vec![vec![0u8; 500]; 2]);
            comm.take_stats()
        });
        let expect = collective_latency_s(&CORI, 2) + exchange_transfer_s(&CORI, 2000, 0);
        for s in &stats {
            assert!(
                (s.exchange_wall.as_secs_f64() - expect).abs() < 1e-9,
                "wall {:?} vs modeled {expect}",
                s.exchange_wall
            );
        }
    }

    #[test]
    fn first_alltoallv_setup_charged_once() {
        let walls = CommWorld::run_with(2, &sim(PlatformId::Aws, 1), |comm| {
            let mut walls = Vec::new();
            for _ in 0..3 {
                let _ = comm.alltoallv::<u8>(vec![vec![7u8; 100]; 2]);
                walls.push(comm.take_stats().exchange_wall);
            }
            walls
        });
        for w in &walls {
            assert!(w[0] > w[1], "first call should carry the setup cost: {w:?}");
            assert_eq!(w[1], w[2], "steady-state calls must cost the same");
        }
    }

    #[test]
    fn off_node_traffic_costs_more_than_on_node() {
        let run = |ranks_per_node: usize| {
            CommWorld::run_with(4, &sim(PlatformId::CoriXC40, ranks_per_node), |comm| {
                let _ = comm.alltoallv::<u8>(vec![vec![1u8; 100_000]; 4]);
                comm.take_stats().exchange_wall
            })
        };
        let one_node = run(4); // everything on one virtual node
        let four_nodes = run(1); // everything off-node
        for (on, off) in one_node.iter().zip(&four_nodes) {
            assert!(off > on, "off-node {off:?} should exceed on-node {on:?}");
        }
    }

    #[test]
    fn dense_collectives_charge_latency_only() {
        let stats = CommWorld::run_with(3, &sim(PlatformId::EdisonXC30, 3), |comm| {
            let _ = comm.allgather(comm.rank() as u64);
            comm.take_stats()
        });
        let expect = collective_latency_s(Platform::get(PlatformId::EdisonXC30), 3);
        for s in &stats {
            assert!((s.exchange_wall.as_secs_f64() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn ethernet_slower_than_aries_same_traffic() {
        let run = |kind: &TransportKind| {
            CommWorld::run_with(4, kind, |comm| {
                let _ = comm.alltoallv::<u8>(vec![vec![3u8; 10_000]; 4]);
                comm.take_stats().exchange_wall
            })
        };
        let aries = run(&sim(PlatformId::CoriXC40, 2));
        let ethernet = run(&sim(PlatformId::Aws, 2));
        for (a, e) in aries.iter().zip(&ethernet) {
            assert!(e > a, "AWS {e:?} should exceed Cori {a:?}");
        }
    }

    #[test]
    #[should_panic(expected = "ranks_per_node must be positive")]
    fn zero_ranks_per_node_rejected() {
        let _ = SimNet::new(2, SimNetConfig { platform: PlatformId::Aws, ranks_per_node: 0 });
    }

    fn faulty(inner: FaultyInner, seed: u64, spec: FaultSpec) -> TransportKind {
        TransportKind::Faulty(FaultyConfig { inner, seed, spec })
    }

    #[test]
    fn parse_faulty_round_trip() {
        // Explicit seed and spec.
        assert_eq!(
            "faulty:shared:7:corrupt=0.1,retries=3".parse::<TransportKind>(),
            Ok(faulty(
                FaultyInner::SharedMem,
                7,
                FaultSpec { corrupt_per_mille: 100, retries: 3, ..FaultSpec::default() }
            ))
        );
        // Seed only → mixed preset.
        assert_eq!(
            "faulty:shared:9".parse::<TransportKind>(),
            Ok(faulty(FaultyInner::SharedMem, 9, FaultSpec::mixed()))
        );
        // The inner transport is matched greedily: `sim:cori:2` is all
        // inner, so the chaos tail is empty.
        assert_eq!(
            "faulty:sim:cori:2".parse::<TransportKind>(),
            Ok(faulty(
                FaultyInner::SimNet(SimNetConfig {
                    platform: PlatformId::CoriXC40,
                    ranks_per_node: 2
                }),
                0,
                FaultSpec::mixed()
            ))
        );
        // With ranks-per-node spelled out, the next field is the seed.
        assert_eq!(
            "faulty:sim:cori:2:42:drop".parse::<TransportKind>(),
            Ok(faulty(
                FaultyInner::SimNet(SimNetConfig {
                    platform: PlatformId::CoriXC40,
                    ranks_per_node: 2
                }),
                42,
                FaultSpec { drop_per_mille: 20, ..FaultSpec::default() }
            ))
        );
        for s in [
            "faulty:",
            "faulty:tcp",
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
            faulty(FaultyInner::SharedMem, 3, FaultSpec::mixed()),
            faulty(
                FaultyInner::SimNet(SimNetConfig { platform: PlatformId::Aws, ranks_per_node: 4 }),
                11,
                FaultSpec { stall_per_mille: 200, stall_ms: 5, timeout_ms: 2, ..FaultSpec::default() },
            ),
        ] {
            assert_eq!(k.to_string().parse::<TransportKind>(), Ok(k), "{k}");
        }
    }

    #[test]
    fn fault_spec_presets_and_overrides() {
        let none: FaultSpec = "none".parse().unwrap();
        assert_eq!(none, FaultSpec::default());
        assert!(!none.any_rate());
        let mixed: FaultSpec = "mixed".parse().unwrap();
        assert!(mixed.any_rate());
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
        // Two FaultyNet instances with the same seed mangle an identical
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
            let net = FaultyNet::new(1, FaultyConfig { inner: FaultyInner::SharedMem, seed, spec });
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
        // A chaos world over SharedMem: payloads after recovery must be
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
        let chaotic = CommWorld::run_with(
            3,
            &faulty(FaultyInner::SharedMem, 5, FaultSpec::mixed()),
            body,
        );
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
        let kind = faulty(FaultyInner::SharedMem, 1, FaultSpec::default());
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
        let kind = faulty(
            FaultyInner::SharedMem,
            2,
            FaultSpec { corrupt_per_mille: 1000, retries: 0, ..FaultSpec::default() },
        );
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
            FaultyInner::SharedMem,
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
        let shared = Arc::new(SharedMem::new(2));
        let pending = shared.exchange_start(0, vec![vec![1u8], vec![2u8]]);
        assert!(
            pending.poll(Duration::from_millis(50)).is_none(),
            "poll should time out while the partner is absent"
        );
        let partner = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            let pending = partner.exchange_start(1, vec![vec![3u8], vec![4u8]]);
            partner.exchange_wait(1, pending)
        });
        let (recv0, _) = shared.exchange_wait(0, pending);
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
        let shared = Arc::new(SharedMem::new(2));
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
            shared.exchange_wait(0, pending)
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
