// Sharded parallel trace-replay engine, hardened against worker failure.
//
// The engine drives any model of the ReplayTarget concept
// (replay_target.hpp); `CacheReplayTarget` below — a bare
// core::ParallelCache — is the first model, and the three paper systems
// (systems/*/..._target.hpp) are the others.  A target's bucket hash
// partitions its state into disjoint units, so replay is embarrassingly
// parallel across unit ranges: a dispatcher routes each operation to the
// shard owning its bucket (ShardPlan carves [0, units) into contiguous
// ranges), batches of ~256 routed ops flow through one SPSC queue per
// shard (the batch buffers circulate through the rings rather than being
// allocated per push), and each worker prefetches the next batch's unit
// cache lines before draining the previous batch. Because every unit is
// touched by exactly one shard and each shard processes its ops in arrival
// order, the final target state and the merged statistics are
// bit-identical to sequential replay.
//
// On machines without spare hardware threads (or with ShardedConfig::mode =
// kInline) the same dispatch loop runs with zero workers: one
// dispatcher-owned slot covers every unit, so the calling thread applies
// each block itself.  Batching still buys memory-level parallelism from the
// two-phase route-and-prefetch then update pass, and determinism is
// unchanged.
//
// Failure model (DESIGN.md §10): the engine no longer assumes every worker
// drains its queue.  Pushes use deadline-bounded backpressure
// (SpscQueue::try_push_for); when a shard stops making progress past
// RobustConfig::stall_timeout_us the dispatcher's watchdog asks the worker
// to park (cooperative abandon), waits for the park acknowledgement, then
// *takes the shard over*: the queued batches are applied on the
// dispatcher thread in FIFO order, followed by every later op routed to that
// shard.  A worker parks only at a batch boundary after applying its
// prefetched pending batch, so each batch is applied exactly once and each
// unit still sees its ops in arrival order — the merged statistics stay
// bit-identical to sequential replay even under injected stalls.  Fault
// injection enters through the `Faults` template hook (fault_plan.hpp);
// the default NoFaults instantiation folds every hook to nothing.
//
// Checkpointing (target_checkpoint.hpp): the dispatcher can cut a globally
// consistent snapshot at any dispatch boundary.  It first flushes every
// open partial batch, so the applied set is exactly the contiguous op
// prefix [0, cursor), then raises a `snapshot` epoch on each live worker's
// ShardCtl.  A worker observes the request at a batch boundary, drains its
// queue to empty (the dispatcher stopped pushing before raising the epoch,
// so "empty" means "everything up to the cut"), publishes its stats, acks,
// and spin-waits for the matching release — parking at the boundary and
// resuming, rather than abandoning.  Workers that are already parked or
// that never ack (wedged mid-batch) fall back to the existing park/takeover
// ladder, so a checkpoint can always complete.  Between ack and release no
// worker writes the cache, which makes the dispatcher's plane reads safe.
//
// Cooperative-park assumption: both the watchdog and the snapshot protocol
// rely on workers reaching a *batch boundary* to observe abandon/snapshot
// flags.  A worker wedged inside process_batch (e.g. stuck on a poisoned
// page) never acknowledges; the dispatcher's park-ack wait is a bounded
// exponential-backoff sleep (telemetry: ReplayTelemetry::park_wait_us) rather
// than a busy spin, but it still waits forever — preemptive cancellation of
// a thread that may hold the cache mid-write cannot preserve bit-exactness.
//
// First-touch: when the cache was constructed with core::defer_init (its
// storage planes are allocated but untouched), each threaded worker
// initializes its own ShardPlan unit sub-range before draining batches, so
// the slab pages backing a shard are faulted in — and, under a first-touch
// NUMA policy, placed — by the thread that will own them.  The inline and
// sequential paths materialize on the calling thread.  Results are
// bit-identical either way.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "p4lru/common/types.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/shard_plan.hpp"
#include "p4lru/replay/spsc_queue.hpp"
#include "p4lru/replay/telemetry.hpp"

namespace p4lru::replay {

/// One logical trace operation: update the cache with <key, value>.
template <typename Key, typename Value>
struct ReplayOp {
    Key key{};
    Value value{};
};

/// Aggregate outcome counters of a replay. Totals are order-independent
/// sums, so the deterministic per-shard merge reproduces the sequential
/// numbers exactly.
struct ReplayStats {
    std::uint64_t ops = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    friend bool operator==(const ReplayStats&, const ReplayStats&) = default;

    void merge(const ReplayStats& o) noexcept {
        ops += o.ops;
        hits += o.hits;
        misses += o.misses;
        evictions += o.evictions;
    }

    template <typename Key, typename Value>
    void tally(const core::UpdateResult<Key, Value>& r) noexcept {
        ++ops;
        if (r.hit) {
            ++hits;
        } else {
            ++misses;
        }
        if (r.evicted) ++evictions;
    }

    [[nodiscard]] double hit_rate() const noexcept {
        return ops ? static_cast<double>(hits) / static_cast<double>(ops)
                   : 0.0;
    }
};

/// Minimal in-memory model of the OpSource concept the streaming engine
/// pulls from (DESIGN.md §14).  An op source is any type exposing
///
///   using value_type = Op;
///   Expected<std::span<const Op>> next_batch(std::size_t max);
///   Status seek(std::uint64_t op_index);
///   std::uint64_t size() const;   std::uint64_t tell() const;
///   const char* name() const;
///
/// with the TraceSource batch contract (trace_source.hpp): next_batch
/// returns exactly min(max, size() - tell()) ops, an empty span means end
/// of stream, the span stays valid until the next next_batch()/seek(), and
/// errors are typed Status at the batch boundary.  SpanOpSource wraps a
/// span the caller already holds — it never fails — and is how an
/// in-memory op sequence goes through the engine.
/// op_source.hpp bridges trace::TraceSource (on-disk packet streams) into
/// the same concept.
template <typename Op>
class SpanOpSource {
  public:
    using value_type = Op;

    explicit SpanOpSource(std::span<const Op> ops) noexcept : ops_(ops) {}

    [[nodiscard]] Expected<std::span<const Op>> next_batch(std::size_t max) {
        const std::size_t n = std::min(max, ops_.size() - cursor_);
        auto out = ops_.subspan(cursor_, n);
        cursor_ += n;
        return Expected<std::span<const Op>>(out);
    }

    [[nodiscard]] Status seek(std::uint64_t op_index) {
        if (op_index > ops_.size()) {
            return Status(ErrorCode::kInvalidArgument,
                          "seek to op " + std::to_string(op_index) +
                              " past stream of " +
                              std::to_string(ops_.size()));
        }
        cursor_ = static_cast<std::size_t>(op_index);
        return Status::ok();
    }

    [[nodiscard]] std::uint64_t size() const noexcept { return ops_.size(); }
    [[nodiscard]] std::uint64_t tell() const noexcept { return cursor_; }
    [[nodiscard]] const char* name() const noexcept { return "span"; }

  private:
    std::span<const Op> ops_;
    std::size_t cursor_ = 0;
};

enum class Mode {
    kAuto,      ///< threaded when >1 CPU in the affinity mask, else inline
    kThreaded,  ///< always spawn workers (tests, tsan)
    kInline     ///< always run on the calling thread
};

/// Degradation-ladder knobs of the hardened runtime.  The defaults keep the
/// fault-free fast path indistinguishable from the legacy engine (a push
/// deadline only matters when the ring is actually full) while bounding how
/// long a dead worker can wedge the dispatcher.
struct RobustConfig {
    /// Per-attempt bound on a blocked push before the dispatcher re-examines
    /// the shard (spin → yield ladder inside SpscQueue::try_push_for).
    std::uint32_t push_deadline_us = 500;
    /// Continuous no-progress window after which the watchdog abandons the
    /// shard's worker and takes the shard over.
    std::uint32_t stall_timeout_us = 50'000;
    /// Ops between integrity scrub passes (0 = off).  Sequential and inline
    /// replay scrub the whole array on this cadence; threaded workers scrub
    /// their own shard's unit range, so no scrub ever races an update.
    std::uint64_t scrub_every = 0;
};

struct ShardedConfig {
    std::size_t shards = 0;         ///< worker count; 0 = default_shards()
    std::size_t batch_ops = 256;    ///< ops per dispatched batch
    std::size_t queue_batches = 64; ///< SPSC ring capacity, in batches
    Mode mode = Mode::kAuto;
    RobustConfig robust{};          ///< backpressure/watchdog/scrub knobs
    /// Live metrics sink (obs/metrics.hpp).  Null (the default) disables
    /// instrumentation entirely: instrument handles are never resolved and
    /// the hot paths pay one predicted pointer test per *batch*, so the
    /// disabled run stays bit-identical and within noise of pre-obs builds
    /// (priced by perfbench's `obs_mops` against `sharded_mops`).
    obs::Registry* metrics = nullptr;
};

/// What a sharded replay actually ran, alongside the merged statistics.
/// Generic over the target's mergeable statistics type; `ShardedReport` is
/// the cache-replay instantiation.
template <typename Stats>
struct BasicShardedReport : ReplayTelemetry {
    Stats stats{};
    std::size_t shards = 0;  ///< shard count after clamping
    bool threaded = false;   ///< workers spawned (vs inline fallback)
};

using ShardedReport = BasicShardedReport<ReplayStats>;

/// Default pull size of replay_target_sequential_stream: large enough to
/// amortize the per-batch virtual call, small enough that a bounded-memory
/// source stays bounded.  Results never depend on it — ops are applied one
/// at a time in stream order whatever the pull size.
inline constexpr std::size_t kSequentialPullOps = 4096;

namespace detail {

/// An op routed to its owning bucket; the dispatcher hashes exactly once.
template <typename Key, typename Value>
struct RoutedOp {
    std::uint32_t bucket = 0;
    Key key{};
    Value value{};
};

/// Per-shard control block shared between a worker and the dispatcher's
/// watchdog.  `progress` counts fully applied batches (release after each);
/// `abandon` is the watchdog's cooperative park request; `parked` is the
/// worker's acknowledgement that it has published its stats and will never
/// touch the cache or its queue again — the release/acquire edge that makes
/// the consumer-role handoff to the dispatcher safe.
///
/// The snap_* trio is the checkpoint quiesce protocol (epochs, not flags,
/// so a control block is reusable across many checkpoints): the dispatcher
/// bumps `snap_req` after it has stopped pushing; the worker drains its
/// queue, publishes stats, stores the epoch into `snap_ack` (release — the
/// edge the dispatcher's plane reads ride on) and waits; the dispatcher
/// stores the epoch into `snap_release` once the snapshot is taken, which
/// resumes the worker.
struct alignas(64) ShardCtl {
    std::atomic<std::uint64_t> progress{0};
    std::atomic<bool> abandon{false};
    std::atomic<bool> parked{false};
    std::atomic<std::uint64_t> snap_req{0};
    std::atomic<std::uint64_t> snap_ack{0};
    std::atomic<std::uint64_t> snap_release{0};
};

}  // namespace detail

/// The first model of the ReplayTarget concept (replay_target.hpp): drives
/// a bare core::ParallelCache through the engine.  It is a thin, stateless
/// view — routing hashes once via the cache's bucket hash, batches go
/// through the cache's routed-batch update path, and the snapshot plane is
/// the storage's raw plane image tagged with its layout id + geometry
/// fingerprint, so a cache checkpoint is an ordinary target checkpoint.
/// Key and Value default to the cache's own, so `CacheReplayTarget
/// target(cache);` deduces everything.
template <typename Cache, typename Key = typename Cache::key_type,
          typename Value = typename Cache::value_type>
class CacheReplayTarget {
  public:
    using Op = ReplayOp<Key, Value>;
    using Routed = detail::RoutedOp<Key, Value>;
    using Stats = ReplayStats;

    explicit CacheReplayTarget(Cache& cache) noexcept : cache_(&cache) {}

    [[nodiscard]] std::size_t unit_count() const {
        return cache_->unit_count();
    }

    /// Hash the op to its owning bucket — exactly once per op.
    [[nodiscard]] Routed route(const Op& op) const {
        return Routed{static_cast<std::uint32_t>(cache_->bucket(op.key)),
                      op.key, op.value};
    }

    void prefetch_unit(std::uint32_t bucket) const {
        cache_->prefetch_unit(bucket);
    }
    void prefetch_batch(std::span<const Routed> batch) const {
        for (const auto& op : batch) cache_->prefetch_unit(op.bucket);
    }

    /// Apply a routed batch in arrival order (bit-exactness), each op's
    /// unit prefetched a fixed distance ahead.  Workers additionally warm
    /// the *next* batch via prefetch_batch; the distance prefetch inside
    /// update_routed_batch is the near-window re-warm right before use.
    void apply_batch(std::span<const Routed> batch, Stats& stats) {
        cache_->update_routed_batch(
            batch, [&stats](std::size_t, std::size_t, const auto& r) {
                stats.tally(r);
            });
    }

    // -- first-touch plane (deferred-init NUMA placement) ----------------
    [[nodiscard]] bool materialized() const { return cache_->materialized(); }
    void materialize() { cache_->materialize(); }
    void first_touch_range(std::size_t lo, std::size_t hi) {
        cache_->first_touch_range(lo, hi);
    }
    void mark_materialized() { cache_->mark_materialized(); }

    // -- integrity plane -------------------------------------------------
    core::ScrubReport scrub(std::size_t lo, std::size_t hi) {
        return cache_->scrub(lo, hi);
    }
    core::ScrubReport scrub_all() { return cache_->scrub_all(); }

    // -- snapshot plane (checkpoint cut) ---------------------------------
    [[nodiscard]] static std::uint32_t state_id() {
        return Storage::layout_id();
    }
    [[nodiscard]] static std::uint64_t state_fingerprint() {
        return Storage::plane_fingerprint();
    }
    void save_state(std::vector<std::byte>& out) const {
        cache_->storage().save_planes(out);
    }
    [[nodiscard]] bool load_state(std::span<const std::byte> in) {
        cache_->materialize();  // load overwrites; planes must exist first
        return cache_->storage().load_planes(in);
    }

    // -- fault hooks (fault_plan.hpp) ------------------------------------
    // Data faults enter through the target so each target decides what "op
    // corruption" and "storage corruption" mean for it.
    template <typename Faults>
    void inject_op_faults(const Faults& faults, std::uint64_t idx,
                          Op& op) const {
        faults.mutate_key(idx, op.key);
    }
    template <typename Faults>
    void inject_storage_faults(const Faults& faults, std::uint64_t idx) {
        faults.corrupt_storage(idx, cache_->storage());
    }

    [[nodiscard]] Cache& cache() const noexcept { return *cache_; }

  private:
    using Storage =
        std::remove_cvref_t<decltype(std::declval<const Cache&>().storage())>;
    Cache* cache_;
};

/// Everything a checkpoint sink needs to capture a consistent cut of a
/// running sharded replay.  Invariant: the target holds exactly the effects
/// of the op prefix [0, cursor), `stats` is the merged outcome of that
/// prefix (stats.ops == cursor), and `shard_stats[t]` is shard t's share —
/// which doubles as shard t's op cursor, since every shard has applied all
/// of its ops below the cut.  The span aliases dispatcher-owned scratch:
/// copy it before returning from the sink.  Generic over the target's
/// statistics type; `CheckpointCut` is the cache-replay instantiation.
template <typename Stats>
struct BasicCheckpointCut : ReplayTelemetry {
    std::uint64_t cursor = 0;             ///< ops applied (prefix length)
    std::uint64_t delivered_batches = 0;  ///< dispatch batches so far
    std::span<const Stats> shard_stats;   ///< per-shard split of stats
    Stats stats{};
    std::size_t shards = 0;
    bool threaded = false;
};

using CheckpointCut = BasicCheckpointCut<ReplayStats>;

namespace detail {

/// Disabled checkpoint hook: the default instantiation folds the trigger
/// check and the quiesce machinery away entirely (if constexpr on
/// kEnabled), so a plain replay_target_sharded_stream pays nothing.
/// target_checkpoint.hpp's TargetDispatchCheckpointer is the enabled
/// counterpart.
struct NoCheckpoint {
    static constexpr bool kEnabled = false;
    [[nodiscard]] bool due(std::uint64_t /*delivered*/) const noexcept {
        return false;
    }
    template <typename Stats>
    void emit(const BasicCheckpointCut<Stats>& /*cut*/) const noexcept {}
    [[nodiscard]] static constexpr bool stop_requested() noexcept {
        return false;
    }
};

/// Shared engine behind replay_target_sharded_stream and the checkpointed
/// replay/resume (target_checkpoint.hpp).  `Target` is any
/// model of the ReplayTarget concept (replay_target.hpp) — the engine only
/// routes, batches, prefetches and applies; what an op *means* belongs to
/// the target.  `Source` is any model of the OpSource concept (SpanOpSource
/// above, op_source.hpp for on-disk traces); the engine pulls `batch_ops`
/// records at a time, so its resident set is O(batch) plus whatever the
/// source itself stages.  `Ckpt` decides at compile time whether the
/// dispatch loop carries checkpoint triggers; `ckpt.due(delivered)` is
/// polled at dispatch boundaries and `ckpt.emit(cut)` runs with every
/// worker quiesced.  Inline mode is the same loop with zero workers.
///
/// The run covers the ops [source.tell(), source.size()) at entry, and all
/// indices — fault ordinals, checkpoint cursors — are relative to the entry
/// position: seek-based resume (target_checkpoint.hpp) positions the source
/// at the checkpoint cursor instead of re-reading the prefix.
///
/// A source failure (rot discovered mid-stream, a file that shrank under
/// the reader) aborts the run at a batch boundary: no further batches are
/// delivered, the queues are closed, the workers join, and the Status is
/// returned after the join — the target is left in a valid (but partial)
/// state and must be discarded or re-seeded by the caller.
template <typename Target, typename Source, typename Faults, typename Ckpt>
Expected<BasicShardedReport<typename Target::Stats>>
replay_sharded_stream_impl(Target& target, Source& source,
                           const ShardedConfig& cfg, const Faults& faults,
                           Ckpt& ckpt) {
    using Op = typename Target::Op;
    using Routed = typename Target::Routed;
    using Stats = typename Target::Stats;
    using Batch = std::vector<Routed>;
    static_assert(
        std::is_same_v<std::remove_cvref_t<typename Source::value_type>, Op>,
        "op source value_type must match the target's Op type");

    const std::size_t requested = cfg.shards ? cfg.shards : default_shards();
    const ShardPlan plan = ShardPlan::make(target.unit_count(), requested);
    const std::size_t W = plan.shards();
    const std::size_t batch_ops = cfg.batch_ops ? cfg.batch_ops : 256;
    const std::uint64_t scrub_every = cfg.robust.scrub_every;
    const std::uint64_t remaining = source.size() - source.tell();

    const bool threaded =
        cfg.mode == Mode::kThreaded ||
        (cfg.mode == Mode::kAuto && W > 1 && threads_profitable());
    // Dispatch slots: one per worker, or — with zero workers — a single
    // dispatcher-owned slot covering [0, units).
    const std::size_t slots = threaded ? W : 1;

    BasicShardedReport<Stats> report;
    report.shards = W;
    report.threaded = threaded;

    // Obs instruments (null registry = fully disabled).  Handles are
    // resolved once here; the hot paths below test one pointer per batch.
    // Timing (steady_clock reads around apply_batch) only happens when the
    // histogram handle is live, so the disabled run does no clock calls.
    obs::Counter* obs_batches = nullptr;
    obs::Histogram* obs_batch_ns = nullptr;
    obs::Counter* obs_backpressure = nullptr;
    obs::Counter* obs_park_us = nullptr;
    obs::Counter* obs_drained = nullptr;
    obs::Counter* obs_abandoned = nullptr;
    std::vector<obs::Gauge*> obs_depth;  ///< per-shard queue depth
    if (cfg.metrics != nullptr) {
        obs_batches = cfg.metrics->counter("replay_batches_applied");
        obs_batch_ns = cfg.metrics->histogram("replay_batch_apply_ns");
        obs_backpressure = cfg.metrics->counter("replay_backpressure_waits");
        obs_park_us = cfg.metrics->counter("replay_park_wait_us");
        obs_drained = cfg.metrics->counter("replay_drained_inline");
        obs_abandoned = cfg.metrics->counter("replay_abandoned_workers");
        obs_depth.resize(W);
        for (std::size_t s = 0; s < W; ++s) {
            obs_depth[s] = cfg.metrics->gauge(
                "replay_shard" + std::to_string(s) + "_queue_depth");
        }
    }
    // A telemetry counter and its obs mirror move together.
    const auto bump = [](std::uint64_t& field, obs::Counter* mirror,
                         std::uint64_t n) {
        field += n;
        if (mirror != nullptr) mirror->add(n);
    };
    // One timed apply shared by every path (worker, take-over, dispatcher).
    const auto apply_timed = [&target, obs_batches, obs_batch_ns](
                                 std::span<const Routed> batch, Stats& into) {
        if (obs_batch_ns != nullptr) {
            const auto t0 = std::chrono::steady_clock::now();
            target.apply_batch(batch, into);
            obs_batch_ns->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
            obs_batches->add(1);
        } else {
            target.apply_batch(batch, into);
        }
    };

    // Deferred-init targets: threaded workers first-touch their own shard's
    // unit sub-range below; every other path materializes right here.
    const bool first_touch = !target.materialized() && threaded;
    if (!first_touch) target.materialize();

    // Per-slot state.  `results` is what a worker publishes (cache-line
    // padded: workers write concurrently); `open` is the batch the
    // dispatcher is building; `drained` holds the stats of ops the
    // dispatcher applied itself; `inlined` marks slots the dispatcher owns —
    // from the start with zero workers, from a take-over otherwise.
    struct alignas(64) PaddedStats {
        Stats s{};
        core::ScrubReport scrub;
    };
    std::vector<PaddedStats> results(slots);
    std::vector<Batch> open(slots);
    for (auto& b : open) b.reserve(batch_ops);
    std::vector<Stats> drained(slots);
    std::vector<char> inlined(slots, threaded ? 0 : 1);
    std::vector<detail::ShardCtl> ctl(slots);
    std::vector<std::unique_ptr<SpscQueue<Batch>>> queues;  // one per worker
    for (std::size_t s = 0; threaded && s < W; ++s) {
        queues.push_back(std::make_unique<SpscQueue<Batch>>(
            cfg.queue_batches ? cfg.queue_batches : 64));
    }
    const auto push_deadline = std::chrono::microseconds(
        cfg.robust.push_deadline_us ? cfg.robust.push_deadline_us : 500);
    const auto stall_timeout = std::chrono::microseconds(
        cfg.robust.stall_timeout_us ? cfg.robust.stall_timeout_us : 50'000);

    // -- worker ----------------------------------------------------------
    const auto run_worker = [&](std::size_t s) {
        const auto [shard_lo, shard_hi] = plan.range(s);
        if (first_touch) {
            // Fault this shard's slab sub-range in from the thread that will
            // own it (first-touch placement).
            target.first_touch_range(shard_lo, shard_hi);
        }
        SpscQueue<Batch>& queue = *queues[s];
        Stats local{};
        core::ScrubReport scrub_local;
        Batch pending;
        Batch next;
        bool have_pending = false;
        bool parked = false;
        std::uint64_t popped = 0;
        std::uint64_t ops_since_scrub = 0;
        [[maybe_unused]] std::uint64_t snap_seen = 0;
        const auto finish_pending = [&] {
            if (!have_pending) return;
            apply_timed(std::span<const Routed>(pending), local);
            ops_since_scrub += pending.size();
            have_pending = false;
            ctl[s].progress.fetch_add(1, std::memory_order_release);
            if (scrub_every != 0 && ops_since_scrub >= scrub_every) {
                // Scrub only this shard's own unit range: no other thread
                // touches those units, so the scrub never races an update.
                scrub_local.merge(target.scrub(shard_lo, shard_hi));
                ops_since_scrub = 0;
            }
        };
        // One pipeline step on the batch just popped into `next` (by the
        // normal pop or a snapshot drain): any injected delay, then warm its
        // units and apply the previous batch — prefetch one batch ahead.
        const auto step = [&] {
            if constexpr (Faults::kEnabled) {
                if (const auto us = faults.batch_delay_us(s, popped)) {
                    std::this_thread::sleep_for(std::chrono::microseconds(us));
                }
            }
            ++popped;
            target.prefetch_batch(std::span<const Routed>(next));
            finish_pending();
            // Swap, not move: the applied buffer goes back into the ring
            // on the next pop, and from there to the dispatcher's next push.
            std::swap(pending, next);
            have_pending = true;
        };
        const auto publish = [&] {
            finish_pending();
            results[s].s = local;
            results[s].scrub = scrub_local;
        };
        for (;;) {
            // Batch-boundary checks: cooperative abandon and injected
            // stalls.  Parking applies the prefetched pending batch first,
            // so every popped batch is applied exactly once and the queue
            // retains the untouched suffix for the dispatcher.
            if (ctl[s].abandon.load(std::memory_order_acquire)) {
                parked = true;
                break;
            }
            if constexpr (Faults::kEnabled) {
                if (faults.worker_parks(s, popped)) {
                    parked = true;
                    break;
                }
            }
            if constexpr (Ckpt::kEnabled) {
                const auto req =
                    ctl[s].snap_req.load(std::memory_order_acquire);
                if (req != snap_seen) {
                    // Snapshot request.  The dispatcher stopped pushing
                    // before raising the epoch, so an empty queue means
                    // everything up to the cut has been seen: drain fully
                    // (keeping the prefetch pipeline), publish stats, ack,
                    // and hold at this boundary until the dispatcher
                    // releases the epoch.
                    while (queue.try_pop(next)) step();
                    publish();
                    ctl[s].snap_ack.store(req, std::memory_order_release);
                    int spin = 0;
                    while (ctl[s].snap_release.load(std::memory_order_acquire) <
                           req) {
                        if (ctl[s].abandon.load(std::memory_order_acquire)) {
                            break;  // top of loop parks us
                        }
                        // Plane serialization can take a while: pause-spin
                        // briefly, then yield.
                        if (++spin <= 64) {
                            cpu_relax();
                        } else {
                            std::this_thread::yield();
                        }
                    }
                    snap_seen = req;
                    continue;
                }
            }
            if (!queue.try_pop(next)) {
                if (!queue.closed()) {
                    std::this_thread::yield();
                    continue;
                }
                if (!queue.try_pop(next)) break;
            }
            step();
        }
        publish();
        if (parked) {
            // Publish park *after* the stats: the dispatcher acquires
            // `parked` before assuming the consumer role, which orders it
            // after everything above.
            ctl[s].parked.store(true, std::memory_order_release);
        }
    };

    // -- degradation ladder (dispatcher side) ----------------------------
    // Take shard s over: from now on the dispatcher applies its ops.  The
    // queued batches come out first, in FIFO order — exactly the suffix the
    // worker never applied — so per-unit arrival order is preserved.
    const auto take_over = [&](std::size_t s) {
        inlined[s] = 1;
        bump(report.drained_inline, obs_drained, 1);
        Batch b;
        while (queues[s]->try_pop(b)) {
            target.prefetch_batch(std::span<const Routed>(b));
            apply_timed(std::span<const Routed>(b), drained[s]);
        }
    };
    // The one ladder, shared by batch delivery and the checkpoint quiesce:
    // retry `attempt` while worker s makes progress.  A worker that parked on
    // its own is taken over at once; one that makes no progress for
    // stall_timeout is abandoned, awaited, then taken over.  True when the
    // attempt succeeded, false when the dispatcher now owns shard s.
    const auto await_or_take_over = [&](std::size_t s, auto&& attempt) {
        auto last_progress = ctl[s].progress.load(std::memory_order_acquire);
        auto stalled_since = std::chrono::steady_clock::now();
        for (;;) {
            if (attempt()) return true;
            if (ctl[s].parked.load(std::memory_order_acquire)) {
                break;  // worker died on its own: recover now
            }
            const auto p = ctl[s].progress.load(std::memory_order_acquire);
            const auto now = std::chrono::steady_clock::now();
            if (p != last_progress) {
                last_progress = p;  // slow but alive: keep going
                stalled_since = now;
            } else if (now - stalled_since >= stall_timeout) {
                ctl[s].abandon.store(true, std::memory_order_release);
                bump(report.abandoned_workers, obs_abandoned, 1);
                // Bounded-backoff wait for the park acknowledgement: sleep
                // 1us doubling to ~1ms instead of busy-yielding, and account
                // the slept time.  Still unbounded in total — see the
                // cooperative-park note in the file header.
                for (std::uint32_t us = 1;
                     !ctl[s].parked.load(std::memory_order_acquire);
                     us = std::min(us * 2, 1024u)) {
                    std::this_thread::sleep_for(std::chrono::microseconds(us));
                    bump(report.park_wait_us, obs_park_us, us);
                }
                break;
            }
        }
        take_over(s);
        return false;
    };

    // -- dispatcher --------------------------------------------------------
    // Route op `idx` to its bucket.  Data faults (plane/op corruption)
    // inject only with zero workers, where the dispatcher is the target's
    // single owner.
    const auto route = [&](const Op& op, [[maybe_unused]] std::uint64_t idx) {
        if constexpr (Faults::kEnabled) {
            if (!threaded) {
                Op faulty = op;
                target.inject_storage_faults(faults, idx);
                target.inject_op_faults(faults, idx, faulty);
                return target.route(faulty);
            }
        }
        return target.route(op);
    };

    // Hand slot s's full (or final partial) batch on: push it to the worker
    // through the ladder, or — for a dispatcher-owned slot — apply it here.
    // A successful push swaps in the buffer the worker last handed back, so
    // the slot refills without allocating.  Delivered batches are the
    // checkpoint cadence unit.
    std::uint64_t delivered = 0;
    std::uint64_t until_scrub = scrub_every;
    const auto deliver = [&](std::size_t s) {
        Batch& b = open[s];
        ++delivered;
        const bool pushed = !inlined[s] && await_or_take_over(s, [&] {
            if (queues[s]->try_push_for(b, push_deadline)) {
                if (!obs_depth.empty()) {
                    obs_depth[s]->set(
                        static_cast<std::int64_t>(queues[s]->size_approx()));
                }
                return true;
            }
            bump(report.backpressure_waits, obs_backpressure, 1);
            return false;
        });
        if (!pushed) {
            // Any queued suffix of a taken-over shard was drained first, so
            // per-unit order still holds.  Its ops were not warmed as they
            // were routed: warm them now.
            if (threaded) target.prefetch_batch(std::span<const Routed>(b));
            apply_timed(std::span<const Routed>(b), drained[s]);
            if (!threaded && scrub_every != 0) {
                // Whole-array scrub, only with zero workers.  Carry the op
                // remainder across blocks so the scrub fires on exactly the
                // same op counts as the sequential path: a block of n ops
                // may cross the cadence boundary several times
                // (scrub_every < n) or not at all, and the leftover distance
                // counts against the next block.
                std::uint64_t left = b.size();
                while (left >= until_scrub) {
                    left -= until_scrub;
                    report.scrub.merge(target.scrub_all());
                    until_scrub = scrub_every;
                }
                until_scrub -= left;
            }
        }
        b.clear();
        // The first lap round a ring hands back never-used, empty buffers.
        if (b.capacity() < batch_ops) b.reserve(batch_ops);
    };

    // Consistent cut at the op prefix [0, cursor); returns whether the sink
    // asked the run to stop there.
    [[maybe_unused]] std::uint64_t snap_epoch = 0;
    [[maybe_unused]] std::vector<Stats> cut_stats(slots);
    [[maybe_unused]] const auto cut = [&](std::uint64_t cursor) {
        // Step 1: flush every open partial batch so the delivered set is
        // exactly the op prefix — batch sizes never affect stats or final
        // planes, only throughput.
        for (std::size_t t = 0; t < slots; ++t) {
            if (!open[t].empty()) deliver(t);
        }
        // Step 2: quiesce each live worker.  The epoch is raised only after
        // the flush, so a worker's "queue empty" means "cut reached".  A
        // worker that never acks walks the same ladder as delivery.
        const std::uint64_t epoch = ++snap_epoch;
        for (std::size_t t = 0; t < slots; ++t) {
            if (!inlined[t]) {
                ctl[t].snap_req.store(epoch, std::memory_order_release);
            }
        }
        for (std::size_t t = 0; t < slots; ++t) {
            if (inlined[t]) continue;
            await_or_take_over(t, [&] {
                if (ctl[t].snap_ack.load(std::memory_order_acquire) == epoch) {
                    return true;
                }
                std::this_thread::yield();
                return false;
            });
        }
        // Step 3: every shard is either ack-parked at its boundary or
        // dispatcher-owned; nobody writes the target until release, so the
        // sink may serialize its state.
        BasicCheckpointCut<Stats> c;
        c.telemetry() = report.telemetry();
        c.cursor = cursor;
        c.delivered_batches = delivered;
        for (std::size_t t = 0; t < slots; ++t) {
            cut_stats[t] = results[t].s;
            cut_stats[t].merge(drained[t]);
            c.stats.merge(cut_stats[t]);
            c.scrub.merge(results[t].scrub);
        }
        c.shard_stats = cut_stats;
        c.shards = W;
        c.threaded = threaded;
        ckpt.emit(c);
        // Step 4: resume the quiesced workers.
        for (std::size_t t = 0; t < slots; ++t) {
            ctl[t].snap_release.store(epoch, std::memory_order_release);
        }
        return ckpt.stop_requested();
    };

    // A source failure mid-dispatch; returned after the workers join.
    Status stream_error = Status::ok();
    {
        std::vector<std::jthread> workers;
        workers.reserve(queues.size());
        for (std::size_t s = 0; s < queues.size(); ++s) {
            workers.emplace_back(run_worker, s);
        }

        // Dispatch: pull, route, batch, deliver — and cut on cadence.
        bool stopped = false;
        std::uint64_t i = 0;
        // Route one pulled chunk into the open batches.  Compiled once per
        // case, so the per-op path tests no mode.
        const auto dispatch_chunk = [&](std::span<const Op> chunk,
                                        auto has_workers) {
            for (std::size_t k = 0; k < chunk.size() && !stopped; ++k) {
                const Routed r = route(chunk[k], i);
                std::size_t s = 0;
                if constexpr (has_workers) {
                    s = plan.owner(r.bucket);
                } else {
                    // With zero workers the dispatcher applies every block
                    // itself: warm the unit now, overlapping its latency
                    // with hashing the following ops.
                    target.prefetch_unit(r.bucket);
                }
                Batch& b = open[s];
                b.push_back(r);
                ++i;
                if (b.size() == batch_ops) deliver(s);
                if constexpr (Ckpt::kEnabled) {
                    // Cooperative early stop (crash injection / supervisor
                    // shutdown) ends the run at the cut just emitted —
                    // never throwing, which would deadlock the parked
                    // workers against the jthread join — so the report
                    // covers exactly the checkpointed prefix [0, i).
                    if (i < remaining && ckpt.due(delivered)) stopped = cut(i);
                }
            }
        };
        while (i < remaining && !stopped) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(batch_ops, remaining - i));
            auto pulled = source.next_batch(want);
            if (!pulled.is_ok()) {
                stream_error = pulled.status();
                break;
            }
            const std::span<const Op> chunk = pulled.value();
            if (chunk.empty()) {
                // Contract violation guard: the source promised more ops
                // than it delivered without reporting why.
                stream_error = invalid_state(
                    "op source '" + std::string(source.name()) +
                    "' ended at op " + std::to_string(i) + " of " +
                    std::to_string(remaining));
                break;
            }
            if (threaded) {
                dispatch_chunk(chunk, std::true_type{});
            } else {
                dispatch_chunk(chunk, std::false_type{});
            }
        }
        // A source failure abandons the run: nothing more is delivered (the
        // in-flight prefix is already with the workers) and the Status
        // surfaces after the join below.  The close wakes the workers into
        // a closed queue and they exit cleanly.
        for (std::size_t s = 0; s < slots; ++s) {
            if (stream_error.is_ok() && !open[s].empty()) deliver(s);
            if (!inlined[s]) queues[s]->close();
        }
    }  // jthreads join here
    if (!stream_error.is_ok()) return stream_error;

    // Post-join sweep: a worker that parked during the final drain (or one
    // that died without ever filling its ring) left a queued suffix behind;
    // take it over now, in order, on this thread.
    for (std::size_t s = 0; s < queues.size(); ++s) {
        if (!inlined[s] && queues[s]->size_approx() != 0) take_over(s);
    }
    if (first_touch) target.mark_materialized();

    for (std::size_t s = 0; s < slots; ++s) {
        report.stats.merge(drained[s]);
        report.stats.merge(results[s].s);
        report.scrub.merge(results[s].scrub);
    }
    return report;
}

}  // namespace detail

/// Sequential reference replay of any ReplayTarget over any op source: one
/// op at a time on the calling thread, in stream order, pulled in
/// `pull_ops`-record batches.  This is the oracle the sharded modes of the
/// system targets are proven bit-identical against (tests/systems/).  Fails
/// only when the source fails.
template <typename Target, typename Source>
[[nodiscard]] Expected<typename Target::Stats>
replay_target_sequential_stream(Target& target, Source& source,
                                std::size_t pull_ops = kSequentialPullOps) {
    target.materialize();
    typename Target::Stats stats{};
    for (;;) {
        auto pulled = source.next_batch(pull_ops ? pull_ops : 1);
        if (!pulled.is_ok()) return pulled.status();
        const auto chunk = pulled.value();
        if (chunk.empty()) break;
        for (const auto& op : chunk) {
            const typename Target::Routed r = target.route(op);
            target.apply_batch(
                std::span<const typename Target::Routed>(&r, 1), stats);
        }
    }
    return stats;
}

/// Sharded replay of any ReplayTarget through the shared engine: inline
/// batched on one thread or threaded across shard workers per `cfg.mode`,
/// with the full degradation ladder (backpressure, watchdog abandon,
/// order-preserving take-over) and fault hooks.  `Faults` is the
/// injection hook set: fault::NoFaults (default) compiles every hook away;
/// fault::InjectedFaults applies a FaultPlan (worker stalls/delays in
/// threaded mode; plane/op corruption in inline mode, where a single thread
/// owns the target).  The engine pulls `cfg.batch_ops`-record chunks, so
/// its footprint is O(batch) and an on-disk trace far larger than RAM
/// replays through a bounded-memory source (op_source.hpp over
/// trace::ChunkedFileSource).  Covers the ops [source.tell(),
/// source.size()); statistics and final target state are bit-identical to
/// replay_target_sequential_stream for any shard geometry, including
/// degraded runs.  Fails when the source fails mid-stream; the target is
/// then left in a valid but partial state.
template <typename Target, typename Source, typename Faults = fault::NoFaults>
[[nodiscard]] Expected<BasicShardedReport<typename Target::Stats>>
replay_target_sharded_stream(Target& target, Source& source,
                             const ShardedConfig& cfg = {},
                             const Faults& faults = {}) {
    detail::NoCheckpoint no_ckpt;
    return detail::replay_sharded_stream_impl(target, source, cfg, faults,
                                              no_ckpt);
}

/// Adapter: a packet trace as replay operations (key = 5-tuple, value = wire
/// length — the LruTable/LruMon-style update stream).
[[nodiscard]] std::vector<ReplayOp<FlowKey, std::uint32_t>> ops_from_packets(
    std::span<const PacketRecord> trace);

}  // namespace p4lru::replay
