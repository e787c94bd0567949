// Deterministic fault injection for the replay runtime.
//
// A FaultPlan is a fixed, seed-reproducible list of fault events; nothing in
// it consults a clock or an ambient RNG, so a failing chaos run replays
// bit-identically from its seed.  Two event families:
//
//   * worker faults (threaded replay) — kWorkerStall parks a shard's worker
//     (simulated thread death: it publishes its stats and never touches the
//     cache again), kBatchDelay makes a worker sleep before applying a batch
//     (creates genuine SPSC backpressure against small rings);
//   * data faults (sequential / inline replay, where a single thread owns
//     the cache) — kCorruptMeta / kCorruptKey XOR a mask into the SoaSlab
//     meta or key plane just before a chosen op index (the scrubber's prey),
//     kCorruptOp flips bits in the dispatched op's key (a corrupt trace
//     record).
//
// The replay engine takes the plan through a hook object template parameter:
// NoFaults (the default) is an empty type whose hooks are constexpr no-ops —
// every call site folds away under `if constexpr (Faults::kEnabled)`, so the
// production path pays nothing.  InjectedFaults adapts a FaultPlan to the
// same vocabulary.
//
// FlakyService models an unreliable downstream dependency (the LruIndex
// db_server): request `seq` fails its first `fails_per_incident` attempts
// whenever a seeded hash of seq lands on the failure period.  The driver's
// retry-with-backoff path is tested against it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "p4lru/common/random.hpp"

namespace p4lru::fault {

enum class FaultKind : std::uint8_t {
    kWorkerStall,  ///< shard `shard`'s worker parks before popping batch `at`
    kBatchDelay,   ///< worker sleeps `arg` microseconds before batch `at`
    kCorruptMeta,  ///< XOR `arg` into unit `unit`'s meta word before op `at`
    kCorruptKey,   ///< XOR `arg` into a key-plane byte of unit `unit` at `at`
    kCorruptOp,    ///< XOR `arg` into the op's key bytes at dispatch index `at`
};

struct FaultEvent {
    FaultKind kind = FaultKind::kWorkerStall;
    std::uint64_t at = 0;     ///< batch index (worker faults) or op index
    std::uint32_t shard = 0;  ///< target shard (worker faults only)
    std::uint64_t unit = 0;   ///< target unit (plane corruption only)
    std::uint64_t arg = 0;    ///< XOR mask, or delay in microseconds

    friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// I/O faults injected into streaming trace readers (trace_source.hpp).
/// Addressed by *chunk index* — the ordinal of the chunk the background
/// reader is about to read, counted from the last seek — so a plan replays
/// identically for a given (trace, chunk size, seek history).
enum class IoFaultKind : std::uint8_t {
    kShortRead,   ///< first read() of chunk `at` returns only half the bytes
    kEintrRead,   ///< chunk `at`'s read is interrupted `arg` times (EINTR)
    kSlowReader,  ///< reader sleeps `arg` microseconds before chunk `at`
};

struct IoFaultEvent {
    IoFaultKind kind = IoFaultKind::kShortRead;
    std::uint64_t at = 0;   ///< chunk index (since the reader's last seek)
    std::uint64_t arg = 0;  ///< retry count or delay in microseconds

    friend bool operator==(const IoFaultEvent&, const IoFaultEvent&) = default;
};

/// Where a deterministic crash cuts a supervised run (supervisor.hpp /
/// durable_store.hpp).  The first four model a process death inside the
/// store's atomic-install protocol, ordered by how far the install got;
/// the last two model a death outside it.  Every point is recoverable —
/// that is what the crash-point sweep in supervisor_test proves.
enum class CrashPoint : std::uint8_t {
    kBeforeWrite,   ///< died before any byte hit disk; store unchanged
    kTornTemp,      ///< died mid-write: a partial `.tmp` file remains
    kTornInstall,   ///< a torn image landed at the *final* generation path
                    ///< (models a non-atomic filesystem rename/overwrite)
    kBeforeRename,  ///< full temp written + synced, never renamed in
    kAfterInstall,  ///< generation installed; died before pruning old ones
    kBetweenEpochs, ///< installed + pruned, died between dispatch epochs
};

[[nodiscard]] constexpr const char* crash_point_name(CrashPoint p) noexcept {
    switch (p) {
        case CrashPoint::kBeforeWrite: return "before_write";
        case CrashPoint::kTornTemp: return "torn_temp";
        case CrashPoint::kTornInstall: return "torn_install";
        case CrashPoint::kBeforeRename: return "before_rename";
        case CrashPoint::kAfterInstall: return "after_install";
        case CrashPoint::kBetweenEpochs: return "between_epochs";
    }
    return "unknown";
}

/// A scheduled crash: fires at the `at`-th checkpoint-install attempt of a
/// supervised run, counted cumulatively across recovery attempts (so a
/// restarted run that re-reaches the same cadence point does NOT re-crash —
/// each retry makes progress).  `arg` selects the section boundary the torn
/// variants cut at (clamped to the image's section count): 0 = end of the
/// fixed header, 1 = end of the stats/slice records, and so on.
struct CrashEvent {
    std::uint64_t at = 0;
    CrashPoint point = CrashPoint::kBetweenEpochs;
    std::uint64_t arg = 0;

    friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// Spec for FaultPlan::chaos — how much havoc a random plan wreaks.
struct ChaosSpec {
    std::size_t shards = 8;           ///< shard-index range for worker faults
    std::uint64_t batches = 64;       ///< batch-index range for worker faults
    std::uint32_t stalls = 1;         ///< parked workers
    std::uint32_t delays = 2;         ///< delayed batches
    std::uint32_t max_delay_us = 200; ///< per-delay sleep bound
};

class FaultPlan {
  public:
    FaultPlan() = default;

    // -- builders (chainable) --------------------------------------------

    FaultPlan& stall_worker(std::uint32_t shard, std::uint64_t at_batch) {
        worker_.push_back({FaultKind::kWorkerStall, at_batch, shard, 0, 0});
        return *this;
    }
    FaultPlan& delay_batch(std::uint32_t shard, std::uint64_t at_batch,
                           std::uint32_t micros) {
        worker_.push_back(
            {FaultKind::kBatchDelay, at_batch, shard, 0, micros});
        return *this;
    }
    FaultPlan& corrupt_meta(std::uint64_t unit, std::uint64_t at_op,
                            std::uint64_t xor_mask) {
        push_op({FaultKind::kCorruptMeta, at_op, 0, unit, xor_mask});
        return *this;
    }
    FaultPlan& corrupt_key(std::uint64_t unit, std::uint64_t at_op,
                           std::uint64_t xor_mask) {
        push_op({FaultKind::kCorruptKey, at_op, 0, unit, xor_mask});
        return *this;
    }
    FaultPlan& corrupt_op(std::uint64_t at_op, std::uint64_t xor_mask) {
        push_op({FaultKind::kCorruptOp, at_op, 0, 0, xor_mask});
        return *this;
    }
    /// First read of chunk `at_chunk` comes back short (half the requested
    /// bytes): the reader must finish the chunk with a follow-up read, as a
    /// real kernel short read requires.
    FaultPlan& short_read(std::uint64_t at_chunk) {
        io_.push_back({IoFaultKind::kShortRead, at_chunk, 0});
        return *this;
    }
    /// Chunk `at_chunk`'s read is interrupted `retries` times before the
    /// data arrives (the EINTR retry loop's prey).
    FaultPlan& eintr_read(std::uint64_t at_chunk, std::uint64_t retries) {
        io_.push_back({IoFaultKind::kEintrRead, at_chunk, retries});
        return *this;
    }
    /// Reader sleeps `micros` before chunk `at_chunk` — starves the consumer
    /// so its stall accounting and bounded-queue behavior are exercised.
    FaultPlan& slow_reader(std::uint64_t at_chunk, std::uint64_t micros) {
        io_.push_back({IoFaultKind::kSlowReader, at_chunk, micros});
        return *this;
    }
    /// Crash at install ordinal `at_install` (0-based, cumulative across
    /// recovery attempts); for the torn variants, `section` picks the byte
    /// boundary the write is cut at.
    FaultPlan& crash(std::uint64_t at_install, CrashPoint point,
                     std::uint64_t section = 0) {
        crashes_.push_back({at_install, point, section});
        return *this;
    }

    /// Seed-deterministic random plan of worker stalls and batch delays (the
    /// chaos smoke's input; two calls with the same seed and spec produce
    /// identical plans).
    [[nodiscard]] static FaultPlan chaos(std::uint64_t seed,
                                         const ChaosSpec& spec) {
        rng::Xoshiro256 rng(seed);
        FaultPlan p;
        const auto pick = [&rng](std::uint64_t bound) {
            return bound ? rng.next() % bound : 0;
        };
        for (std::uint32_t i = 0; i < spec.stalls; ++i) {
            p.stall_worker(static_cast<std::uint32_t>(pick(spec.shards)),
                           pick(spec.batches));
        }
        for (std::uint32_t i = 0; i < spec.delays; ++i) {
            p.delay_batch(static_cast<std::uint32_t>(pick(spec.shards)),
                          pick(spec.batches),
                          1u + static_cast<std::uint32_t>(
                                   pick(spec.max_delay_us)));
        }
        return p;
    }

    // -- queries (hook-side) ---------------------------------------------

    /// True once shard's worker should park: a stall event with
    /// at <= next-batch-index exists for it.
    [[nodiscard]] bool worker_parks(std::size_t shard,
                                    std::uint64_t next_batch) const noexcept {
        for (const auto& e : worker_) {
            if (e.kind == FaultKind::kWorkerStall && e.shard == shard &&
                next_batch >= e.at) {
                return true;
            }
        }
        return false;
    }

    /// Total injected sleep before this shard applies batch `batch`.
    [[nodiscard]] std::uint32_t batch_delay_us(
        std::size_t shard, std::uint64_t batch) const noexcept {
        std::uint32_t us = 0;
        for (const auto& e : worker_) {
            if (e.kind == FaultKind::kBatchDelay && e.shard == shard &&
                e.at == batch) {
                us += static_cast<std::uint32_t>(e.arg);
            }
        }
        return us;
    }

    /// Data-fault events, sorted by op index (stable for equal indices).
    [[nodiscard]] const std::vector<FaultEvent>& op_events() const noexcept {
        return ops_;
    }
    [[nodiscard]] const std::vector<FaultEvent>& worker_events()
        const noexcept {
        return worker_;
    }
    [[nodiscard]] const std::vector<CrashEvent>& crash_events()
        const noexcept {
        return crashes_;
    }
    /// The crash scheduled at install ordinal `ordinal`, or nullptr.  When
    /// several events share an ordinal the first one wins (a plan normally
    /// schedules at most one crash per ordinal — each crash kills the run).
    [[nodiscard]] const CrashEvent* crash_at(
        std::uint64_t ordinal) const noexcept {
        for (const auto& c : crashes_) {
            if (c.at == ordinal) return &c;
        }
        return nullptr;
    }
    [[nodiscard]] const std::vector<IoFaultEvent>& io_events()
        const noexcept {
        return io_;
    }
    /// True when chunk `chunk`'s first read should come back short.
    [[nodiscard]] bool io_short_read(std::uint64_t chunk) const noexcept {
        for (const auto& e : io_) {
            if (e.kind == IoFaultKind::kShortRead && e.at == chunk) {
                return true;
            }
        }
        return false;
    }
    /// Injected EINTR interruptions before chunk `chunk`'s read succeeds.
    [[nodiscard]] std::uint64_t io_eintr_retries(
        std::uint64_t chunk) const noexcept {
        std::uint64_t n = 0;
        for (const auto& e : io_) {
            if (e.kind == IoFaultKind::kEintrRead && e.at == chunk) {
                n += e.arg;
            }
        }
        return n;
    }
    /// Injected reader sleep (microseconds) before chunk `chunk`.
    [[nodiscard]] std::uint64_t io_slow_us(std::uint64_t chunk) const noexcept {
        std::uint64_t us = 0;
        for (const auto& e : io_) {
            if (e.kind == IoFaultKind::kSlowReader && e.at == chunk) {
                us += e.arg;
            }
        }
        return us;
    }
    [[nodiscard]] bool empty() const noexcept {
        return worker_.empty() && ops_.empty() && crashes_.empty() &&
               io_.empty();
    }

  private:
    void push_op(FaultEvent e) {
        // Keep ops_ sorted by `at` so hooks can binary-search; stable insert
        // preserves the relative order of same-index events.
        const auto it = std::upper_bound(
            ops_.begin(), ops_.end(), e.at,
            [](std::uint64_t at, const FaultEvent& x) { return at < x.at; });
        ops_.insert(it, e);
    }

    std::vector<FaultEvent> worker_;
    std::vector<FaultEvent> ops_;  ///< sorted by .at
    std::vector<CrashEvent> crashes_;
    std::vector<IoFaultEvent> io_;
};

/// The disabled hook set: an empty type whose queries are constexpr no-ops.
/// replay guards every hook call with `if constexpr (Faults::kEnabled)`, so
/// instantiations with NoFaults (the default) compile to the exact
/// pre-robustness hot path — zero size, zero branches, zero calls.
struct NoFaults {
    static constexpr bool kEnabled = false;

    static constexpr bool worker_parks(std::size_t, std::uint64_t) noexcept {
        return false;
    }
    static constexpr std::uint32_t batch_delay_us(std::size_t,
                                                  std::uint64_t) noexcept {
        return 0;
    }
    template <typename Key>
    static constexpr void mutate_key(std::uint64_t, Key&) noexcept {}
    template <typename Storage>
    static constexpr void corrupt_storage(std::uint64_t, Storage&) noexcept {}
};
static_assert(std::is_empty_v<NoFaults>);

/// Adapts a FaultPlan to the replay hook vocabulary.  The plan outlives the
/// replay call (held by pointer); queries are pure reads, safe to share
/// across worker threads.
class InjectedFaults {
  public:
    static constexpr bool kEnabled = true;

    explicit InjectedFaults(const FaultPlan& plan) : plan_(&plan) {}

    [[nodiscard]] bool worker_parks(std::size_t shard,
                                    std::uint64_t next_batch) const noexcept {
        return plan_->worker_parks(shard, next_batch);
    }
    [[nodiscard]] std::uint32_t batch_delay_us(
        std::size_t shard, std::uint64_t batch) const noexcept {
        return plan_->batch_delay_us(shard, batch);
    }

    /// Apply kCorruptOp events scheduled at `op`: XOR the mask into the key's
    /// leading bytes (a trace record whose key field rotted on disk).
    template <typename Key>
        requires std::is_trivially_copyable_v<Key>
    void mutate_key(std::uint64_t op, Key& k) const {
        for_events_at(op, [&](const FaultEvent& e) {
            if (e.kind != FaultKind::kCorruptOp) return;
            // Edit a byte copy of the key: Key is trivially copyable but
            // need not be trivial, so it is not a memcpy destination.
            auto raw = std::bit_cast<std::array<unsigned char, sizeof(Key)>>(k);
            std::uint64_t bits = 0;
            const std::size_t n = std::min(sizeof(Key), sizeof(bits));
            std::memcpy(&bits, raw.data(), n);
            bits ^= e.arg;
            std::memcpy(raw.data(), &bits, n);
            k = std::bit_cast<Key>(raw);
        });
    }

    /// Apply kCorruptMeta/kCorruptKey events scheduled at `op` to a storage
    /// that exposes the corruption hooks (the SoA slab); silently skipped for
    /// storages without them (AoS unit objects have no raw planes to flip).
    template <typename Storage>
    void corrupt_storage(std::uint64_t op, Storage& storage) const {
        for_events_at(op, [&](const FaultEvent& e) {
            const std::size_t unit = e.unit % storage.unit_count();
            if (e.kind == FaultKind::kCorruptMeta) {
                if constexpr (requires { storage.corrupt_meta_at(unit, 0u); }) {
                    storage.corrupt_meta_at(unit,
                                            static_cast<unsigned>(e.arg));
                }
            } else if (e.kind == FaultKind::kCorruptKey) {
                if constexpr (requires {
                                  storage.corrupt_key_at(unit, std::size_t{0},
                                                         std::uint8_t{0});
                              }) {
                    storage.corrupt_key_at(
                        unit, static_cast<std::size_t>(e.arg >> 8),
                        static_cast<std::uint8_t>(e.arg & 0xFF));
                }
            }
        });
    }

  private:
    template <typename Fn>
    void for_events_at(std::uint64_t op, Fn&& fn) const {
        const auto& evs = plan_->op_events();
        auto it = std::lower_bound(
            evs.begin(), evs.end(), op,
            [](const FaultEvent& x, std::uint64_t at) { return x.at < at; });
        for (; it != evs.end() && it->at == op; ++it) fn(*it);
    }

    const FaultPlan* plan_;
};

/// Deterministic flaky dependency: request `seq` fails its first
/// `fails_per_incident` attempts whenever splitmix64(seed ^ seq) lands on
/// the failure period.  period == 0 disables all failures.
class FlakyService {
  public:
    FlakyService(std::uint64_t seed, std::uint32_t period,
                 std::uint32_t fails_per_incident)
        : seed_(seed), period_(period), fails_(fails_per_incident) {}

    [[nodiscard]] bool fails(std::uint64_t seq,
                             std::uint32_t attempt) const noexcept {
        if (period_ == 0 || fails_ == 0) return false;
        if (rng::SplitMix64(seed_ ^ seq).next() % period_ != 0) return false;
        return attempt < fails_;
    }

    /// True when `seq` is an incident (its first attempt would fail).
    [[nodiscard]] bool is_incident(std::uint64_t seq) const noexcept {
        return fails(seq, 0);
    }

  private:
    std::uint64_t seed_;
    std::uint32_t period_;
    std::uint32_t fails_;
};

}  // namespace p4lru::fault
