// Checkpoint/resume for any ReplayTarget (DESIGN.md §11, §12).
//
// The consistent-cut protocol lives in the engine: the dispatcher quiesces
// the workers at a dispatch boundary (replay.hpp, ShardCtl::snap_*), and
// this layer materializes the cut through the target's snapshot plane —
// `save_state` for the full mutable state, `state_id`/`state_fingerprint`
// as the shape guards that stop a checkpoint from being restored into a
// differently-configured target.  A bare cache is just the target whose
// state image is its storage planes (CacheReplayTarget).  Resuming is
// "load state, replay the suffix": the suffix may use any shard geometry,
// because a cut is a clean op prefix and per-bucket arrival order is all
// that bit-exactness needs.
//
// On disk a checkpoint is one sealed P4LRUTGC image (format table and
// reader hardening in serialized_image.hpp); Stats records are raw memory
// images, so the Stats type must be trivially copyable, and the record
// size field plus the state id/fingerprint reject a file written by a
// different Stats layout or target configuration.
//
// write_target_checkpoint replaces one file (temp + rename, no fsync); for
// crash-safe generational installs go through durable_store.hpp, and for
// automatic restart-from-newest-valid-generation use supervisor.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/replay_target.hpp"
#include "p4lru/replay/serialized_image.hpp"

namespace p4lru::replay {

/// A resumable snapshot of an in-progress target replay.  Invariants
/// (checked on resume): stats.ops == cursor, and the per-shard slices —
/// when present — sum to the totals (a checkpoint rebased across a resume
/// carries no slices, because the suffix split cannot be combined with the
/// prefix's).
template <typename Stats>
struct TargetCheckpoint : ReplayTelemetry {
    std::uint64_t cursor = 0;    ///< ops applied before the snapshot
    Stats stats{};               ///< merged statistics over ops [0, cursor)
    std::size_t unit_count = 0;  ///< shape guard for resume
    std::uint32_t state_id = 0;  ///< Target::state_id() shape guard
    std::uint64_t state_fingerprint = 0;  ///< Target::state_fingerprint()
    std::vector<Stats> shard_stats;       ///< per-shard split of stats
    std::uint64_t delivered_batches = 0;
    std::vector<std::byte> state;  ///< target.save_state() image
};

/// Materialize a quiesced dispatch cut into an owning checkpoint.  Runs on
/// the dispatcher thread while every worker is parked at its batch
/// boundary, so the state read is race-free.
template <typename Target>
[[nodiscard]] TargetCheckpoint<typename Target::Stats>
take_target_checkpoint(const Target& target,
                       const BasicCheckpointCut<typename Target::Stats>& cut) {
    TargetCheckpoint<typename Target::Stats> cp;
    cp.cursor = cut.cursor;
    cp.stats = cut.stats;
    cp.unit_count = target.unit_count();
    cp.state_id = Target::state_id();
    cp.state_fingerprint = Target::state_fingerprint();
    cp.shard_stats.assign(cut.shard_stats.begin(), cut.shard_stats.end());
    cp.delivered_batches = cut.delivered_batches;
    cp.telemetry() = cut.telemetry();
    target.save_state(cp.state);
    return cp;
}

namespace detail {

/// The enabled counterpart of detail::NoCheckpoint (replay.hpp): trips the
/// dispatch loop's trigger every `every` delivered batches and converts the
/// quiesced cut into a TargetCheckpoint for the sink.  If the
/// sink exposes `stop_requested()`, the dispatch loop polls it after every
/// emitted checkpoint and winds down cooperatively — that is how the crash
/// injector (fault::CrashPoint) and the supervisor stop a run at a cut
/// without unwinding through the worker join.
template <typename Target, typename Sink>
class TargetDispatchCheckpointer {
  public:
    static constexpr bool kEnabled = true;

    TargetDispatchCheckpointer(Target& target, std::uint64_t every,
                               Sink& sink)
        : target_(&target), every_(every), next_(every), sink_(&sink) {}

    [[nodiscard]] bool due(std::uint64_t delivered) const noexcept {
        return every_ != 0 && delivered >= next_;
    }

    void emit(const BasicCheckpointCut<typename Target::Stats>& cut) {
        // Re-arm relative to the actual cut (flushing partial batches may
        // have delivered past the nominal cadence point).
        next_ = cut.delivered_batches + every_;
        (*sink_)(take_target_checkpoint(*target_, cut));
    }

    [[nodiscard]] bool stop_requested() const {
        if constexpr (requires(const Sink& s) { s.stop_requested(); }) {
            return sink_->stop_requested();
        } else {
            return false;
        }
    }

  private:
    Target* target_;
    std::uint64_t every_;
    std::uint64_t next_;
    Sink* sink_;
};

}  // namespace detail

/// Streaming sharded target replay that emits a TargetCheckpoint into
/// `sink` every `every_batches` delivered batches (sink(TargetCheckpoint&&));
/// 0 disables emission.  Checkpoint cursors are relative to the source's
/// position at entry.  Statistics and final target state stay bit-identical
/// to replay_target_sharded_stream — the quiesce only decides *when* work
/// happens, never what — and the fault hooks compose.  A sink exposing a
/// `stop_requested()` member can end the run early at a cut boundary; the
/// returned report then covers the prefix up to the last emitted cut plus
/// any batches already in flight.
template <typename Target, typename Source, typename Sink,
          typename Faults = fault::NoFaults>
[[nodiscard]] Expected<BasicShardedReport<typename Target::Stats>>
replay_target_checkpointed_stream(Target& target, Source& source,
                                  const ShardedConfig& cfg,
                                  std::uint64_t every_batches, Sink&& sink,
                                  const Faults& faults = {}) {
    detail::TargetDispatchCheckpointer<Target, std::remove_reference_t<Sink>>
        ckpt(target, every_batches, sink);
    return detail::replay_sharded_stream_impl(target, source, cfg, faults,
                                              ckpt);
}

/// Shape/consistency validation shared by the resume entry point and the
/// supervisor's recovery scan: does `cp` describe a run of THIS target over
/// a stream of `op_count` ops?  kInvalidState on any mismatch.  The state
/// layout (id + fingerprint) is checked first — a layout mismatch makes
/// every other field meaningless.
template <typename Target>
[[nodiscard]] Status validate_target_checkpoint(
    const Target& target, std::size_t op_count,
    const TargetCheckpoint<typename Target::Stats>& cp) {
    using Stats = typename Target::Stats;
    if (cp.state_id != Target::state_id() ||
        cp.state_fingerprint != Target::state_fingerprint()) {
        return invalid_state(
            "target checkpoint state layout (id " +
            std::to_string(cp.state_id) + ", fingerprint " +
            std::to_string(cp.state_fingerprint) +
            ") does not match this target's layout (id " +
            std::to_string(Target::state_id()) + ", fingerprint " +
            std::to_string(Target::state_fingerprint()) + ")");
    }
    if (cp.unit_count != target.unit_count()) {
        return invalid_state("target checkpoint unit count " +
                             std::to_string(cp.unit_count) +
                             " != target unit count " +
                             std::to_string(target.unit_count()));
    }
    if (cp.cursor > op_count) {
        return invalid_state("target checkpoint cursor " +
                             std::to_string(cp.cursor) +
                             " beyond op stream of " +
                             std::to_string(op_count));
    }
    if (static_cast<std::uint64_t>(cp.stats.ops) != cp.cursor) {
        return invalid_state("target checkpoint stats cover " +
                             std::to_string(cp.stats.ops) +
                             " ops but cursor is " +
                             std::to_string(cp.cursor));
    }
    if (!cp.shard_stats.empty()) {
        Stats sum{};
        for (const auto& s : cp.shard_stats) sum.merge(s);
        if (!(sum == cp.stats)) {
            return invalid_state(
                "target checkpoint per-shard statistics do not sum to its "
                "totals");
        }
    }
    return Status::ok();
}

namespace detail {

/// Wraps a user sink for a *resumed* checkpointed replay: checkpoints
/// emitted during the suffix describe ops [0, k) of the suffix, so before
/// handing them on, rebase to absolute run coordinates — cursor shifted by
/// the prefix cursor, stats/telemetry merged with the prefix's.  The shard
/// slices are dropped (suffix-relative splits cannot be combined with the
/// prefix's; validate_target_checkpoint skips the slice-sum check when
/// empty), which keeps every rebased checkpoint itself resumable.
template <typename Stats, typename Sink>
class RebasedTargetSink {
  public:
    RebasedTargetSink(const TargetCheckpoint<Stats>& prefix, Sink& sink)
        : prefix_(&prefix), sink_(&sink) {}

    void operator()(TargetCheckpoint<Stats>&& cp) {
        cp.cursor += prefix_->cursor;
        cp.stats.merge(prefix_->stats);
        cp.shard_stats.clear();
        cp.delivered_batches += prefix_->delivered_batches;
        cp.telemetry().merge(prefix_->telemetry());
        (*sink_)(std::move(cp));
    }

    [[nodiscard]] bool stop_requested() const {
        if constexpr (requires(const Sink& s) { s.stop_requested(); }) {
            return sink_->stop_requested();
        } else {
            return false;
        }
    }

  private:
    const TargetCheckpoint<Stats>* prefix_;
    Sink* sink_;
};

}  // namespace detail

/// Restore `cp` into `target`, seek the source to its cursor, and stream
/// the remaining ops [cp.cursor, end) with `cfg` — the resume may use a
/// different shard count, batch size or mode than the interrupted run, and
/// re-reads no prefix byte.  Checkpoints keep flowing into `sink` every
/// `every_batches` delivered batches (0 = resume without further cuts),
/// rebased to absolute run coordinates (see RebasedTargetSink), so each one
/// is itself a valid resume point — this is what lets the supervisor chain
/// an arbitrary number of crash/recover cycles.  The returned report merges
/// the checkpoint's statistics and telemetry, so it reads as if the run had
/// never been interrupted.  A sink `stop_requested()` ends the suffix early
/// at a cut, exactly as in replay_target_checkpointed_stream.  Fails with
/// kInvalidState on any shape mismatch or when the checkpoint is internally
/// inconsistent, and with the source's own Status on a seek or mid-stream
/// failure.
template <typename Target, typename Source, typename Sink,
          typename Faults = fault::NoFaults>
[[nodiscard]] Expected<BasicShardedReport<typename Target::Stats>>
resume_target_checkpointed_stream(
    Target& target, Source& source,
    const TargetCheckpoint<typename Target::Stats>& cp,
    const ShardedConfig& cfg, std::uint64_t every_batches, Sink&& sink,
    const Faults& faults = {}) {
    using Stats = typename Target::Stats;
    if (Status st = validate_target_checkpoint(
            target, static_cast<std::size_t>(source.size()), cp);
        !st.is_ok()) {
        return st;
    }
    if (!target.load_state(cp.state)) {
        return invalid_state("target checkpoint state image of " +
                             std::to_string(cp.state.size()) +
                             " bytes does not match this target's shape");
    }
    if (Status st = source.seek(cp.cursor); !st.is_ok()) {
        return st;
    }
    detail::RebasedTargetSink<Stats, std::remove_reference_t<Sink>> rebased(
        cp, sink);
    auto streamed = replay_target_checkpointed_stream(
        target, source, cfg, every_batches, rebased, faults);
    if (!streamed.is_ok()) return streamed.status();
    BasicShardedReport<Stats> rep = std::move(streamed).value();
    rep.stats.merge(cp.stats);
    rep.telemetry().merge(cp.telemetry());
    return rep;
}

// ---------------------------------------------------------------------------
// Disk persistence (format in serialized_image.hpp).

/// Render `cp` to its sealed v2 on-disk image in memory.  `Stats` must be
/// trivially copyable — its records are stored as raw memory images guarded
/// by the record-size header field and the stats-section CRC.
template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] SerializedCheckpoint serialize_target_checkpoint(
    const TargetCheckpoint<Stats>& cp) {
    CheckpointHeader h;
    h.state_id = cp.state_id;
    h.state_fingerprint = cp.state_fingerprint;
    h.unit_count = cp.unit_count;
    h.cursor = cp.cursor;
    h.delivered_batches = cp.delivered_batches;
    h.telemetry() = cp.telemetry();
    h.record_bytes = static_cast<std::uint32_t>(sizeof(Stats));
    h.shard_count = static_cast<std::uint32_t>(cp.shard_stats.size());
    std::vector<std::byte> records;
    records.reserve(h.records_bytes());
    io::ByteWriter w(records);
    w.pod(cp.stats);
    for (const auto& s : cp.shard_stats) w.pod(s);
    return seal_checkpoint_image(h, records, cp.state);
}

/// Serialize `cp` to `path` (overwriting, sealed v2 format) through
/// atomic_write_file without fsync.  Returns kIoError (with path + errno
/// detail) on any write failure.
template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] Status write_target_checkpoint(
    const std::string& path, const TargetCheckpoint<Stats>& cp) {
    return atomic_write_file(path, serialize_target_checkpoint(cp).bytes,
                             /*sync=*/false);
}

/// Parse a target checkpoint from an in-memory image; the reader behind
/// read_target_checkpoint_checked (the supervisor's recovery scan shares
/// it).  Accepts sealed v2 images only, CRC-verified per section; `origin`
/// names the image in errors.
template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] Expected<TargetCheckpoint<Stats>> parse_target_checkpoint(
    std::span<const std::byte> image, const std::string& origin) {
    Expected<CheckpointView> parsed = parse_checkpoint_image(image, origin);
    if (!parsed.is_ok()) return parsed.status();
    const CheckpointView& v = parsed.value();
    const CheckpointHeader& h = v.header;
    if (h.record_bytes != sizeof(Stats)) {
        return corrupt("read_target_checkpoint: stats record size " +
                           std::to_string(h.record_bytes) + " != expected " +
                           std::to_string(sizeof(Stats)) + " in " + origin,
                       104);  // the record size field
    }
    TargetCheckpoint<Stats> cp;
    cp.cursor = h.cursor;
    cp.unit_count = static_cast<std::size_t>(h.unit_count);
    cp.state_id = h.state_id;
    cp.state_fingerprint = h.state_fingerprint;
    cp.delivered_batches = h.delivered_batches;
    cp.telemetry() = h.telemetry();
    io::ByteReader r(v.records);  // sized by the framing: reads succeed
    cp.shard_stats.resize(h.shard_count);
    (void)r.pod(cp.stats);
    for (auto& s : cp.shard_stats) (void)r.pod(s);
    cp.state.assign(v.state.begin(), v.state.end());
    return cp;
}

/// Parse a target checkpoint from `path`; the typed-error path.  On failure
/// the Status names the cause, the offending path, and the byte offset at
/// which the file stopped making sense.  Structural validation only —
/// whether the checkpoint fits a particular target (state id, fingerprint,
/// unit count) is decided by validate_target_checkpoint / the resume entry
/// point.
template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] Expected<TargetCheckpoint<Stats>>
read_target_checkpoint_checked(const std::string& path) {
    Expected<std::vector<std::byte>> bytes = read_file_bytes(path);
    if (!bytes.is_ok()) return bytes.status();
    return parse_target_checkpoint<Stats>(bytes.value(), path);
}

}  // namespace p4lru::replay
