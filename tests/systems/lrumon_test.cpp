// LruMon's paper properties, checked on the shipped system: a one-partition
// LruMonTarget, fed one packet at a time or through the sequential replay.
#include "p4lru/systems/lrumon/lrumon_target.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../test_util.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru::systems::lrumon {
namespace {

using testutil::make_flow;
using MonPolicy = cache::ReplacementPolicy<std::uint32_t, FlowLen>;

std::unique_ptr<MonPolicy> p4lru3(std::size_t entries) {
    return std::make_unique<cache::P4lruArrayPolicy<std::uint32_t, FlowLen, 3,
                                                    core::AddMerge>>(entries,
                                                                     0xB);
}

std::unique_ptr<FlowFilter> tower(TimeNs reset = 10 * kMillisecond) {
    FilterConfig cfg;
    cfg.reset_period = reset;
    cfg.tower_width1 = 1u << 14;
    cfg.tower_width2 = 1u << 13;
    return std::make_unique<TowerFilter>(cfg);
}

PacketRecord packet(std::uint32_t flow_id, TimeNs ts, std::uint32_t len) {
    PacketRecord p;
    p.flow = make_flow(flow_id);
    p.ts = ts;
    p.len = len;
    return p;
}

/// The monolithic monitor: one partition owning `filter` and `policy`.
struct Monitor {
    Monitor(std::unique_ptr<FlowFilter> filter,
            std::unique_ptr<MonPolicy> policy, LruMonConfig cfg)
        : target(
              1, [&filter](std::size_t) { return std::move(filter); },
              [&policy](std::size_t) { return std::move(policy); }, cfg) {}

    void process(const PacketRecord& p) {
        testutil::apply_op(target, p, stats);
    }
    void replay(const std::vector<PacketRecord>& trace) {
        stats = testutil::sequential_replay(
            target, std::span<const PacketRecord>(trace));
    }
    [[nodiscard]] LruMonReport report() const { return target.report(stats); }

    LruMonTarget target;
    LruMonStats stats{};
};

TEST(LruMon, RejectsNullComponents) {
    LruMonConfig cfg;
    EXPECT_THROW(Monitor(nullptr, p4lru3(30), cfg), std::invalid_argument);
    EXPECT_THROW(Monitor(tower(), nullptr, cfg), std::invalid_argument);
}

TEST(LruMon, MousePacketsAreFiltered) {
    LruMonConfig cfg;
    cfg.threshold = 1'000'000;  // nothing passes
    Monitor sys(tower(), p4lru3(300), cfg);
    for (int i = 0; i < 100; ++i) {
        sys.process(packet(i, static_cast<TimeNs>(i), 100));
    }
    const auto r = sys.report();
    EXPECT_EQ(r.filtered_packets, 100u);
    EXPECT_EQ(r.elephant_packets, 0u);
    EXPECT_EQ(r.uploads, 0u);
    // All bytes are unmeasured: total error = 1.
    EXPECT_DOUBLE_EQ(r.total_error_rate, 1.0);
}

TEST(LruMon, ElephantIsMeasuredExactly) {
    LruMonConfig cfg;
    cfg.threshold = 1500;
    Monitor sys(tower(kSecond), p4lru3(300), cfg);
    // One flow, 100 packets x 1000B: crosses the threshold at packet 2.
    for (int i = 0; i < 100; ++i) {
        sys.process(packet(1, static_cast<TimeNs>(i * 1000), 1000));
    }
    const auto r = sys.report();
    EXPECT_EQ(r.total_bytes, 100'000u);
    // Only the first packet (filter estimate 1000 < 1500) escapes.
    EXPECT_EQ(r.max_flow_error, 1000u);
    EXPECT_EQ(r.measured_bytes, 99'000u);
    EXPECT_EQ(r.overestimated_flows, 0u);
}

TEST(LruMon, NeverOverestimatesAnyFlow) {
    trace::TraceConfig tc;
    tc.total_packets = 80'000;
    tc.segments = 4;
    const auto tr = trace::generate_trace(tc);
    LruMonConfig cfg;
    cfg.threshold = 1500;
    Monitor sys(tower(), p4lru3(3'000), cfg);
    sys.replay(tr);
    const auto r = sys.report();
    EXPECT_EQ(r.overestimated_flows, 0u);
    EXPECT_GT(r.measured_bytes, 0u);
    EXPECT_LE(r.measured_bytes, r.total_bytes);
}

TEST(LruMon, MaxFlowErrorBoundedByThresholdPerWindow) {
    trace::TraceConfig tc;
    tc.total_packets = 60'000;
    const auto tr = trace::generate_trace(tc);  // 1 second
    LruMonConfig cfg;
    cfg.threshold = 2'000;
    const TimeNs reset = 100 * kMillisecond;  // 10 windows
    Monitor sys(tower(reset), p4lru3(3'000), cfg);
    sys.replay(tr);
    const auto r = sys.report();
    // Per window a flow can lose at most threshold + one MTU; across the
    // whole trace that is bounded by windows * (threshold + MTU).
    EXPECT_LE(r.max_flow_error, 11u * (cfg.threshold + 1500));
}

TEST(LruMon, UploadsOnlyOnCacheMisses) {
    LruMonConfig cfg;
    cfg.threshold = 100;  // everything is an elephant
    Monitor sys(tower(kSecond), p4lru3(3), cfg);  // one cache unit
    sys.process(packet(1, 0, 1000));  // miss -> upload
    sys.process(packet(1, 1, 1000));  // hit
    sys.process(packet(2, 2, 1000));  // miss -> upload
    const auto r = sys.report();
    EXPECT_EQ(r.uploads, 2u);
    EXPECT_EQ(r.cache_hits, 1u);
}

TEST(LruMon, EvictedBytesAreCreditedViaAnalyzer) {
    LruMonConfig cfg;
    cfg.threshold = 100;
    Monitor sys(tower(kSecond), p4lru3(3), cfg);  // one unit, 3 entries
    // Fill the unit with flows 1..3, then insert 4: flow 1 evicted; its
    // bytes must land in the analyzer table for flow 1.
    for (std::uint32_t f = 1; f <= 3; ++f) sys.process(packet(f, f, 500));
    sys.process(packet(1, 10, 700));  // flow 1 now 1200 bytes cached
    for (std::uint32_t f = 2; f <= 3; ++f) sys.process(packet(f, f + 20, 1));
    sys.process(packet(4, 30, 999));  // evicts flow 1
    const auto r = sys.report();
    EXPECT_EQ(r.overestimated_flows, 0u);
    EXPECT_EQ(sys.target.analyzer(0).measured_bytes(make_flow(1)), 1200u);
    EXPECT_EQ(r.total_error_rate, 0.0);  // threshold 100 < every packet
}

TEST(LruMon, ReportFinalizesOnDemand) {
    LruMonConfig cfg;
    cfg.threshold = 100;
    Monitor sys(tower(kSecond), p4lru3(300), cfg);
    sys.process(packet(1, 0, 5'000));
    // The 5000 bytes are still cached in the data plane, yet report()
    // credits them immediately — there is no teardown step.
    const auto before = sys.report();
    EXPECT_EQ(before.measured_bytes, 5'000u);
    EXPECT_EQ(before.total_error_rate, 0.0);
    // Reporting does not consume the overlay: a second report agrees.
    const auto after = sys.report();
    EXPECT_EQ(after.measured_bytes, 5'000u);
    EXPECT_EQ(after.total_error_rate, 0.0);
}

TEST(LruMon, BetterCacheMeansFewerUploads) {
    trace::TraceConfig tc;
    tc.total_packets = 100'000;
    tc.segments = 8;
    const auto tr = trace::generate_trace(tc);
    const auto uploads = [&](std::unique_ptr<MonPolicy> policy) {
        LruMonConfig cfg;
        cfg.threshold = 1500;
        cfg.track_ground_truth = false;
        Monitor sys(tower(), std::move(policy), cfg);
        sys.replay(tr);
        return sys.report().uploads;
    };
    const auto u3 = uploads(p4lru3(3'000));
    const auto u1 = uploads(std::make_unique<cache::P4lruArrayPolicy<
                                std::uint32_t, FlowLen, 1, core::AddMerge>>(
        3'000, 0xB));
    EXPECT_LT(u3, u1);
}

TEST(LruMon, HigherThresholdFewerUploads) {
    trace::TraceConfig tc;
    tc.total_packets = 80'000;
    const auto tr = trace::generate_trace(tc);
    const auto uploads = [&](std::uint32_t threshold) {
        LruMonConfig cfg;
        cfg.threshold = threshold;
        cfg.track_ground_truth = false;
        Monitor sys(tower(), p4lru3(3'000), cfg);
        sys.replay(tr);
        return sys.report().uploads;
    };
    EXPECT_GT(uploads(500), uploads(4'000));
}

TEST(LruMon, WindowResetForgetsOldTraffic) {
    LruMonConfig cfg;
    cfg.threshold = 1500;
    Monitor sys(tower(10 * kMillisecond), p4lru3(300), cfg);
    // 1000B in window 0: below threshold, filtered.
    sys.process(packet(1, 0, 1000));
    // 1000B in window 5: the counter was reset, still below threshold.
    sys.process(packet(1, 50 * kMillisecond, 1000));
    EXPECT_EQ(sys.report().elephant_packets, 0u);
}

TEST(LruMon, ReportIsIdempotentAcrossFinishAndMoreTraffic) {
    LruMonConfig cfg;
    cfg.threshold = 100;
    Monitor sys(tower(kSecond), p4lru3(300), cfg);
    sys.process(packet(1, 0, 5'000));
    // A mid-trace report finalizes nothing: processing continues and the
    // next report() stays exact.
    EXPECT_EQ(sys.report().measured_bytes, 5'000u);
    sys.process(packet(2, 1, 7'000));
    const auto r1 = sys.report();
    const auto r2 = sys.report();
    EXPECT_EQ(r1.measured_bytes, 12'000u);
    EXPECT_EQ(r1.measured_bytes, r2.measured_bytes);
    EXPECT_EQ(r1.uploads, r2.uploads);
    EXPECT_EQ(r1.total_error_rate, 0.0);
}

}  // namespace
}  // namespace p4lru::systems::lrumon
