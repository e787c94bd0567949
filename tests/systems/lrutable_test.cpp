// LruTable's paper properties, checked on the shipped system: a
// one-partition LruTableTarget, fed one packet at a time or through the
// sequential replay.
#include "p4lru/systems/lrutable/lrutable_target.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../test_util.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru::systems::lrutable {
namespace {

using testutil::make_flow;
using Policy = LruTableTarget::Policy;

std::unique_ptr<Policy> p4lru3(std::size_t entries) {
    return std::make_unique<
        cache::P4lruArrayPolicy<VirtualAddress, std::uint32_t, 3>>(entries,
                                                                   0xA);
}

LruTableConfig quick_config() {
    LruTableConfig cfg;
    cfg.slow_path_delay = 10 * kMicrosecond;
    return cfg;
}

PacketRecord packet(std::uint32_t flow_id, TimeNs ts) {
    PacketRecord p;
    p.flow = make_flow(flow_id);
    p.ts = ts;
    p.len = 100;
    return p;
}

/// The monolithic gateway: one partition owning `policy`.
struct Gateway {
    Gateway(std::unique_ptr<Policy> policy, LruTableConfig cfg)
        : target(
              1, [&policy](std::size_t) { return std::move(policy); }, cfg) {
    }

    void process(const PacketRecord& p) {
        testutil::apply_op(target, p, stats);
    }
    void replay(const std::vector<PacketRecord>& trace) {
        stats = testutil::sequential_replay(
            target, std::span<const PacketRecord>(trace));
    }
    [[nodiscard]] LruTableReport report() const {
        return target.report(stats);
    }

    LruTableTarget target;
    LruTableStats stats{};
};

TEST(NatTable, LookupIsDeterministicAndNeverPlaceholder) {
    NatTable nat;
    for (std::uint32_t va = 1; va < 1000; ++va) {
        const auto ra = nat.lookup(va);
        EXPECT_EQ(ra, nat.lookup(va));
        EXPECT_NE(ra, kPlaceholder);
        EXPECT_NE(ra, 0u);
    }
}

TEST(LruTable, RejectsNullPolicy) {
    EXPECT_THROW(Gateway(nullptr, quick_config()), std::invalid_argument);
}

TEST(LruTable, FirstPacketMissesThenHitsAfterFill) {
    Gateway sys(p4lru3(300), quick_config());
    sys.process(packet(1, 0));  // miss, fill scheduled at t = 10us
    // Second packet before the fill lands: placeholder hit, still slow.
    sys.process(packet(1, 5 * kMicrosecond));
    // Third packet after the fill: fast path, no added latency.
    const LruTableStats before = sys.stats;
    sys.process(packet(1, 20 * kMicrosecond));
    EXPECT_EQ(sys.stats.fast_path, before.fast_path + 1);
    EXPECT_EQ(sys.stats.added_latency_ns, before.added_latency_ns);

    const auto r = sys.report();
    EXPECT_EQ(r.packets, 3u);
    EXPECT_EQ(r.misses, 1u);
    EXPECT_EQ(r.placeholder_hits, 1u);
    EXPECT_EQ(r.fast_path, 1u);
    EXPECT_NEAR(r.miss_rate, 2.0 / 3.0, 1e-9);
}

TEST(LruTable, PlaceholderHitDoesNotScheduleSecondFill) {
    Gateway sys(p4lru3(300), quick_config());
    sys.process(packet(1, 0));
    for (int i = 1; i <= 5; ++i) {
        sys.process(packet(1, static_cast<TimeNs>(i)));  // all placeholders
    }
    const auto r = sys.report();
    EXPECT_EQ(r.misses, 1u);
    EXPECT_EQ(r.placeholder_hits, 5u);
}

TEST(LruTable, SlowPathLatencyIsAccounted) {
    LruTableConfig cfg = quick_config();
    cfg.slow_path_delay = 100 * kMicrosecond;
    Gateway sys(p4lru3(300), cfg);
    sys.process(packet(1, 0));
    EXPECT_EQ(sys.stats.misses, 1u);
    EXPECT_EQ(sys.stats.fast_path, 0u);
    EXPECT_EQ(sys.stats.added_latency_ns, cfg.slow_path_delay);
    const auto r = sys.report();
    EXPECT_NEAR(r.avg_added_latency_us, 100.0, 1e-6);
}

TEST(LruTable, TranslationIsCorrectAfterFill) {
    auto policy = p4lru3(300);
    auto* raw = policy.get();
    NatTable nat;
    Gateway sys(std::move(policy), quick_config());
    sys.process(packet(7, 0));
    // Any later packet past dT lands the pending fill first.
    sys.process(packet(8, 2 * quick_config().slow_path_delay));
    const VirtualAddress va = make_flow(7).dst_ip;
    EXPECT_EQ(raw->peek(va), std::optional<std::uint32_t>(nat.lookup(va)));
}

TEST(LruTable, EvictedFlowMissesAgain) {
    // One P4LRU3 unit (3 entries): the fourth distinct flow evicts the
    // least recent; re-touching the evicted flow is a miss again.
    Gateway sys(p4lru3(3), quick_config());
    TimeNs t = 0;
    for (std::uint32_t f = 1; f <= 4; ++f) {
        sys.process(packet(f, t));
        t += 20 * kMicrosecond;  // each fill lands before the next packet
    }
    const auto before = sys.report().misses;
    sys.process(packet(1, t));  // flow 1 was evicted by flow 4
    EXPECT_EQ(sys.report().misses, before + 1);
}

TEST(LruTable, MissRateDropsWithMoreMemory) {
    trace::TraceConfig tc;
    tc.total_packets = 100'000;
    tc.segments = 16;
    const auto trace = trace::generate_trace(tc);
    const auto run = [&](std::size_t entries) {
        Gateway sys(p4lru3(entries), quick_config());
        sys.replay(trace);
        return sys.report().miss_rate;
    };
    // The sweep must straddle the working set (peak concurrency is a few
    // hundred flows at this scale) for memory to matter.
    const double small = run(30);
    const double medium = run(100);
    const double large = run(1'000);
    EXPECT_GT(small, medium);
    EXPECT_GT(medium, large);
    EXPECT_LT(large, 0.5);
}

TEST(LruTable, LongerSlowPathRaisesMissRate) {
    trace::TraceConfig tc;
    tc.total_packets = 60'000;
    tc.segments = 8;
    const auto trace = trace::generate_trace(tc);
    const auto run = [&](TimeNs delay) {
        LruTableConfig cfg = quick_config();
        cfg.slow_path_delay = delay;
        Gateway sys(p4lru3(5'000), cfg);
        sys.replay(trace);
        return sys.report().miss_rate;
    };
    // Longer control-plane latency = more placeholder hits = higher miss
    // rate (each miss blocks its flow for longer).
    EXPECT_LT(run(10 * kMicrosecond), run(10 * kMillisecond));
}

TEST(LruTable, P4lru3BeatsP4lru1OnMissRate) {
    trace::TraceConfig tc;
    tc.total_packets = 100'000;
    tc.segments = 8;
    const auto trace = trace::generate_trace(tc);
    const auto run = [&](std::unique_ptr<Policy> policy) {
        Gateway sys(std::move(policy), quick_config());
        sys.replay(trace);
        return sys.report().miss_rate;
    };
    const double p3 = run(p4lru3(600));
    const double p1 =
        run(std::make_unique<cache::P4lruArrayPolicy<VirtualAddress,
                                                     std::uint32_t, 1>>(
            600, 0xA));
    EXPECT_LT(p3, p1);
}

}  // namespace
}  // namespace p4lru::systems::lrutable
