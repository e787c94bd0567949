// Micro-benchmarks (google-benchmark): per-operation cost of every layer —
// the behavioural P4LRU unit, the arithmetic-encoded units, the full
// pipeline-model program (orders of magnitude slower: it interprets each
// stage, which is the point — it is a checker, not a fast path), the policy
// implementations, and the sketches.
//
// Trace-replay throughput, end to end, is measured by perfbench, not here.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/common/hash.hpp"
#include "p4lru/common/random.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/p4lru_encoded.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/pipeline/p4lru3_program.hpp"
#include "p4lru/sketch/countmin.hpp"
#include "p4lru/sketch/towersketch.hpp"

namespace {

using namespace p4lru;

std::vector<std::uint32_t> keys(std::size_t n, std::uint32_t universe) {
    rng::Xoshiro256 rng(42);
    std::vector<std::uint32_t> out(n);
    for (auto& k : out) {
        k = static_cast<std::uint32_t>(rng.between(1, universe));
    }
    return out;
}

void BM_P4lru3Behavioural(benchmark::State& state) {
    core::P4lru<std::uint32_t, std::uint32_t, 3> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru3Behavioural);

void BM_P4lru3Encoded(benchmark::State& state) {
    core::P4lru3Encoded<std::uint32_t, std::uint32_t> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru3Encoded);

void BM_P4lru2Encoded(benchmark::State& state) {
    core::P4lru2Encoded<std::uint32_t, std::uint32_t> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru2Encoded);

// Default storage (the SoA slab for behavioural units).
void BM_ParallelArrayUpdate(benchmark::State& state) {
    core::ParallelCache<core::P4lru<std::uint32_t, std::uint32_t, 3>,
                        std::uint32_t, std::uint32_t>
        array(static_cast<std::size_t>(state.range(0)), 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_ParallelArrayUpdate)->Arg(1 << 10)->Arg(1 << 16);

// Same array pinned to the AoS reference layout — the head-to-head for the
// layout split.
void BM_ParallelArrayUpdateAos(benchmark::State& state) {
    core::AosParallelCache<core::P4lru<std::uint32_t, std::uint32_t, 3>,
                           std::uint32_t, std::uint32_t>
        array(static_cast<std::size_t>(state.range(0)), 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_ParallelArrayUpdateAos)->Arg(1 << 10)->Arg(1 << 16);

void BM_PipelineProgramUpdate(benchmark::State& state) {
    pipeline::P4lru3PipelineCache cache(1u << 10, 7,
                                        pipeline::ValueMode::kReadCache);
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_PipelineProgramUpdate);

void BM_IdealLruAccess(benchmark::State& state) {
    cache::IdealLruPolicy<std::uint32_t, std::uint32_t> lru(
        static_cast<std::size_t>(state.range(0)));
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lru.access(ks[i++ & 4095], 1, 0));
    }
}
BENCHMARK(BM_IdealLruAccess)->Arg(1 << 10)->Arg(1 << 16);

void BM_TimeoutPolicyAccess(benchmark::State& state) {
    cache::TimeoutPolicy<std::uint32_t, std::uint32_t> p(1 << 14, 7,
                                                         kMillisecond);
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    TimeNs now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(p.access(ks[i++ & 4095], 1, now));
        now += 100;
    }
}
BENCHMARK(BM_TimeoutPolicyAccess);

void BM_TowerSketchAdd(benchmark::State& state) {
    sketch::TowerSketch<std::uint32_t> tower(
        {{1u << 16, 8}, {1u << 15, 16}}, 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tower.add_and_estimate(ks[i++ & 4095], 64));
    }
}
BENCHMARK(BM_TowerSketchAdd);

void BM_CountMinAdd(benchmark::State& state) {
    sketch::CountMin<std::uint32_t> cm(1u << 16, 2, 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cm.add_and_estimate(ks[i++ & 4095], 64));
    }
}
BENCHMARK(BM_CountMinAdd);

void BM_Crc32FlowKey(benchmark::State& state) {
    FlowKey f;
    f.src_ip = 0x0A000001;
    f.dst_ip = 0xC0A80001;
    f.src_port = 1234;
    f.dst_port = 443;
    f.proto = 6;
    const hash::FlowHasher h(7, 1u << 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.slot(f));
        f.src_port++;
    }
}
BENCHMARK(BM_Crc32FlowKey);

}  // namespace

BENCHMARK_MAIN();
