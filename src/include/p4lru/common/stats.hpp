// Small statistics utilities used by the simulators and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace p4lru::stats {

/// Streaming mean / variance / extrema (Welford's algorithm).
class Running {
  public:
    void add(double x) noexcept {
        ++n_;
        const double d = x - mean_;
        mean_ += d / static_cast<double>(n_);
        m2_ += d * (x - mean_);
        min_ = n_ == 1 ? x : std::min(min_, x);
        max_ = n_ == 1 ? x : std::max(max_, x);
        sum_ += x;
    }

    /// Fold another accumulator in (Chan et al. parallel Welford merge).
    /// Lets per-shard accumulators combine into the sequential answer.
    void merge(const Running& o) noexcept {
        if (o.n_ == 0) return;
        if (n_ == 0) {
            *this = o;
            return;
        }
        const auto n = static_cast<double>(n_);
        const auto m = static_cast<double>(o.n_);
        const double delta = o.mean_ - mean_;
        mean_ += delta * m / (n + m);
        m2_ += o.m2_ + delta * delta * n * m / (n + m);
        n_ += o.n_;
        sum_ += o.sum_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
    [[nodiscard]] double variance() const noexcept {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }
    [[nodiscard]] double stddev() const noexcept {
        return std::sqrt(variance());
    }
    [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/// Exact percentile over a retained sample vector. Fine for bench-sized data.
class Percentiles {
  public:
    void add(double x) { xs_.push_back(x); }

    /// q in [0, 1]; nearest-rank.
    [[nodiscard]] double quantile(double q) const {
        if (xs_.empty()) throw std::logic_error("Percentiles: empty");
        std::vector<double> sorted = xs_;
        std::sort(sorted.begin(), sorted.end());
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(sorted.size() - 1) + 0.5);
        return sorted[std::min(idx, sorted.size() - 1)];
    }

    [[nodiscard]] std::size_t count() const noexcept { return xs_.size(); }

  private:
    std::vector<double> xs_;
};

/// Ratio counter for hit/miss style accounting.
struct Ratio {
    std::uint64_t num = 0;
    std::uint64_t den = 0;
    void hit(bool ok) noexcept {
        ++den;
        num += ok ? 1 : 0;
    }
    [[nodiscard]] double value() const noexcept {
        return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
    }
};

}  // namespace p4lru::stats
