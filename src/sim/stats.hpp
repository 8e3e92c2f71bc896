/**
 * @file
 * Lightweight statistics primitives used throughout the simulator.
 *
 * Table 3 of the paper reports "average (max)" pairs for structure
 * occupancy, so AvgMax is the workhorse here. Histogram supports the
 * distribution analyses in the benches.
 */

#ifndef RETCON_SIM_STATS_HPP
#define RETCON_SIM_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace retcon {

/** Running average + maximum tracker (Table 3 "avg (max)" columns). */
class AvgMax
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
        _max = std::max(_max, v);
    }

    /** Mean of all samples, or 0 when empty. */
    double avg() const { return _count ? _sum / _count : 0.0; }

    /** Largest sample seen (correct for negative streams), or 0 when
     *  empty. */
    double max() const { return _count ? _max : 0.0; }

    /** Number of samples. */
    std::uint64_t count() const { return _count; }

    /** Sum of all samples. */
    double sum() const { return _sum; }

    /** Merge another tracker into this one. */
    void
    merge(const AvgMax &o)
    {
        _sum += o._sum;
        _count += o._count;
        _max = std::max(_max, o._max);
    }

    /** Drop all samples. */
    void
    reset()
    {
        _sum = 0;
        _count = 0;
        _max = kNoMax;
    }

  private:
    /// Bootstrapping from -inf (not 0) keeps max() exact when every
    /// sample is negative; merging an empty tracker is then a no-op.
    static constexpr double kNoMax =
        -std::numeric_limits<double>::infinity();

    double _sum = 0;
    std::uint64_t _count = 0;
    double _max = kNoMax;
};

/** Fixed-bucket histogram over integer samples. */
class Histogram
{
  public:
    /** @param num_buckets direct buckets [0, num_buckets); larger
     *  samples land in the overflow bucket, negative samples in the
     *  underflow bucket. */
    explicit Histogram(std::size_t num_buckets = 32)
        : _buckets(num_buckets, 0)
    {}

    void
    sample(std::int64_t v)
    {
        ++_total;
        if (v < 0)
            ++_underflow;
        else if (static_cast<std::uint64_t>(v) < _buckets.size())
            ++_buckets[static_cast<std::size_t>(v)];
        else
            ++_overflow;
    }

    std::uint64_t bucket(std::size_t i) const { return _buckets.at(i); }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t total() const { return _total; }
    std::size_t size() const { return _buckets.size(); }

    /** Merge another histogram (buckets align by index; a smaller
     *  bucket array is extended to the larger one). */
    void
    merge(const Histogram &o)
    {
        if (o._buckets.size() != _buckets.size())
            _buckets.resize(
                std::max(_buckets.size(), o._buckets.size()), 0);
        for (std::size_t i = 0; i < o._buckets.size(); ++i)
            _buckets[i] += o._buckets[i];
        _underflow += o._underflow;
        _overflow += o._overflow;
        _total += o._total;
    }

    /**
     * Nearest-rank percentile: the smallest v such that at least
     * ceil(frac * total) samples (and at least one) are <= v. 0 when
     * empty; the bucket count when the rank lies in the overflow.
     */
    std::uint64_t
    percentile(double frac) const
    {
        if (_total == 0)
            return 0;
        const double rank = frac * static_cast<double>(_total);
        // Read the ceiling through the rounding error of the product:
        // 0.7 * 10 is 7.000000000000001, and its rank is 7, not 8.
        const double near = std::round(rank);
        const double exact =
            std::abs(rank - near) <= 1e-9 * std::max(1.0, rank)
                ? near
                : std::ceil(rank);
        const std::uint64_t need = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(std::max(exact, 0.0)), 1, _total);
        std::uint64_t seen = _underflow; // Negatives precede bucket 0.
        for (std::size_t i = 0; i < _buckets.size(); ++i) {
            seen += _buckets[i];
            if (seen >= need)
                return i;
        }
        return _buckets.size();
    }

  private:
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _total = 0;
};

} // namespace retcon

#endif // RETCON_SIM_STATS_HPP
