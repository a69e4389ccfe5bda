#include "metrics/summary.h"

#include <algorithm>
#include <cmath>

namespace splitwise::metrics {

void
Summary::add(double value)
{
    samples_.push_back(value);
    sum_ += value;
    sortedValid_ = false;
}

void
Summary::merge(const Summary& other)
{
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sum_ += other.sum_;
    sortedValid_ = false;
}

double
Summary::mean() const
{
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double
Summary::min() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.front();
}

double
Summary::max() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.back();
}

double
Summary::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    // std::clamp on NaN is UB; propagate it instead of returning an
    // arbitrary sample.
    if (std::isnan(p))
        return p;
    ensureSorted();
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank =
        clamped / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] + (samples_[hi] - samples_[lo]) * frac;
}

std::vector<Summary::Bucket>
Summary::histogram(std::size_t bucket_count) const
{
    if (bucket_count == 0)
        bucket_count = 1;
    if (samples_.empty())
        return {};
    ensureSorted();
    // A NaN or infinite sample would poison the range arithmetic
    // (NaN width makes the bucket-index cast undefined), so the
    // histogram covers the finite samples only - same spirit as the
    // percentile() NaN guard.
    std::vector<double> finite;
    finite.reserve(samples_.size());
    for (double v : samples_) {
        if (std::isfinite(v))
            finite.push_back(v);
    }
    if (finite.empty())
        return {};
    const double lo = finite.front();
    const double hi = finite.back();
    if (hi <= lo) {
        // Degenerate range: one bucket holds everything.
        return {{hi, finite.size()}};
    }
    const double width = (hi - lo) / static_cast<double>(bucket_count);
    std::vector<Bucket> buckets(bucket_count);
    for (std::size_t i = 0; i < bucket_count; ++i)
        buckets[i].upperEdge = lo + width * static_cast<double>(i + 1);
    // Exact upper edge to dodge accumulated rounding at the top.
    buckets.back().upperEdge = hi;
    for (double v : finite) {
        auto idx = static_cast<std::size_t>((v - lo) / width);
        idx = std::min(idx, bucket_count - 1);
        ++buckets[idx].count;
    }
    return buckets;
}

void
Summary::clear()
{
    samples_.clear();
    sortedValid_ = false;
    sum_ = 0.0;
}

void
Summary::ensureSorted() const
{
    if (sortedValid_)
        return;
    std::sort(samples_.begin(), samples_.end());
    sortedValid_ = true;
}

}  // namespace splitwise::metrics
