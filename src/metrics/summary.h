#ifndef SPLITWISE_METRICS_SUMMARY_H_
#define SPLITWISE_METRICS_SUMMARY_H_

#include <cstddef>
#include <vector>

namespace splitwise::metrics {

/**
 * Accumulates scalar samples and answers order statistics.
 *
 * Samples are stored exactly, once; an order-statistic query sorts
 * them in place, and the order holds until the next insertion. The
 * sum accumulates at add() time, so the reordering changes no
 * answer. This favours fidelity over memory, which is appropriate at
 * the request counts simulated here (tens of thousands).
 */
class Summary {
  public:
    /** Add one sample. */
    void add(double value);

    /** Merge all samples from another summary. */
    void merge(const Summary& other);

    /** Number of samples recorded. */
    std::size_t count() const { return samples_.size(); }

    /** True when no samples have been recorded. */
    bool empty() const { return samples_.empty(); }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Smallest sample; 0 when empty. */
    double min() const;

    /** Largest sample; 0 when empty. */
    double max() const;

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /**
     * Percentile by linear interpolation between closest ranks.
     *
     * @param p Percentile in [0, 100]; out-of-range values clamp to
     *     the bounds.
     * @return 0 when empty; NaN when @p p is NaN.
     */
    double percentile(double p) const;

    /** Shorthand for common percentiles. */
    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }

    /** One equal-width histogram bucket over [min, max]. */
    struct Bucket {
        /** Inclusive upper edge of the bucket's value range. */
        double upperEdge = 0.0;
        /** Samples falling in the bucket. */
        std::size_t count = 0;
    };

    /**
     * Equal-width histogram of the samples over [min(), max()].
     *
     * All-identical samples (or a single one) collapse into one
     * bucket holding everything.
     *
     * @param bucket_count Number of buckets; must be positive.
     * @return Empty when no samples have been recorded.
     */
    std::vector<Bucket> histogram(std::size_t bucket_count) const;

    /** Drop all samples. */
    void clear();

  private:
    void ensureSorted() const;

    /** Sorted in place by queries; insertion order is not kept. */
    mutable std::vector<double> samples_;
    mutable bool sortedValid_ = false;
    double sum_ = 0.0;
};

}  // namespace splitwise::metrics

#endif  // SPLITWISE_METRICS_SUMMARY_H_
