/**
 * @file
 * Unified counter/histogram registry. Supersedes the hand-rolled
 * MachineStats / cryptoStats printing that each bench used to carry:
 * producers dump their counters into a registry, and one registry-driven
 * printer (bench/common) renders them uniformly in text and JSON.
 *
 * The registry is a pure presentation-layer container — collecting
 * metrics never mutates simulated state.
 */
#ifndef VEIL_TRACE_METRICS_HH_
#define VEIL_TRACE_METRICS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace veil::trace {

/** One named counter. */
struct Metric
{
    std::string name;
    uint64_t value = 0;
    std::string unit;
};

/** One named distribution (log2-bucketed, from SpanHistogram). */
struct HistogramMetric
{
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::vector<uint64_t> log2Buckets;

    double mean() const { return count ? double(sum) / double(count) : 0.0; }
    /** Approximate quantile from the log2 buckets (upper bound). */
    uint64_t quantile(double q) const;
};

/** Ordered collection of counters and histograms. */
class MetricsRegistry
{
  public:
    void addCounter(std::string name, uint64_t value, std::string unit = "");
    void addHistogram(std::string name, const SpanHistogram &h);

    const std::vector<Metric> &counters() const { return counters_; }
    const std::vector<HistogramMetric> &histograms() const
    {
        return histograms_;
    }
    bool empty() const { return counters_.empty() && histograms_.empty(); }

    /** Value of a counter by name (0 if absent; test convenience). */
    uint64_t counter(const std::string &name) const;

    /**
     * Absorb the tracer's cycle attribution: one "cycles.<category>"
     * counter per non-zero category, "cycles.total", event/drop
     * counters, and one "span.<category>" histogram per span category.
     */
    void addTracer(const Tracer &tracer);

  private:
    std::vector<Metric> counters_;
    std::vector<HistogramMetric> histograms_;
};

} // namespace veil::trace

#endif // VEIL_TRACE_METRICS_HH_
