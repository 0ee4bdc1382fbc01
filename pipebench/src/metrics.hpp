/**
 * @file
 * Named metrics, tail-percentile selection and result rendering for the
 * pipeline benchmark.
 *
 * A MetricSet is what one workload run measured: every value carries
 * its unit and whether it is an exact count — a number the simulator
 * computes deterministically from the seed (launches, accesses,
 * detector checks, geomeans), which must repeat bit for bit between two
 * runs of one commit. Timings are never exact.
 */
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace pipebench {

using eclsim::u64;

/** One measured value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    bool exact = false;  ///< deterministic count (see file comment)
};

/**
 * True when `name` is a valid metric name: 1 to 64 characters from
 * [A-Za-z0-9_.-], starting with a letter or digit.
 */
bool validMetricName(std::string_view name);

/** Ordered set of metrics with unique, valid names. */
class MetricSet
{
  public:
    /** Add or overwrite a metric; throws std::invalid_argument on an
     *  invalid name or a non-finite value. */
    void set(const std::string& name, double value, const std::string& unit,
             bool exact = false);

    /** The metric of that name, or nullptr. */
    const Metric* find(const std::string& name) const;

    const std::vector<Metric>& all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/**
 * Per-metric median over several passes of the same measurement (the
 * metric list and units are taken from the first pass; a metric missing
 * from a later pass is an error).
 */
MetricSet medianOf(const std::vector<MetricSet>& passes);

/** A tail latency as the benchmark reports it. */
struct Tail
{
    double percentile = 0.0;  ///< which percentile `value` is
    double value = 0.0;
    size_t count = 0;        ///< samples it was taken from
    bool qualified = false;  ///< ≥10 samples lie beyond `percentile`
};

/**
 * The highest of the standard percentiles 99.9, 99, 95, 90, 75 and 50
 * that has at least ten samples beyond it, i.e. the largest p with
 * floor(n * (100 - p) / 100) >= 10. With fewer than 20 samples no
 * percentile qualifies and the median is returned unqualified.
 */
Tail tailPercentile(const std::vector<double>& samples);

/** Shortest round-trip decimal rendering of a finite double. */
std::string jsonNumber(double value);

/** JSON string literal with the necessary escapes. */
std::string jsonString(std::string_view text);

}  // namespace pipebench
