/**
 * @file
 * The pipeline benchmark's workloads and what they share.
 *
 * Each workload runs one user-facing eclsim job through its public
 * entry points, untraced, for an amount of work set by --seconds and
 * reports the end-to-end metrics; with trace set it also replays the
 * same cells (same seeds) call by call under SpanRecorder spans and
 * reports the per-layer metrics. README.md in this directory lists
 * the workloads, the metrics and what each metric is expected to move.
 */
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/input_catalog.hpp"
#include "metrics.hpp"
#include "spans.hpp"

namespace pipebench {

/** Command-line knobs of one run. */
struct RunOptions
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;  ///< sets the work of the timed phase
    bool trace = false;
    u32 jobs = 4;  ///< workers / client connections: min(4, nproc)
};

/** What one run measured and checked. */
struct RunResult
{
    MetricSet metrics;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;  ///< first few failure reasons
    /** Per-layer metrics the workload does not measure, by full name or
     *  by layer (the part of the name before the first '.'): layers it
     *  never calls, and work done inside a call the benchmark cannot
     *  split. run.py reports them as 0. */
    std::vector<std::string> unmeasured;
    /** Human-readable report (tables, fidelity, percentile details). */
    std::string report;
    /** Extra key/value details for the result file. */
    std::map<std::string, std::string> details;
    /** Spans of the traced run (empty when untraced). */
    std::vector<Span> spans;

    /** Count one failed operation and remember why. */
    void fail(const std::string& why);
};

RunResult runPaperSweep(const RunOptions& options);
RunResult runRaceGate(const RunOptions& options);
RunResult runServeReplay(const RunOptions& options);

// --- shared helpers ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/**
 * The process's memory high-water mark so far, in MiB. The workloads
 * read it at the end of their first timed pass: set-up and one pass are
 * what a single run of the job does, and each later pass only adds what
 * the allocator kept from earlier ones, an amount that varies from run
 * to run with which threads freed what.
 */
double peakRssMb();

/**
 * Input set-up, repeated before every timed pass so that its samples
 * are spread over the run like the passes' and a burst of load from
 * other processes at the start of a run does not set setup_s.
 */
class InputSetup
{
  public:
    /** Empty the shared input catalog and time `build` filling it. */
    template <typename Fn>
    void rebuild(Fn&& build);

    /** Count a failure when a pass built inputs since the last rebuild:
     *  set-up should have built them. */
    void checkNoBuilds(RunResult& result) const;

    double medianSeconds() const;
    size_t count() const { return seconds_.size(); }
    /** Inputs the last rebuild built. */
    u64 built() const { return built_; }

  private:
    std::vector<double> seconds_;
    u64 built_ = 0;
    u64 misses_ = 0;
};

/**
 * Latency of the results of a batch job, timed like the serve replay's
 * requests, from when they were due: every cell of a pass is due when
 * the pass starts, so a cell's latency is the time until its result is
 * in. The median and tail of a pass are then set by how fast the pass
 * gets through all its cells, not by one cell's luck with what ran
 * beside it, which moves a single cell's time by a fifth or more from
 * pass to pass on a shared host.
 */
class CompletionClock
{
  public:
    /** Start a pass: its cells are due now. */
    void start();

    /** Record a result of the current pass. */
    void complete();

    /** The latencies of every pass, in ms. */
    const std::vector<std::vector<double>>& passesMs() const
    {
        return passes_ms_;
    }

  private:
    std::mutex mutex_;
    Clock::time_point start_;
    std::vector<std::vector<double>> passes_ms_;
};

/**
 * Report latency samples grouped by pass (all passes the same size) as
 * `p50_ms` and `p99_ms`: each pass's median and tail (at
 * tailPercentile's choice), then the median over the passes, so one
 * pass caught in a burst of load from other processes does not set
 * them. Notes in `result.details` which percentile the tail is and how
 * many samples each pass had.
 */
void reportLatency(RunResult& result,
                   const std::vector<std::vector<double>>& passes_ms);

/**
 * How many passes a run of `seconds` makes, at a nominal
 * `seconds_per_pass`: fixed for a given budget, so every run does the
 * same work and takes its tail percentile over the same number of
 * samples however fast the host is that day.
 */
u32 passesFor(double seconds, double seconds_per_pass);

/** Median of a sample (0 when empty). */
double medianOrZero(const std::vector<double>& values);

/** The values as space-separated numbers, for result details. */
std::string joinNumbers(const std::vector<double>& values);

// --- template definitions ---------------------------------------------------

template <typename Fn>
void
InputSetup::rebuild(Fn&& build)
{
    auto& catalog = eclsim::graph::InputCatalog::shared();
    catalog.clear();
    const u64 before = catalog.misses();
    const auto start = Clock::now();
    build();
    seconds_.push_back(secondsSince(start));
    misses_ = catalog.misses();
    built_ = misses_ - before;
}

}  // namespace pipebench
