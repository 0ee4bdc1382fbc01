#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/stats.hpp"
#include "workloads.hpp"

namespace pipebench {

void
RunResult::fail(const std::string& why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

double
InputSetup::medianSeconds() const
{
    return medianOrZero(seconds_);
}

void
InputSetup::checkNoBuilds(RunResult& result) const
{
    const u64 misses = eclsim::graph::InputCatalog::shared().misses();
    if (misses != misses_)
        result.fail("a timed pass built " + std::to_string(misses - misses_) +
                    " inputs that set-up should have built");
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

u32
passesFor(double seconds, double seconds_per_pass)
{
    return static_cast<u32>(
        std::max(1.0, std::round(seconds / seconds_per_pass)));
}

double
medianOrZero(const std::vector<double>& values)
{
    return values.empty() ? 0.0 : eclsim::stats::median(values);
}

std::string
joinNumbers(const std::vector<double>& values)
{
    std::string out;
    for (double v : values)
        out += (out.empty() ? "" : " ") + jsonNumber(v);
    return out;
}

void
CompletionClock::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    start_ = Clock::now();
    passes_ms_.emplace_back();
}

void
CompletionClock::complete()
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    passes_ms_.back().push_back(
        std::chrono::duration<double, std::milli>(now - start_).count());
}

void
reportLatency(RunResult& result,
              const std::vector<std::vector<double>>& passes_ms)
{
    std::vector<double> p50s, tails;
    Tail tail;
    size_t smallest = passes_ms.empty() ? 0 : passes_ms.front().size();
    for (const auto& samples : passes_ms) {
        tail = tailPercentile(samples);
        p50s.push_back(medianOrZero(samples));
        tails.push_back(tail.value);
        smallest = std::min(smallest, samples.size());
    }
    result.metrics.set("p50_ms", medianOrZero(p50s), "ms");
    result.metrics.set("p99_ms", medianOrZero(tails), "ms");
    // Every pass has the same number of samples, so the same percentile.
    result.details["p99_ms.percentile"] = jsonNumber(tail.percentile);
    result.details["p99_ms.samples"] = std::to_string(smallest);
    result.details["p99_ms.qualified"] = tail.qualified ? "true" : "false";
    if (passes_ms.size() > 1) {
        result.details["p50_ms.passes"] = joinNumbers(p50s);
        result.details["p99_ms.passes"] = joinNumbers(tails);
    }
}

}  // namespace pipebench
