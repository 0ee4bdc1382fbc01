/**
 * @file
 * pipebench: eclsim's end-to-end pipeline benchmark.
 *
 *   pipebench --workload=paper_sweep|race_gate|serve_replay --seed=N
 *             --seconds=S --trace=0|1 [--out=PATH] [--spans=PATH]
 *             [--commit=ID]
 *
 * Runs one workload on min(4, nproc) workers, prints a human-readable
 * report, writes the full result (every metric measured, flagged exact
 * or not, the metrics the workload does not measure, and run metadata)
 * to --out and the traced run's spans to --spans. run.py turns the
 * result file into the one-line result BENCHMARK.json defines.
 */
#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "core/flags.hpp"
#include "workloads.hpp"

namespace pipebench {
namespace {

/** Run metadata, so numbers from different builds or machines are
 *  never compared silently. */
std::string
metadataJson(const RunOptions& options, const std::string& commit)
{
    return "{\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"build_type\": " + jsonString(PIPEBENCH_BUILD_TYPE) +
           ", \"compiler\": " + jsonString(PIPEBENCH_COMPILER) +
           ", \"commit\": " + jsonString(commit) +
           ", \"workers\": " + std::to_string(options.jobs) +
           ", \"seed\": " + std::to_string(options.seed) +
           ", \"seconds\": " + jsonNumber(options.seconds) + "}";
}

std::string
resultFileJson(const RunOptions& options, const RunResult& result,
               const std::string& commit)
{
    std::string out = "{\n";
    out += "  \"workload\": " + jsonString(options.workload) + ",\n";
    out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
    out += "  \"trace\": " + std::string(options.trace ? "true" : "false") +
           ",\n";
    out += "  \"metadata\": " + metadataJson(options, commit) + ",\n";
    out += "  \"correct\": " +
           std::string(result.failed == 0 ? "true" : "false") + ",\n";
    out += "  \"attempted\": " + std::to_string(result.attempted) + ",\n";
    out += "  \"failed\": " + std::to_string(result.failed) + ",\n";
    out += "  \"failures\": [";
    for (size_t i = 0; i < result.failures.size(); ++i)
        out += (i ? ", " : "") + jsonString(result.failures[i]);
    out += "],\n  \"details\": {";
    bool first = true;
    for (const auto& [key, value] : result.details) {
        out += (first ? "" : ", ") + jsonString(key) + ": " +
               jsonString(value);
        first = false;
    }
    out += "},\n  \"unmeasured\": [";
    for (size_t i = 0; i < result.unmeasured.size(); ++i)
        out += (i ? ", " : "") + jsonString(result.unmeasured[i]);
    out += "],\n  \"metrics\": {\n";
    first = true;
    for (const Metric& m : result.metrics.all()) {
        out += (first ? "" : ",\n") + std::string("    ") +
               jsonString(m.name) + ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) +
               ", \"exact\": " + (m.exact ? "true" : "false") + "}";
        first = false;
    }
    out += "\n  }\n}\n";
    return out;
}

void
writeFile(const std::string& path, const std::string& text)
{
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

int
run(int argc, char** argv)
{
    eclsim::Flags flags(argc, argv);
    RunOptions options;
    options.workload = flags.getString("workload", "");
    options.seed = static_cast<u64>(flags.getInt("seed", 1));
    options.seconds = flags.getDouble("seconds", 10.0);
    options.trace = flags.getInt("trace", 0) != 0;
    options.jobs =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    if (!(options.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");

    RunResult result;
    if (options.workload == "paper_sweep")
        result = runPaperSweep(options);
    else if (options.workload == "race_gate")
        result = runRaceGate(options);
    else if (options.workload == "serve_replay")
        result = runServeReplay(options);
    else
        throw std::invalid_argument(
            "--workload must be paper_sweep, race_gate or serve_replay");

    result.metrics.set("error_rate",
                       result.attempted
                           ? double(result.failed) / result.attempted
                           : 1.0,
                       "ratio");

    const std::string commit = flags.getString("commit", "");
    std::cout << "pipebench " << options.workload
              << (options.trace ? " (traced)" : "") << "\n"
              << "metadata: " << metadataJson(options, commit) << "\n\n"
              << result.report << "\n";
    for (const auto& [key, value] : result.details)
        std::cout << "  " << key << " = " << value << "\n";
    for (const Metric& m : result.metrics.all())
        std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit << (m.exact ? " (exact)" : "") << "\n";
    std::cout << "attempted " << result.attempted << ", failed "
              << result.failed << "\n";
    for (const std::string& why : result.failures)
        std::cout << "  FAILED: " << why << "\n";

    writeFile(flags.getString("out", ""),
              resultFileJson(options, result, commit));
    if (options.trace)
        writeFile(flags.getString("spans", ""),
                  renderChromeTrace(result.spans));

    return 0;
}

}  // namespace
}  // namespace pipebench

int
main(int argc, char** argv)
{
    try {
        return pipebench::run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "pipebench: " << e.what() << std::endl;
        return 1;
    }
}
