/**
 * @file
 * paper_sweep: the Table IV run (CC/GC/MIS/MST on the 17 Table II
 * stand-ins, Titan V, default divisor, fast mode, oracle-verified).
 */
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>

#include "algos/cc.hpp"
#include "algos/gc.hpp"
#include "algos/mis.hpp"
#include "algos/mst.hpp"
#include "chaos/oracle.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "graph/input_catalog.hpp"
#include "graph/properties.hpp"
#include "harness/experiment.hpp"
#include "harness/paper_reference.hpp"
#include "workloads.hpp"

namespace pipebench {

using namespace eclsim;

namespace {

constexpr const char* kGpu = "Titan V";
/** Repetitions per (cell, variant). One keeps a sweep near 3 s at four
 *  workers, so a run medians several sweeps. */
constexpr u32 kReps = 1;
/** Nominal seconds per sweep, for passesFor(). */
constexpr double kSecondsPerSweep = 2.5;
/** table4_titanv's default --divisor (the catalog's own default, 256,
 *  doubles every graph). */
constexpr u32 kDivisor = 512;

harness::ExperimentConfig
sweepConfig(const RunOptions& options)
{
    harness::ExperimentConfig config;
    config.reps = kReps;
    config.graph_divisor = kDivisor;
    config.verify = true;
    config.seed = options.seed;
    config.jobs = options.jobs;
    config.exec_mode = simt::ExecMode::kFast;
    return config;
}

/** Build every input the sweep reads into the shared catalog. */
void
buildInputs(u32 divisor, SpanRecorder* spans)
{
    auto& catalog = graph::InputCatalog::shared();
    for (const auto& entry : graph::undirectedCatalog()) {
        {
            ScopedSpan span(spans, "graph.build", entry.name);
            catalog.get(entry.name, divisor);
        }
        ScopedSpan span(spans, "graph.build", entry.name + "/weighted");
        catalog.getWeighted(entry.name, divisor);
    }
}

/** Bit-exact equality of the fields a sweep computes. */
bool
sameMeasurement(const harness::Measurement& a, const harness::Measurement& b)
{
    return a.input == b.input && a.algo == b.algo && a.gpu == b.gpu &&
           a.baseline_ms == b.baseline_ms && a.racefree_ms == b.racefree_ms &&
           a.baseline_iterations == b.baseline_iterations &&
           a.racefree_iterations == b.racefree_iterations;
}

/** Simulated-statistics totals of a traced replay. */
struct SimTotals
{
    u64 launches = 0;
    u64 accesses = 0;
    u64 atomic_accesses = 0;
    u64 stale_reads = 0;
    u64 dram_bytes = 0;
    u64 sim_cycles = 0;
    u64 l1_hits = 0, l1_total = 0;
    u64 l2_hits = 0, l2_total = 0;
    u64 oracle_rejects = 0;

    void
    add(const algos::RunStats& stats)
    {
        launches += stats.launches;
        accesses += stats.mem.loads + stats.mem.stores + stats.mem.rmws;
        atomic_accesses += stats.mem.atomic_accesses;
        stale_reads += stats.mem.stale_reads;
        dram_bytes += stats.mem.dram_bytes;
        sim_cycles += stats.cycles;
        l1_hits += stats.mem.l1.hits();
        l1_total += stats.mem.l1.hits() + stats.mem.l1.misses();
        l2_hits += stats.mem.l2.hits();
        l2_total += stats.mem.l2.hits() + stats.mem.l2.misses();
    }

    void
    merge(const SimTotals& other)
    {
        launches += other.launches;
        accesses += other.accesses;
        atomic_accesses += other.atomic_accesses;
        stale_reads += other.stale_reads;
        dram_bytes += other.dram_bytes;
        sim_cycles += other.sim_cycles;
        l1_hits += other.l1_hits;
        l1_total += other.l1_total;
        l2_hits += other.l2_hits;
        l2_total += other.l2_total;
        oracle_rejects += other.oracle_rejects;
    }
};

const char*
lowerName(harness::Algo algo)
{
    switch (algo) {
        case harness::Algo::kCc: return "cc";
        case harness::Algo::kGc: return "gc";
        case harness::Algo::kMis: return "mis";
        default: return "mst";
    }
}

/** One variant run of one cell, call by call, under spans. */
algos::RunStats
tracedRun(const simt::GpuSpec& gpu, const graph::CsrGraph& graph,
          harness::Algo algo, algos::Variant variant, u64 seed,
          SpanRecorder* spans, SimTotals& totals)
{
    simt::EngineOptions options;
    options.mode = simt::ExecMode::kFast;
    options.detect_races = false;
    options.shuffle_blocks = true;
    options.seed = seed;
    options.memory.cache_divisor = harness::ExperimentConfig{}.cache_divisor;

    std::unique_ptr<simt::DeviceMemory> memory;
    std::unique_ptr<simt::Engine> engine;
    {
        ScopedSpan span(spans, "simt.engine_setup");
        memory = std::make_unique<simt::DeviceMemory>();
        engine = std::make_unique<simt::Engine>(gpu, *memory, options);
    }
    const std::string layer = std::string("algos.") + lowerName(algo);
    algos::RunStats stats;
    chaos::Verdict verdict;
    switch (algo) {
        case harness::Algo::kCc: {
            algos::CcResult r;
            {
                ScopedSpan span(spans, layer);
                r = algos::runCc(*engine, graph, variant);
            }
            ScopedSpan span(spans, "chaos.oracle");
            verdict = chaos::checkCc(graph, r.labels);
            stats = r.stats;
            break;
        }
        case harness::Algo::kGc: {
            algos::GcResult r;
            {
                ScopedSpan span(spans, layer);
                r = algos::runGc(*engine, graph, variant);
            }
            ScopedSpan span(spans, "chaos.oracle");
            verdict = chaos::checkGc(graph, r.colors);
            stats = r.stats;
            break;
        }
        case harness::Algo::kMis: {
            algos::MisResult r;
            {
                ScopedSpan span(spans, layer);
                r = algos::runMis(*engine, graph, variant);
            }
            ScopedSpan span(spans, "chaos.oracle");
            verdict = chaos::checkMis(graph, r.in_set);
            stats = r.stats;
            break;
        }
        default: {
            algos::MstResult r;
            {
                ScopedSpan span(spans, layer);
                r = algos::runMst(*engine, graph, variant);
            }
            ScopedSpan span(spans, "chaos.oracle");
            verdict = chaos::checkMst(graph, r.total_weight);
            stats = r.stats;
            break;
        }
    }
    totals.add(stats);
    if (!verdict.valid)
        ++totals.oracle_rejects;
    return stats;
}

/**
 * The traced replay of one sweep: the same cells, seeds and workers as
 * harness::runUndirectedSuite, driven through the per-module calls.
 */
std::vector<harness::Measurement>
tracedSweep(const harness::ExperimentConfig& config, SpanRecorder* spans,
            SimTotals& totals)
{
    struct Cell
    {
        const graph::CatalogEntry* entry;
        harness::Algo algo;
    };
    std::vector<Cell> cells;
    for (const auto& entry : graph::undirectedCatalog())
        for (harness::Algo algo : harness::undirectedAlgos())
            cells.push_back({&entry, algo});

    const simt::GpuSpec& gpu = simt::findGpu(kGpu);
    std::vector<harness::Measurement> out(cells.size());
    std::vector<SimTotals> cell_totals(cells.size());
    const auto runCell = [&](size_t i) {
        const Cell& cell = cells[i];
        ScopedSpan cell_span(spans, "harness.cell",
                             std::string(harness::algoName(cell.algo)) +
                                 "/" + cell.entry->name);
        graph::GraphPtr graph;
        {
            ScopedSpan span(spans, "graph.get", cell.entry->name);
            auto& catalog = graph::InputCatalog::shared();
            graph = cell.algo == harness::Algo::kMst
                        ? catalog.getWeighted(cell.entry->name,
                                              config.graph_divisor)
                        : catalog.get(cell.entry->name,
                                      config.graph_divisor);
        }
        harness::Measurement m;
        m.input = cell.entry->name;
        m.algo = cell.algo;
        m.gpu = gpu.name;
        const auto props = graph::computeProperties(*graph);
        m.edges = static_cast<double>(props.num_arcs);
        m.vertices = static_cast<double>(props.num_vertices);
        m.avg_degree = props.avg_degree;
        std::vector<double> base_ms, free_ms;
        const u64 seed_base = cellSeed(config.seed, i);
        for (u32 rep = 0; rep < config.reps; ++rep) {
            const auto base =
                tracedRun(gpu, *graph, cell.algo, algos::Variant::kBaseline,
                          seed_base + rep, spans, cell_totals[i]);
            base_ms.push_back(base.ms);
            m.baseline_iterations = base.iterations;
            const auto free =
                tracedRun(gpu, *graph, cell.algo, algos::Variant::kRaceFree,
                          seed_base + rep, spans, cell_totals[i]);
            free_ms.push_back(free.ms);
            m.racefree_iterations = free.iterations;
        }
        m.baseline_ms = stats::median(base_ms);
        m.racefree_ms = stats::median(free_ms);
        out[i] = std::move(m);
    };

    core::ThreadPool pool(config.jobs);
    std::vector<std::future<void>> done;
    for (size_t i = 0; i < cells.size(); ++i)
        done.push_back(pool.submit([&, i] { runCell(i); }));
    for (auto& future : done)
        future.get();
    for (const SimTotals& t : cell_totals)
        totals.merge(t);

    ScopedSpan span(spans, "harness.report");
    if (harness::makeSpeedupTable(out).toCsv().empty())
        throw std::logic_error("empty speedup table");
    return out;
}

/** Fidelity block: simulated geomeans next to the paper's Table IV. */
void
reportFidelity(RunResult& result,
               const std::vector<harness::Measurement>& measurements)
{
    std::string text =
        "Fidelity vs the paper's Table IV (Titan V geomean speedups).\n"
        "Speedups are ratios of simulated times; absolute simulated ms "
        "are unvalidated.\n";
    for (harness::Algo algo : harness::undirectedAlgos()) {
        const double sim = harness::geomeanSpeedup(measurements, algo, kGpu);
        const double paper = harness::paperSummary(kGpu, algo).geomean;
        const std::string key = std::string("fidelity.") + lowerName(algo);
        result.metrics.set(key + ".geomean", sim, "ratio", true);
        result.metrics.set(key + ".geomean_err", std::fabs(sim - paper),
                           "ratio", true);
        text += "  " + std::string(harness::algoName(algo)) +
                ": simulated " + fmtFixed(sim, 3) + ", paper " +
                fmtFixed(paper, 2) + ", |error| " +
                fmtFixed(std::fabs(sim - paper), 3) + "\n";
    }
    result.report += text;
}

/** One untraced sweep plus report rendering; returns its wall seconds. */
double
untracedSweep(const harness::ExperimentConfig& config,
              CompletionClock* clock,
              std::vector<harness::Measurement>& measurements)
{
    const auto start = Clock::now();
    if (clock != nullptr)
        clock->start();
    measurements = harness::runUndirectedSuite(
        simt::findGpu(kGpu), config,
        [clock](const harness::Measurement&) {
            if (clock != nullptr)
                clock->complete();
        });
    const std::string csv = harness::makeSpeedupTable(measurements).toCsv();
    if (csv.empty())
        throw std::logic_error("empty speedup table");
    return secondsSince(start);
}

/** Count the sweep's cells and its paper-shape check; check that a
 *  repeated sweep reproduced the first one bit for bit. */
void
checkSweep(RunResult& result,
           const std::vector<harness::Measurement>& reference,
           const std::vector<harness::Measurement>& sweep)
{
    result.attempted += sweep.size() + 1;
    if (sweep.size() != reference.size()) {
        result.fail("sweep returned " + std::to_string(sweep.size()) +
                    " cells, expected " + std::to_string(reference.size()));
        return;
    }
    for (size_t i = 0; i < sweep.size(); ++i)
        if (!sameMeasurement(sweep[i], reference[i]))
            result.fail("cell " + std::to_string(i) + " (" +
                        harness::algoName(sweep[i].algo) + "/" +
                        sweep[i].input + ") is not reproducible");
    // Paper shape (DESIGN §1): race-free CC is slower, race-free MIS
    // faster, on the Titan V.
    const double cc = harness::geomeanSpeedup(sweep, harness::Algo::kCc, kGpu);
    const double mis =
        harness::geomeanSpeedup(sweep, harness::Algo::kMis, kGpu);
    if (!(cc < 1.0 && mis > 1.0))
        result.fail("paper shape violated: CC geomean " + fmtFixed(cc, 3) +
                    ", MIS geomean " + fmtFixed(mis, 3));
}

MetricSet
layerMetrics(const std::vector<Span>& spans, const SimTotals& totals,
             u32 workers, double replay_s)
{
    MetricSet m;
    const auto self = selfSeconds(spans);
    const auto total = totalSeconds(spans);
    double algos_s = 0.0;
    for (const char* algo : {"cc", "gc", "mis", "mst"}) {
        const double s = secondsOf(self, std::string("algos.") + algo);
        algos_s += s;
        m.set(std::string("algos.") + algo + ".host_s", s, "s");
    }
    const double cells_s = secondsOf(total, "harness.cell");
    m.set("algos.cc.host_share",
          cells_s > 0.0 ? secondsOf(self, "algos.cc") / cells_s : 0.0, "ratio");

    m.set("simt.engine_setup_s", secondsOf(self, "simt.engine_setup"), "s");
    m.set("simt.ns_per_access",
          totals.accesses ? algos_s * 1e9 / totals.accesses : 0.0, "ns");
    m.set("simt.launches", totals.launches, "count", true);
    m.set("simt.accesses", totals.accesses, "count", true);
    m.set("simt.atomic_accesses", totals.atomic_accesses, "count", true);
    m.set("simt.stale_reads", totals.stale_reads, "count", true);
    m.set("simt.dram_bytes", totals.dram_bytes, "bytes", true);
    m.set("simt.sim_cycles", totals.sim_cycles, "cycles", true);
    m.set("simt.l1_hit_rate",
          totals.l1_total ? double(totals.l1_hits) / totals.l1_total : 0.0,
          "ratio", true);
    m.set("simt.l2_hit_rate",
          totals.l2_total ? double(totals.l2_hits) / totals.l2_total : 0.0,
          "ratio", true);

    m.set("chaos.oracle_s", secondsOf(self, "chaos.oracle"), "s");
    m.set("chaos.oracle_rejects", totals.oracle_rejects, "count", true);

    m.set("harness.report_s", secondsOf(self, "harness.report"), "s");
    m.set("harness.worker_busy_frac",
          replay_s > 0.0 ? cells_s / (workers * replay_s) : 0.0, "ratio");
    m.set("harness.slowest_cell_s", longestSeconds(spans, "harness.cell"),
          "s");
    m.set("harness.cells", spanCount(spans, "harness.cell"), "count", true);
    return m;
}

}  // namespace

RunResult
runPaperSweep(const RunOptions& options)
{
    RunResult result;
    result.unmeasured = {"racecheck",        "staticrace",
                         "repair",           "serve",
                         "chaos.campaign_s", "chaos.campaign_cells",
                         "chaos.violations"};
    const harness::ExperimentConfig config = sweepConfig(options);
    SpanRecorder recorder;
    SpanRecorder* spans = options.trace ? &recorder : nullptr;

    InputSetup setup;
    CompletionClock clock;
    std::vector<harness::Measurement> reference;
    std::vector<double> sweep_s, sweep_rps, traced_s;
    std::vector<MetricSet> layer_passes;

    const u32 sweeps = passesFor(options.seconds, kSecondsPerSweep);
    for (u32 pass = 0; pass < sweeps; ++pass) {
        // Set-up: build the 34 inputs (17 graphs, plain and weighted).
        setup.rebuild([&] { buildInputs(config.graph_divisor, spans); });
        std::vector<harness::Measurement> sweep;
        const double s =
            untracedSweep(config, options.trace ? nullptr : &clock, sweep);
        if (pass == 0)
            result.metrics.set("peak_rss_mb", peakRssMb(), "MiB");
        sweep_s.push_back(s);
        sweep_rps.push_back(sweep.size() / s);
        if (reference.empty())
            reference = sweep;
        checkSweep(result, reference, sweep);

        if (options.trace) {
            // Traced replay of the same cells; its time is not sweep_s.
            SimTotals totals;
            const size_t first_span = recorder.size();
            const auto start = Clock::now();
            const auto replay = tracedSweep(config, spans, totals);
            const double replay_s = secondsSince(start);
            traced_s.push_back(replay_s);
            result.attempted += replay.size();
            if (totals.oracle_rejects != 0)
                result.fail("traced replay: " +
                            std::to_string(totals.oracle_rejects) +
                            " oracle rejections");
            for (size_t i = 0; i < replay.size(); ++i)
                if (i >= reference.size() ||
                    !sameMeasurement(replay[i], reference[i]))
                    result.fail("traced replay differs at cell " +
                                std::to_string(i));
            layer_passes.push_back(
                layerMetrics(sliceSpans(recorder.spans(), first_span),
                             totals, config.jobs, replay_s));
        }
        setup.checkNoBuilds(result);
    }

    result.metrics.set("setup_s", setup.medianSeconds(), "s");
    result.metrics.set("wall_s", medianOrZero(sweep_s), "s");
    result.details["wall_s.passes"] = joinNumbers(sweep_s);
    result.metrics.set("max_rps", medianOrZero(sweep_rps), "req/s");
    if (!options.trace)
        reportLatency(result, clock.passesMs());
    result.details["sweeps"] = std::to_string(sweep_s.size());
    result.details["cells_per_sweep"] = std::to_string(reference.size());
    reportFidelity(result, reference);
    result.report += "\nTable IV (simulated, seed " +
                     std::to_string(options.seed) + ", reps " +
                     std::to_string(kReps) + ")\n\n" +
                     harness::makeSpeedupTable(reference).toText();

    if (options.trace) {
        const MetricSet layers = medianOf(layer_passes);
        for (const Metric& m : layers.all())
            result.metrics.set(m.name, m.value, m.unit, m.exact);
        result.metrics.set(
            "graph.build_s",
            totalSeconds(recorder.spans())["graph.build"] / setup.count(),
            "s");
        result.metrics.set("graph.built", setup.built(), "count", true);
        result.metrics.set("graph.catalog_evictions",
                           graph::InputCatalog::shared().evictions(), "count",
                           true);
        result.metrics.set("trace.overhead_frac",
                           medianOrZero(traced_s) / medianOrZero(sweep_s) -
                               1.0,
                           "ratio");
        result.spans = recorder.spans();
    }
    return result;
}

}  // namespace pipebench
