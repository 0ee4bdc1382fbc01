/**
 * @file
 * race_gate: the validation pipeline — racecheck gate, staticrace
 * soundness against the same dynamic results, the repair advisor on CC
 * and the default chaos campaign.
 */
#include <future>

#include "chaos/campaign.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "graph/input_catalog.hpp"
#include "racecheck/runner.hpp"
#include "repair/advisor.hpp"
#include "staticrace/runner.hpp"
#include "workloads.hpp"

namespace pipebench {

using namespace eclsim;

namespace {

/** Nominal seconds per pipeline pass, for passesFor(). */
constexpr double kSecondsPerPass = 2.5;

struct Configs
{
    racecheck::RunnerConfig racecheck;
    repair::AdvisorConfig advisor;
    chaos::CampaignConfig campaign;
};

Configs
makeConfigs(const RunOptions& options)
{
    Configs c;
    c.racecheck.seed = options.seed;
    c.racecheck.jobs = options.jobs;
    c.advisor.algo = algos::Algo::kCc;
    c.advisor.seed = options.seed;
    c.advisor.jobs = options.jobs;
    c.campaign.seed = options.seed;
    c.campaign.jobs = options.jobs;
    return c;
}

/** Build into the shared catalog every input the pipeline reads. */
void
buildInputs(const Configs& c, SpanRecorder* spans)
{
    auto& catalog = graph::InputCatalog::shared();
    const auto build = [&](const std::string& name, u32 divisor,
                           bool weighted) {
        ScopedSpan span(spans, "graph.build",
                        name + "/" + std::to_string(divisor) +
                            (weighted ? "/weighted" : ""));
        if (weighted)
            catalog.getWeighted(name, divisor);
        else
            catalog.get(name, divisor);
    };
    const auto buildFor = [&](const std::vector<algos::Algo>& algos,
                              const std::vector<std::string>& undirected,
                              const std::vector<std::string>& directed,
                              u32 divisor) {
        for (algos::Algo algo : algos)
            for (const std::string& name :
                 algos::algoNeedsDirected(algo) ? directed : undirected)
                build(name, divisor, algo == algos::Algo::kMst);
    };
    buildFor(c.racecheck.algos, c.racecheck.undirected_inputs,
             c.racecheck.directed_inputs, c.racecheck.graph_divisor);
    buildFor(c.campaign.algos, c.campaign.undirected_inputs,
             c.campaign.directed_inputs, c.campaign.graph_divisor);
    // The advisor's default CC input, at its detection and pricing
    // divisors.
    const std::string& cc_input = c.racecheck.undirected_inputs.front();
    build(cc_input, c.advisor.detect_divisor, false);
    build(cc_input, c.advisor.measure_divisor, false);
}

/** Everything one pass computes, rendered for comparison. */
struct PassOutput
{
    std::string racecheck_json;
    std::string staticrace_json;
    std::string repair_json;
};

/** Check one pass's verdicts; count attempts and failures. */
void
checkPass(RunResult& result,
          const std::vector<racecheck::CellResult>& dynamics,
          const racecheck::GateResult& gate,
          const staticrace::SoundnessResult& soundness,
          const repair::AdvisorResult& advisor,
          const std::vector<chaos::CellOutcome>& outcomes)
{
    result.attempted += dynamics.size() + 1;
    for (const auto& cell : dynamics)
        if (!cell.output_valid)
            result.fail("racecheck " + racecheck::cellName(cell.cell) +
                        ": oracle rejected: " + cell.detail);
    if (!gate.pass)
        result.fail("racecheck gate: " + (gate.failures.empty()
                                              ? std::string("failed")
                                              : gate.failures.front()));
    result.attempted += soundness.rows.size() + 1;
    for (const auto& row : soundness.rows)
        if (!row.misses.empty())
            result.fail("staticrace " + row.cell + ": " +
                        std::to_string(row.misses.size()) +
                        " dynamic race(s) not covered");
    if (!soundness.pass)
        result.fail("staticrace soundness gate failed");
    result.attempted += 1;
    if (!repair::advisorClean(advisor))
        result.fail("repair advisor on CC is not clean");
    result.attempted += outcomes.size();
    for (const auto& outcome : outcomes)
        if (!outcome.valid)
            result.fail("chaos campaign violation: " + outcome.detail);
}

/** One untraced pass through the public sweep entry points. */
PassOutput
untracedPass(const Configs& c, RunResult& result, CompletionClock* clock)
{
    // The pass is one job: every result is due when it starts.
    if (clock != nullptr)
        clock->start();
    const auto progress = [clock](const auto&) {
        if (clock != nullptr)
            clock->complete();
    };
    const auto dynamics = racecheck::runRacecheck(c.racecheck, progress);
    const auto gate = racecheck::evaluateGate(c.racecheck, dynamics);
    const auto statics = staticrace::runStaticrace(c.racecheck, progress);
    const auto soundness =
        staticrace::evaluateSoundness(c.racecheck, statics, dynamics);
    const auto advisor = repair::runAdvisor(c.advisor);
    progress(advisor);
    const auto outcomes = chaos::runCampaign(c.campaign, progress);

    checkPass(result, dynamics, gate, soundness, advisor, outcomes);
    PassOutput out;
    out.racecheck_json = racecheck::renderRacecheckJson(dynamics);
    out.staticrace_json =
        staticrace::renderStaticraceJson(statics, &soundness);
    out.repair_json = repair::renderRepairJson(advisor);
    return out;
}

/** Run fn(i) for i in [0, n) on `jobs` workers; results by index. */
template <typename T, typename Fn>
std::vector<T>
runIndexed(size_t n, u32 jobs, Fn&& fn)
{
    std::vector<T> out(n);
    core::ThreadPool pool(jobs);
    std::vector<std::future<void>> done;
    for (size_t i = 0; i < n; ++i)
        done.push_back(pool.submit([&, i] { out[i] = fn(i); }));
    for (auto& future : done)
        future.get();
    return out;
}

/**
 * The traced replay of one pass: the same cells and seeds through the
 * per-cell runners, each under a span. Fills the per-layer metrics.
 */
PassOutput
tracedPass(const Configs& c, RunResult& result, SpanRecorder& recorder,
           MetricSet& m)
{
    SpanRecorder* spans = &recorder;
    const size_t first_span = recorder.size();
    const u32 jobs = c.racecheck.jobs;

    const auto rc_cells = racecheck::racecheckCells(c.racecheck);
    const auto dynamics = runIndexed<racecheck::CellResult>(
        rc_cells.size(), jobs, [&](size_t i) {
            ScopedSpan span(spans, "racecheck.cell",
                            racecheck::cellName(rc_cells[i]));
            return racecheck::runRacecheckCell(
                c.racecheck, rc_cells[i], cellSeed(c.racecheck.seed, i));
        });
    racecheck::GateResult gate;
    {
        ScopedSpan span(spans, "racecheck.gate");
        gate = racecheck::evaluateGate(c.racecheck, dynamics);
    }

    const auto statics = runIndexed<staticrace::StaticCellResult>(
        rc_cells.size(), jobs, [&](size_t i) {
            ScopedSpan span(spans, "staticrace.cell",
                            racecheck::cellName(rc_cells[i]));
            return staticrace::runStaticraceCell(
                c.racecheck, rc_cells[i], cellSeed(c.racecheck.seed, i));
        });
    staticrace::SoundnessResult soundness;
    {
        ScopedSpan span(spans, "staticrace.soundness");
        soundness =
            staticrace::evaluateSoundness(c.racecheck, statics, dynamics);
    }

    repair::AdvisorResult advisor;
    {
        ScopedSpan span(spans, "repair.advisor", "cc");
        advisor = repair::runAdvisor(c.advisor);
    }

    const auto campaign_cells = chaos::campaignCells(c.campaign);
    const auto outcomes = runIndexed<chaos::CellOutcome>(
        campaign_cells.size(), jobs, [&](size_t i) {
            ScopedSpan span(spans, "chaos.campaign_cell");
            return chaos::runCampaignCell(c.campaign, campaign_cells[i],
                                          cellSeed(c.campaign.seed, i),
                                          nullptr);
        });

    checkPass(result, dynamics, gate, soundness, advisor, outcomes);

    const auto list = sliceSpans(recorder.spans(), first_span);
    const auto total = totalSeconds(list);

    u64 checks = 0, pairs = 0, race_sites = 0, rejects = 0;
    for (const auto& cell : dynamics) {
        checks += cell.checks;
        pairs += cell.total_pairs;
        race_sites += cell.races.size();
        rejects += cell.output_valid ? 0 : 1;
    }
    const double rc_cells_s = secondsOf(total, "racecheck.cell");
    m.set("racecheck.host_s", rc_cells_s + secondsOf(total, "racecheck.gate"),
          "s");
    m.set("racecheck.ns_per_check", checks ? rc_cells_s * 1e9 / checks : 0.0,
          "ns");
    m.set("racecheck.slowest_cell_s", longestSeconds(list, "racecheck.cell"),
          "s");
    m.set("racecheck.checks", checks, "count", true);
    m.set("racecheck.pairs", pairs, "count", true);
    m.set("racecheck.race_sites", race_sites, "count", true);

    u64 samples = 0, sites = 0, affine = 0, may_pairs = 0, predicted = 0;
    for (const auto& cell : statics) {
        samples += cell.samples;
        sites += cell.sites;
        affine += cell.affine_sites;
        may_pairs += cell.pairs.size();
    }
    for (const auto& row : soundness.rows)
        predicted += row.predicted_only;
    m.set("staticrace.host_s", secondsOf(total, "staticrace.cell"), "s");
    m.set("staticrace.soundness_s", secondsOf(total, "staticrace.soundness"), "s");
    m.set("staticrace.samples", samples, "count", true);
    m.set("staticrace.affine_frac", sites ? double(affine) / sites : 0.0,
          "ratio", true);
    m.set("staticrace.may_pairs", may_pairs, "count", true);
    m.set("staticrace.predicted_only", predicted, "count", true);

    u64 verified = 0;
    for (const auto& row : advisor.rows)
        verified += row.verified_silent ? 1 : 0;
    m.set("repair.host_s", secondsOf(total, "repair.advisor"), "s");
    m.set("repair.rounds", advisor.fixpoint_rounds, "count", true);
    m.set("repair.sites", advisor.rows.size(), "count", true);
    m.set("repair.verified_frac",
          advisor.rows.empty() ? 0.0 : double(verified) / advisor.rows.size(),
          "ratio", true);

    m.set("chaos.oracle_rejects", rejects, "count", true);
    m.set("chaos.campaign_s", secondsOf(total, "chaos.campaign_cell"), "s");
    m.set("chaos.campaign_cells", outcomes.size(), "count", true);
    m.set("chaos.violations", chaos::countViolations(outcomes), "count",
          true);

    PassOutput out;
    out.racecheck_json = racecheck::renderRacecheckJson(dynamics);
    out.staticrace_json =
        staticrace::renderStaticraceJson(statics, &soundness);
    out.repair_json = repair::renderRepairJson(advisor);
    return out;
}

void
checkSame(RunResult& result, const PassOutput& reference,
          const PassOutput& pass, const std::string& what)
{
    if (pass.racecheck_json != reference.racecheck_json)
        result.fail(what + ": racecheck results differ from the first pass");
    if (pass.staticrace_json != reference.staticrace_json)
        result.fail(what +
                    ": staticrace results differ from the first pass");
    if (pass.repair_json != reference.repair_json)
        result.fail(what + ": repair report differs from the first pass");
}

}  // namespace

RunResult
runRaceGate(const RunOptions& options)
{
    RunResult result;
    // The oracle runs inside the racecheck and campaign cells, where the
    // benchmark cannot time it on its own.
    result.unmeasured = {"simt",    "algos", "harness",
                         "serve",   "fidelity", "chaos.oracle_s"};
    const Configs configs = makeConfigs(options);
    SpanRecorder recorder;
    SpanRecorder* spans = options.trace ? &recorder : nullptr;

    // Set-up: the process-global site registry (populated once per
    // process by design), then the inputs, rebuilt before every pass.
    const auto registry_start = Clock::now();
    {
        ScopedSpan span(spans, "racecheck.populate_sites");
        racecheck::populateSiteRegistry();
    }
    const double registry_s = secondsSince(registry_start);
    result.details["setup.registry_s"] = jsonNumber(registry_s);

    InputSetup setup;
    CompletionClock clock;
    std::vector<double> pass_s, pass_rps, traced_s;
    std::vector<MetricSet> layer_passes;
    PassOutput reference;

    const u32 passes = passesFor(options.seconds, kSecondsPerPass);
    for (u32 pass = 0; pass < passes; ++pass) {
        setup.rebuild([&] { buildInputs(configs, spans); });
        const u64 attempted_before = result.attempted;
        const auto start = Clock::now();
        const PassOutput out =
            untracedPass(configs, result, options.trace ? nullptr : &clock);
        if (pass == 0)
            result.metrics.set("peak_rss_mb", peakRssMb(), "MiB");
        const double s = secondsSince(start);
        pass_s.push_back(s);
        pass_rps.push_back((result.attempted - attempted_before) / s);
        if (pass == 0)
            reference = out;
        else
            checkSame(result, reference, out, "pass " + std::to_string(pass));

        if (options.trace) {
            MetricSet layers;
            const auto traced_start = Clock::now();
            const PassOutput traced =
                tracedPass(configs, result, recorder, layers);
            traced_s.push_back(secondsSince(traced_start));
            checkSame(result, reference, traced, "traced replay");
            layer_passes.push_back(layers);
        }
        setup.checkNoBuilds(result);
    }

    result.metrics.set("setup_s", registry_s + setup.medianSeconds(), "s");
    result.metrics.set("wall_s", medianOrZero(pass_s), "s");
    result.details["wall_s.passes"] = joinNumbers(pass_s);
    result.metrics.set("max_rps", medianOrZero(pass_rps), "req/s");
    if (!options.trace)
        reportLatency(result, clock.passesMs());
    result.details["passes"] = std::to_string(pass_s.size());

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
                           medianOrZero(traced_s) / medianOrZero(pass_s) -
                               1.0,
                           "ratio");
        result.spans = recorder.spans();
    }
    return result;
}

}  // namespace pipebench
