/**
 * @file
 * serve_replay: a seeded, Zipf-skewed replay of simulate requests
 * against freshly started in-process serve::Servers on loopback.
 *
 * The request mix is bench/serve_loadgen's: its eight (graph,
 * algorithm) cells on Titan V and A100, divisor 1024, two reps, seeds
 * stepping every sixteen requests from the workload seed, ranked with
 * Zipf skew s = 1, the schedule drawn from its default seed. Only the
 * population is larger (1024 distinct requests, not 64), so first
 * sightings keep a miss that runs a harness cell coming for the whole
 * replay: about two in five requests of the cold phase, one in six of
 * the mix phase.
 *
 * Each pass starts a daemon and sends it, on min(4, nproc) client
 * connections, three phases of the schedule, the same in every pass:
 *   - cold: the first kColdRequests entries, closed-loop (each
 *     connection sends its next request when the previous one is
 *     answered); wall_s is the median time to serve them.
 *   - nominal: the entries that follow, open-loop: request i is due at
 *     i / kNominalRps seconds and its latency is timed from that due
 *     time, so a stall is charged to every request queued behind it,
 *     and a request that finds every connection busy waits at the
 *     client (the generator runs late). p50_ms and p99_ms are the
 *     medians over the passes of each nominal phase's median and tail.
 *   - mix: the next kMixRequests entries, closed-loop; max_rps is the
 *     median rate they are served at.
 */
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/rng.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace pipebench {

using namespace eclsim;

namespace {

/** serve_loadgen's cells and GPUs (bench/serve_loadgen.cpp). */
const std::pair<const char*, harness::Algo> kCells[] = {
    {"rmat16.sym", harness::Algo::kCc},
    {"internet", harness::Algo::kGc},
    {"amazon0601", harness::Algo::kMis},
    {"citationCiteseer", harness::Algo::kMst},
    {"star", harness::Algo::kScc},
    {"web-Google", harness::Algo::kScc},
    {"internet", harness::Algo::kCc},
    {"rmat16.sym", harness::Algo::kMis},
};
const char* const kGpus[] = {"Titan V", "A100"};
constexpr size_t kPopulation = 1024;
constexpr double kZipfS = 1.0;
constexpr u32 kDivisor = 1024;
constexpr u32 kReps = 2;

/** Requests of the cold phase. */
constexpr size_t kColdRequests = 600;
/** Requests of the closed-loop mix phase. */
constexpr size_t kMixRequests = 1200;
/** Timed passes, each on a freshly started daemon. The nominal phase's
 *  serve-layer figures are reported from the pass at kReportPass. */
constexpr u32 kPasses = 7;
constexpr u32 kReportPass = 3;
/** The open-loop rate of the nominal phase: low enough that a request
 *  seldom finds all four connections waiting on misses, so queues stay
 *  short. The nominal phases together last kNominalShare of --seconds
 *  at this rate. */
constexpr double kNominalRps = 150.0;
constexpr double kNominalShare = 0.5;
/** Requests whose responses are re-computed by a fresh serial service
 *  and compared byte for byte. */
constexpr size_t kVerifySample = 48;
/** Timed daemon starts before every pass (setup_s samples). */
constexpr u32 kStartsPerPass = 15;
/** serve_loadgen's default --seed, which draws its schedule. */
constexpr u64 kScheduleSeed = 12345;

/** serve_loadgen's population, grown to kPopulation: rank -> request. */
serve::Request
requestAt(size_t rank, u64 seed)
{
    constexpr size_t cells = std::size(kCells);
    constexpr size_t per_seed = cells * std::size(kGpus);
    serve::Request request;
    request.graph = kCells[rank % cells].first;
    request.algo = kCells[rank % cells].second;
    request.gpu = kGpus[(rank / cells) % std::size(kGpus)];
    request.seed = seed + rank / per_seed;
    request.reps = kReps;
    request.divisor = kDivisor;
    return request;
}

std::string
wireLine(const serve::Request& request, const std::string& id)
{
    return std::string("{\"id\":") + serve::quoteJson(id) +
           ",\"graph\":" + serve::quoteJson(request.graph) +
           ",\"algo\":\"" + harness::algoName(request.algo) +
           "\",\"gpu\":" + serve::quoteJson(request.gpu) +
           ",\"seed\":" + std::to_string(request.seed) +
           ",\"reps\":" + std::to_string(request.reps) +
           ",\"divisor\":" + std::to_string(request.divisor) + "}";
}

/** Seeded Zipf(s) draws over [0, n) by inverse-CDF lookup. */
class ZipfSampler
{
  public:
    ZipfSampler(size_t n, double s, u64 seed) : cdf_(n), state_(seed)
    {
        double total = 0.0;
        for (size_t rank = 0; rank < n; ++rank) {
            total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
            cdf_[rank] = total;
        }
    }

    size_t
    next()
    {
        state_ += 0x9e3779b97f4a7c15ull;
        const double u = static_cast<double>(hash64(state_) >> 11) /
                         9007199254740992.0 * cdf_.back();
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        return std::min(rank, cdf_.size() - 1);
    }

  private:
    std::vector<double> cdf_;
    u64 state_;
};

/** How long a client thread polls for a response before it blocks, in
 *  the open-loop phase. */
constexpr auto kSpinRecv = std::chrono::microseconds(1000);
/** How long before a request's due time its thread stops sleeping and
 *  polls the clock, so requests leave on time. */
constexpr auto kSpinSend = std::chrono::microseconds(100);

/** One loopback connection; the socket closes with the object. */
class Connection
{
  public:
    explicit Connection(u16 port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error(std::string("socket(): ") +
                                     std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            throw std::runtime_error(std::string("connect(): ") +
                                     std::strerror(errno));
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /** Send one framed line; false on a broken connection. */
    bool
    send(const std::string& line)
    {
        const std::string framed = line + "\n";
        size_t sent = 0;
        while (sent < framed.size()) {
            const ssize_t n = ::send(fd_, framed.data() + sent,
                                     framed.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            sent += static_cast<size_t>(n);
        }
        return true;
    }

    /**
     * Receive one line; false when the daemon closed the connection.
     * Polls without blocking for up to `spin` first: a hit answers well
     * within kSpinRecv, and a thread that never sleeps is never woken,
     * so the hit's measured latency does not include the client's own
     * wake-up. The closed-loop phases do not poll: there the polling
     * threads would take processors from the daemon's workers.
     */
    bool
    receive(std::string& line, std::chrono::microseconds spin)
    {
        const auto spin_until = Clock::now() + spin;
        for (;;) {
            const size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                line = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return true;
            }
            char chunk[8192];
            const bool spin = Clock::now() < spin_until;
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk),
                                     spin ? MSG_DONTWAIT : 0);
            if (n < 0 && (errno == EINTR ||
                          (spin && (errno == EAGAIN || errno == EWOULDBLOCK))))
                continue;
            if (n <= 0)
                return false;
            buffer_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** What happened to one request of a phase. */
struct Outcome
{
    size_t rank = 0;
    u64 due_ns = 0;   ///< relative to the phase start
    u64 sent_ns = 0;
    u64 recv_ns = 0;
    bool ok = false;
    std::string cache;     ///< "hit" | "miss" | "coalesced" when ok
    std::string fragment;  ///< the deterministic result bytes

    double latencyMs() const { return (recv_ns - due_ns) * 1e-6; }
    double lateMs() const { return (sent_ns - due_ns) * 1e-6; }
};

/** A disposition field of a response line ("" when absent). */
std::string
fieldOf(const std::string& response, const std::string& field)
{
    const std::string marker = "\"" + field + "\":\"";
    const size_t at = response.find(marker);
    if (at == std::string::npos)
        return {};
    const size_t from = at + marker.size();
    const size_t to = response.find('"', from);
    return to == std::string::npos ? std::string()
                                   : response.substr(from, to - from);
}

/**
 * Replay `ranks` through a pool of `connections` client connections to
 * `port`; the next free connection takes the next request in order.
 * With a positive `rate` the replay is open-loop: request i is due at
 * i / rate, and when every connection is busy the request waits at the
 * client and that wait counts in its latency. With rate 0 it is
 * closed-loop: every request is due at the start and leaves as soon as
 * a connection is free. Blocks until every response is in.
 */
std::vector<Outcome>
replay(u16 port, const std::vector<size_t>& ranks, u64 seed, double rate,
       u32 connections, SpanRecorder* spans)
{
    const size_t n = ranks.size();
    std::vector<Outcome> out(n);
    std::vector<std::string> lines(n);
    for (size_t i = 0; i < n; ++i) {
        out[i].rank = ranks[i];
        out[i].due_ns =
            rate > 0.0 ? static_cast<u64>(std::llround(i * 1e9 / rate)) : 0;
        lines[i] = wireLine(requestAt(ranks[i], seed), "r" + std::to_string(i));
    }
    const auto spin =
        rate > 0.0 ? kSpinRecv : std::chrono::microseconds(0);
    std::vector<std::unique_ptr<Connection>> conns;
    for (u32 c = 0; c < connections; ++c)
        conns.push_back(std::make_unique<Connection>(port));

    constexpr auto kLead = std::chrono::milliseconds(10);
    const u64 span_origin =
        spans ? spans->nowNs() + static_cast<u64>(kLead.count()) * 1'000'000
              : 0;
    const auto start = Clock::now() + kLead;
    const auto sinceStart = [start] {
        return static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
    };
    std::atomic<size_t> next{0};
    std::vector<std::string> errors(connections);
    std::vector<std::thread> threads;
    for (u32 c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            std::string response;
            for (size_t i = next++; i < n; i = next++) {
                Outcome& o = out[i];
                const auto due = start + std::chrono::nanoseconds(o.due_ns);
                std::this_thread::sleep_until(due - kSpinSend);
                while (Clock::now() < due) {
                }
                o.sent_ns = sinceStart();
                if (!conns[c]->send(lines[i]) ||
                    !conns[c]->receive(response, spin)) {
                    errors[c] = "connection " + std::to_string(c) +
                                " closed before request " +
                                std::to_string(i) + " was answered";
                    return;
                }
                o.recv_ns = sinceStart();
                o.ok = fieldOf(response, "status") == "ok";
                o.cache = fieldOf(response, "cache");
                o.fragment = serve::extractResultFragment(response);
                if (spans)
                    spans->record("serve.request", o.cache,
                                  span_origin + o.sent_ns,
                                  span_origin + o.recv_ns);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (const std::string& error : errors)
        if (!error.empty())
            throw std::runtime_error(error);
    return out;
}

/** The next `count` schedule entries. */
std::vector<size_t>
draw(ZipfSampler& sampler, size_t count)
{
    std::vector<size_t> ranks(count);
    for (size_t& rank : ranks)
        rank = sampler.next();
    return ranks;
}

double
phaseWallSeconds(const std::vector<Outcome>& outcomes)
{
    u64 last = 0;
    for (const Outcome& o : outcomes)
        last = std::max(last, o.recv_ns);
    return last * 1e-9;
}

/** Count requests and non-ok responses; remember every fragment. */
void
checkPhase(RunResult& result, const std::vector<Outcome>& outcomes,
           std::map<size_t, std::set<std::string>>& fragments)
{
    for (const Outcome& o : outcomes) {
        ++result.attempted;
        if (!o.ok || o.fragment.empty()) {
            result.fail("request for rank " + std::to_string(o.rank) +
                        " was not answered ok");
            continue;
        }
        fragments[o.rank].insert(o.fragment);
    }
}

/** A cold service plus its loopback front end. */
struct Daemon
{
    std::unique_ptr<serve::Service> service;
    std::unique_ptr<serve::Server> server;

    explicit Daemon(u32 jobs)
    {
        serve::ServeOptions options;  // eclsim_served's defaults
        options.jobs = jobs;
        service = std::make_unique<serve::Service>(options);
        server = std::make_unique<serve::Server>(*service, 0);
    }
    ~Daemon()
    {
        if (server)
            server->drain();
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;
};

/** Re-compute a sample of the served requests on a fresh serial
 *  service and compare result bytes. */
void
verifySample(RunResult& result, u64 seed,
             const std::map<size_t, std::set<std::string>>& fragments)
{
    serve::Service serial(serve::ServeOptions{.jobs = 1});
    serve::ServiceHandle handle(serial);
    const size_t stride = std::max<size_t>(1, fragments.size() / kVerifySample);
    size_t k = 0, compared = 0;
    for (const auto& [rank, seen] : fragments) {
        if (k++ % stride != 0)
            continue;
        const std::string expected = serve::extractResultFragment(
            handle.call(requestAt(rank, seed)).encode());
        ++result.attempted;
        ++compared;
        for (const std::string& fragment : seen)
            if (fragment != expected) {
                result.fail("rank " + std::to_string(rank) +
                            ": response bytes differ from a serial service");
                break;
            }
    }
    result.details["verified_requests"] = std::to_string(compared);
}

/** Per-layer serve metrics of one phase. */
void
serveLayerMetrics(MetricSet& m, const std::vector<Outcome>& outcomes,
                  const serve::ServiceStats& stats)
{
    std::vector<double> hit_ms, miss_ms, late_ms;
    u64 coalesced = 0;
    for (const Outcome& o : outcomes) {
        late_ms.push_back(o.lateMs());
        if (o.cache == "hit")
            hit_ms.push_back(o.latencyMs());
        else if (o.cache == "miss")
            miss_ms.push_back(o.latencyMs());
        else if (o.cache == "coalesced")
            ++coalesced;
    }
    m.set("serve.hit_p50_ms", medianOrZero(hit_ms), "ms");
    m.set("serve.miss_p50_ms", medianOrZero(miss_ms), "ms");
    // The phase's share answered without running a cell.
    m.set("serve.hit_rate",
          outcomes.empty()
              ? 0.0
              : double(hit_ms.size() + coalesced) / outcomes.size(),
          "ratio");
    m.set("serve.executed", stats.executed, "count");
    m.set("serve.coalesced", stats.coalesced, "count");
    m.set("serve.rejected", stats.rejected, "count");
    m.set("serve.queue_peak", stats.queue_peak, "count");
    m.set("serve.gen_late_p99_ms", tailPercentile(late_ms).value, "ms");
}

}  // namespace

RunResult
runServeReplay(const RunOptions& options)
{
    RunResult result;
    // Cells run inside the service, out of reach of a span in the
    // benchmark's code; so do the input builds on misses.
    result.unmeasured = {"simt",      "algos",      "harness", "racecheck",
                         "staticrace", "repair",    "fidelity", "chaos",
                         "graph.build_s"};
    const u32 connections = options.jobs;
    SpanRecorder recorder;
    SpanRecorder* spans = options.trace ? &recorder : nullptr;

    // Set-up: daemon start (service pool + listening socket), timed
    // kStartsPerPass times before every pass so the samples are spread
    // over the run; each daemon is shut down outside the timing.
    std::vector<double> starts;
    const auto timeStarts = [&] {
        for (u32 r = 0; r < kStartsPerPass; ++r) {
            const auto start = Clock::now();
            std::unique_ptr<Daemon> daemon;
            {
                ScopedSpan span(spans, "serve.start");
                daemon = std::make_unique<Daemon>(options.jobs);
            }
            starts.push_back(secondsSince(start));
        }
    };

    // The schedule (which ranks are asked, in what order) is the same
    // for every workload seed, so every run meets the same sequence of
    // hits and first sightings; a per-seed schedule changes which cells
    // miss, and with them the work. The workload seed sets every
    // request's simulation seed, so each seed still sends its own
    // requests and gets its own cache keys and results.
    ZipfSampler sampler(kPopulation, kZipfS, kScheduleSeed);
    const std::vector<size_t> cold_ranks = draw(sampler, kColdRequests);
    const std::vector<size_t> nominal_ranks = draw(
        sampler, static_cast<size_t>(std::llround(
                     kNominalRps * kNominalShare * options.seconds /
                     kPasses)));
    const std::vector<size_t> mix_ranks = draw(sampler, kMixRequests);
    std::map<size_t, std::set<std::string>> fragments;
    const auto run = [&](Daemon& daemon, const std::vector<size_t>& ranks,
                         double rate, SpanRecorder* rec) {
        auto outcomes = replay(daemon.server->port(), ranks, options.seed,
                               rate, connections, rec);
        checkPhase(result, outcomes, fragments);
        return outcomes;
    };

    // Every pass times its set-up starts, then starts a daemon and sends
    // it the cold phase closed-loop (a wall_s sample), the nominal phase
    // open-loop at the nominal rate (p50_ms and p99_ms samples) and the
    // mix phase closed-loop (a max_rps sample). Spreading each metric's
    // samples over the run keeps a passing burst of load from other
    // processes out of its median.
    std::vector<double> cold_s, mix_rps;
    std::vector<std::vector<double>> nominal_ms;
    std::unique_ptr<Daemon> daemon;
    for (u32 pass = 0; pass < kPasses; ++pass) {
        daemon.reset();
        timeStarts();
        daemon = std::make_unique<Daemon>(options.jobs);
        cold_s.push_back(
            phaseWallSeconds(run(*daemon, cold_ranks, 0.0, nullptr)));
        const auto outcomes =
            run(*daemon, nominal_ranks, kNominalRps, nullptr);
        nominal_ms.emplace_back();
        for (const Outcome& o : outcomes)
            nominal_ms.back().push_back(o.latencyMs());
        if (pass == kReportPass) {
            MetricSet layers;
            serveLayerMetrics(layers, outcomes, daemon->service->stats());
            for (const Metric& m : layers.all())
                result.details["nominal." + m.name] = jsonNumber(m.value);
        }
        mix_rps.push_back(
            mix_ranks.size() /
            phaseWallSeconds(run(*daemon, mix_ranks, 0.0, nullptr)));
        if (pass == 0)
            result.metrics.set("peak_rss_mb", peakRssMb(), "MiB");
    }
    daemon->server->drain();
    const serve::ServiceStats stats = daemon->service->stats();
    daemon.reset();

    result.metrics.set("setup_s", medianOrZero(starts), "s");
    const double wall_s = medianOrZero(cold_s);
    result.metrics.set("wall_s", wall_s, "s");
    result.details["wall_s.passes"] = joinNumbers(cold_s);
    result.metrics.set("max_rps", medianOrZero(mix_rps), "req/s");
    result.details["max_rps.passes"] = joinNumbers(mix_rps);
    reportLatency(result, nominal_ms);
    result.details["nominal_rps"] = jsonNumber(kNominalRps);
    result.details["served.executed"] = std::to_string(stats.executed);
    result.details["served.hit_rate"] = jsonNumber(stats.hitRate());

    if (options.trace) {
        // The cold and nominal phases again, on a new cold daemon, with
        // every request under a span.
        daemon = std::make_unique<Daemon>(options.jobs);
        double traced_cold_s = 0.0;
        {
            ScopedSpan span(spans, "serve.cold");
            traced_cold_s =
                phaseWallSeconds(run(*daemon, cold_ranks, 0.0, spans));
        }
        std::vector<Outcome> traced;
        {
            ScopedSpan span(spans, "serve.nominal");
            traced = run(*daemon, nominal_ranks, kNominalRps, spans);
        }
        daemon->server->drain();
        serveLayerMetrics(result.metrics, traced, daemon->service->stats());
        result.metrics.set("graph.built",
                           daemon->service->catalog().misses(), "count");
        result.metrics.set("graph.catalog_evictions",
                           daemon->service->catalog().evictions(), "count");
        result.metrics.set("trace.overhead_frac",
                           traced_cold_s / wall_s - 1.0, "ratio");
        daemon.reset();
    }

    {
        ScopedSpan span(spans, "serve.verify");
        verifySample(result, options.seed, fragments);
    }
    if (options.trace)
        result.spans = recorder.spans();
    return result;
}

}  // namespace pipebench
