/**
 * @file
 * Host wall-clock spans recorded by the benchmark around its calls into
 * eclsim's modules.
 *
 * A span has a layer key ("algos.cc", "simt.engine", "graph.get", ...),
 * a free-form label, start/end on std::chrono::steady_clock, the
 * recording thread, and the span that was open on that thread when it
 * began (its parent). Spans are kept in memory and written out as a
 * Chrome trace when the run ends.
 *
 * A layer's self time is the sum, over its spans, of each span's
 * duration minus the part covered by its direct children — so a
 * "harness.cell" span that wraps engine construction, the algorithm
 * run and the oracle check is charged only for what lies between them.
 */
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace pipebench {

using eclsim::i64;
using eclsim::u32;
using eclsim::u64;

/** One closed (or still open, end_ns == 0) span. */
struct Span
{
    std::string layer;
    std::string label;
    u64 start_ns = 0;
    u64 end_ns = 0;
    i64 parent = -1;  ///< index into the recorder's span list, -1 = root
    u32 thread = 0;   ///< dense per-recorder thread number
};

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    /** Open a span on the calling thread; returns its index. */
    size_t begin(std::string layer, std::string label);

    /** Close span `index`, which must be the innermost open span of
     *  the calling thread. */
    void end(size_t index);

    /** Record an already-finished root span with explicit times, for
     *  work that starts on one thread and ends on another (a request
     *  sent by one client thread and answered on another). */
    void record(std::string layer, std::string label, u64 start_ns,
                u64 end_ns);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Number of spans recorded so far. */
    size_t size() const;

    /** Nanoseconds since the recorder was created. */
    u64 nowNs() const;

  private:
    u32 threadNumber();

    const u64 origin_ns_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<u64, u32> threads_;  ///< hashed thread id -> dense number
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder* recorder, std::string layer,
               std::string label = {});
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* recorder_;
    size_t index_ = 0;
};

/**
 * The spans recorded from index `from` on, with parents re-based into
 * the slice (a parent before `from` becomes -1): the spans of one pass
 * of a run that records several passes into one recorder.
 */
std::vector<Span> sliceSpans(const std::vector<Span>& spans, size_t from);

/** Self seconds per layer (see file comment); open spans are skipped. */
std::map<std::string, double> selfSeconds(const std::vector<Span>& spans);

/** Inclusive seconds per layer: the plain sum of span durations. */
std::map<std::string, double> totalSeconds(const std::vector<Span>& spans);

/** The seconds of one layer in a selfSeconds/totalSeconds map (0 when
 *  the layer recorded no span). */
double secondsOf(const std::map<std::string, double>& seconds,
                 const std::string& layer);

/** Longest single span of a layer, in seconds (0 when none). */
double longestSeconds(const std::vector<Span>& spans,
                      const std::string& layer);

/** Number of closed spans of a layer. */
u64 spanCount(const std::vector<Span>& spans, const std::string& layer);

/** Render the spans as Chrome-trace JSON ("X" complete events). */
std::string renderChromeTrace(const std::vector<Span>& spans);

}  // namespace pipebench
