#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>

#include "metrics.hpp"

namespace pipebench {

namespace {

u64
steadyNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The innermost open span of this thread, per recorder. */
struct OpenSpans
{
    const SpanRecorder* owner = nullptr;
    std::vector<size_t> stack;
};
thread_local OpenSpans t_open;

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(steadyNs()) {}

u64
SpanRecorder::nowNs() const
{
    return steadyNs() - origin_ns_;
}

u32
SpanRecorder::threadNumber()
{
    const u64 key = std::hash<std::thread::id>{}(std::this_thread::get_id());
    const auto [it, inserted] =
        threads_.emplace(key, static_cast<u32>(threads_.size()));
    return it->second;
}

size_t
SpanRecorder::begin(std::string layer, std::string label)
{
    if (t_open.owner != this) {
        t_open.owner = this;
        t_open.stack.clear();
    }
    Span span;
    span.layer = std::move(layer);
    span.label = std::move(label);
    span.parent = t_open.stack.empty()
                      ? -1
                      : static_cast<i64>(t_open.stack.back());
    size_t index = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        span.thread = threadNumber();
        span.start_ns = nowNs();
        index = spans_.size();
        spans_.push_back(std::move(span));
    }
    t_open.stack.push_back(index);
    return index;
}

void
SpanRecorder::end(size_t index)
{
    if (t_open.owner != this || t_open.stack.empty() ||
        t_open.stack.back() != index)
        throw std::logic_error("span closed out of order");
    t_open.stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end_ns = std::max<u64>(nowNs(), spans_[index].start_ns + 1);
}

void
SpanRecorder::record(std::string layer, std::string label, u64 start_ns,
                     u64 end_ns)
{
    Span span;
    span.layer = std::move(layer);
    span.label = std::move(label);
    span.start_ns = start_ns;
    span.end_ns = std::max(end_ns, start_ns + 1);
    std::lock_guard<std::mutex> lock(mutex_);
    span.thread = threadNumber();
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string layer,
                       std::string label)
    : recorder_(recorder)
{
    if (recorder_ != nullptr)
        index_ = recorder_->begin(std::move(layer), std::move(label));
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_ != nullptr)
        recorder_->end(index_);
}

namespace {

double
durationSeconds(const Span& span)
{
    return span.end_ns > span.start_ns
               ? static_cast<double>(span.end_ns - span.start_ns) * 1e-9
               : 0.0;
}

bool
closed(const Span& span)
{
    return span.end_ns != 0;
}

}  // namespace

std::vector<Span>
sliceSpans(const std::vector<Span>& spans, size_t from)
{
    std::vector<Span> out;
    for (size_t i = from; i < spans.size(); ++i) {
        Span span = spans[i];
        span.parent = span.parent >= static_cast<i64>(from)
                          ? span.parent - static_cast<i64>(from)
                          : -1;
        out.push_back(std::move(span));
    }
    return out;
}

std::map<std::string, double>
selfSeconds(const std::vector<Span>& spans)
{
    std::vector<double> child_seconds(spans.size(), 0.0);
    for (const Span& span : spans) {
        if (!closed(span) || span.parent < 0)
            continue;
        const auto parent = static_cast<size_t>(span.parent);
        if (parent >= spans.size())
            throw std::invalid_argument("span parent out of range");
        child_seconds[parent] += durationSeconds(span);
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (!closed(spans[i]))
            continue;
        out[spans[i].layer] +=
            std::max(0.0, durationSeconds(spans[i]) - child_seconds[i]);
    }
    return out;
}

std::map<std::string, double>
totalSeconds(const std::vector<Span>& spans)
{
    std::map<std::string, double> out;
    for (const Span& span : spans)
        if (closed(span))
            out[span.layer] += durationSeconds(span);
    return out;
}

double
secondsOf(const std::map<std::string, double>& seconds,
          const std::string& layer)
{
    const auto it = seconds.find(layer);
    return it == seconds.end() ? 0.0 : it->second;
}

double
longestSeconds(const std::vector<Span>& spans, const std::string& layer)
{
    double longest = 0.0;
    for (const Span& span : spans)
        if (closed(span) && span.layer == layer)
            longest = std::max(longest, durationSeconds(span));
    return longest;
}

u64
spanCount(const std::vector<Span>& spans, const std::string& layer)
{
    return static_cast<u64>(
        std::count_if(spans.begin(), spans.end(), [&](const Span& span) {
            return closed(span) && span.layer == layer;
        }));
}

std::string
renderChromeTrace(const std::vector<Span>& spans)
{
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    for (const Span& span : spans) {
        if (!closed(span))
            continue;
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" +
               std::to_string(span.thread) +
               ",\"name\":" + jsonString(span.layer) +
               ",\"ts\":" + jsonNumber(span.start_ns / 1000.0) +
               ",\"dur\":" +
               jsonNumber((span.end_ns - span.start_ns) / 1000.0) +
               ",\"args\":{\"label\":" + jsonString(span.label) + "}}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

}  // namespace pipebench
