#include "metrics.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "core/stats.hpp"

namespace pipebench {

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

void
MetricSet::set(const std::string& name, double value,
               const std::string& unit, bool exact)
{
    if (!validMetricName(name))
        throw std::invalid_argument("invalid metric name '" + name + "'");
    if (!std::isfinite(value))
        throw std::invalid_argument("metric '" + name + "' is not finite");
    for (Metric& m : metrics_) {
        if (m.name == name) {
            m = {name, value, unit, exact};
            return;
        }
    }
    metrics_.push_back({name, value, unit, exact});
}

const Metric*
MetricSet::find(const std::string& name) const
{
    for (const Metric& m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

MetricSet
medianOf(const std::vector<MetricSet>& passes)
{
    MetricSet out;
    if (passes.empty())
        return out;
    for (const Metric& first : passes.front().all()) {
        std::vector<double> values;
        for (const MetricSet& pass : passes) {
            const Metric* m = pass.find(first.name);
            if (m == nullptr)
                throw std::invalid_argument("metric '" + first.name +
                                            "' missing from a pass");
            values.push_back(m->value);
        }
        out.set(first.name, eclsim::stats::median(values), first.unit,
                first.exact);
    }
    return out;
}

Tail
tailPercentile(const std::vector<double>& samples)
{
    static constexpr std::array<double, 6> kLadder = {99.9, 99.0, 95.0,
                                                      90.0, 75.0, 50.0};
    Tail tail;
    tail.count = samples.size();
    tail.percentile = 50.0;
    for (double p : kLadder) {
        // Integer form of floor(n * (100 - p) / 100) >= 10, in tenths of
        // a percent so 99.9 is exact.
        const u64 tenths = static_cast<u64>(std::lround((100.0 - p) * 10.0));
        if (samples.size() * tenths / 1000 >= 10) {
            tail.percentile = p;
            tail.qualified = true;
            break;
        }
    }
    tail.value = samples.empty()
                     ? 0.0
                     : eclsim::stats::percentile(samples, tail.percentile);
    return tail;
}

std::string
jsonNumber(double value)
{
    std::array<char, 64> buffer{};
    const auto result =
        std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
    return std::string(buffer.data(), result.ptr);
}

std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    static const char* hex = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xf];
                    out += hex[c & 0xf];
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

}  // namespace pipebench
