#include "harness.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace k2perf {

namespace {

double
statusKb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, n, key) == 0)
            return std::strtod(line.c_str() + n, nullptr);
    }
    return 0;
}

} // namespace

wl::Workload
guarded(sim::Engine &eng, wl::Workload w)
{
    return [&eng, w = std::move(w)](k2::kern::Thread &t) {
        return capped(eng, w(t));
    };
}

Spans::Scope::Scope(Spans &s, const char *name)
{
    if (!s.on_)
        return;
    s_ = &s;
    idx_ = s.spans_.size();
    s.spans_.push_back({name, s.op_, s.open_, hostNs(), 0});
    s.open_ = static_cast<std::int32_t>(idx_);
}

Spans::Scope::~Scope()
{
    if (!s_)
        return;
    Span &sp = s_->spans_[idx_];
    sp.t1 = hostNs();
    s_->open_ = sp.parent;
}

void
RegTotals::add(const obs::MetricsSnapshot &delta)
{
    using Kind = obs::MetricValue::Kind;
    for (const auto &[name, v] : delta.values()) {
        Entry &e = m[name];
        if (v.kind == Kind::Gauge) {
            e.value += v.value;
        } else {
            e.count += static_cast<double>(v.count);
            e.sum += v.sum;
        }
    }
}

void
RegTotals::notePool(const obs::MetricsSnapshot &snap)
{
    if (const obs::MetricValue *v = snap.find("sim.pool_capacity"))
        poolCapacity = std::max(poolCapacity, v->value);
}

double
RegTotals::get(const std::string &name) const
{
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second.count + it->second.value;
}

double
RegTotals::sumField(double Entry::*field, const std::string &prefix,
                    const std::string &suffix) const
{
    double s = 0;
    for (auto it = m.lower_bound(prefix);
         it != m.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const std::string &n = it->first;
        if (n.size() >= suffix.size() &&
            n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0)
            s += it->second.*field;
    }
    return s;
}

double
RegTotals::sumWhere(const std::string &prefix,
                    const std::string &suffix) const
{
    return sumField(&Entry::count, prefix, suffix) +
           sumField(&Entry::value, prefix, suffix);
}

double
RegTotals::sumOfSums(const std::string &prefix,
                     const std::string &suffix) const
{
    return sumField(&Entry::sum, prefix, suffix);
}

std::uint64_t
RegTotals::digest() const
{
    std::uint64_t h = fnv1a("");
    char buf[96];
    for (const auto &[name, e] : m) {
        std::snprintf(buf, sizeof buf, "=%.17g/%.17g/%.17g;", e.count,
                      e.value, e.sum);
        h = fnv1a(name + buf, h);
    }
    std::snprintf(buf, sizeof buf, "pool=%.17g", poolCapacity);
    return fnv1a(buf, h);
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
rssKb()
{
    return statusKb("VmRSS:");
}

double
peakRssKb()
{
    return statusKb("VmHWM:");
}

} // namespace k2perf
