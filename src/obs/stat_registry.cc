#include "obs/stat_registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace moentwine {

const char *
statKindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Distribution:
        return "distribution";
    }
    return "?";
}

double
DistributionView::stddev() const
{
    if (count < 2)
        return 0.0;
    const double n = static_cast<double>(count);
    // Sample variance from the streaming moments; clamp the
    // cancellation residue so a constant stream reads exactly 0.
    const double var =
        std::max(0.0, (sumSquares - sum * sum / n) / (n - 1.0));
    return std::sqrt(var);
}

StatRegistry::Handle
StatRegistry::resolve(const std::string &name, StatKind kind)
{
    MOE_ASSERT(!name.empty(), "stat name must be non-empty");
    const auto it = index_.find(name);
    if (it != index_.end()) {
        MOE_ASSERT(slots_[it->second].kind == kind,
                   "stat '" + name + "' already registered as " +
                       statKindName(slots_[it->second].kind));
        return Handle(it->second);
    }
    Slot s;
    s.name = name;
    s.kind = kind;
    slots_.push_back(std::move(s));
    index_.emplace(name, slots_.size() - 1);
    return Handle(slots_.size() - 1);
}

StatRegistry::Handle
StatRegistry::counter(const std::string &name)
{
    return resolve(name, StatKind::Counter);
}

StatRegistry::Handle
StatRegistry::gauge(const std::string &name)
{
    return resolve(name, StatKind::Gauge);
}

StatRegistry::Handle
StatRegistry::distribution(const std::string &name)
{
    return resolve(name, StatKind::Distribution);
}

StatRegistry::Slot &
StatRegistry::slot(Handle h, StatKind kind)
{
    MOE_ASSERT(h.idx_ < slots_.size(),
               "invalid stat handle (wrong registry or never resolved)");
    Slot &s = slots_[h.idx_];
    MOE_ASSERT(s.kind == kind, "stat '" + s.name + "' is a " +
                                   statKindName(s.kind) + ", not a " +
                                   statKindName(kind));
    return s;
}

const StatRegistry::Slot &
StatRegistry::namedSlot(const std::string &name, StatKind kind) const
{
    const auto it = index_.find(name);
    MOE_ASSERT(it != index_.end(), "unknown stat '" + name + "'");
    const Slot &s = slots_[it->second];
    MOE_ASSERT(s.kind == kind, "stat '" + name + "' is a " +
                                   statKindName(s.kind) + ", not a " +
                                   statKindName(kind));
    return s;
}

StatKind
StatRegistry::kindOf(const std::string &name) const
{
    const auto it = index_.find(name);
    MOE_ASSERT(it != index_.end(), "unknown stat '" + name + "'");
    return slots_[it->second].kind;
}

std::int64_t
StatRegistry::counterValue(const std::string &name) const
{
    return namedSlot(name, StatKind::Counter).count;
}

double
StatRegistry::gaugeValue(const std::string &name) const
{
    return namedSlot(name, StatKind::Gauge).sum;
}

DistributionView
StatRegistry::distributionView(const std::string &name) const
{
    const Slot &s = namedSlot(name, StatKind::Distribution);
    DistributionView v;
    v.count = s.count;
    v.sum = s.sum;
    v.sumSquares = s.sumSquares;
    v.min = s.min;
    v.max = s.max;
    return v;
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const Slot &o : other.slots_) {
        const Handle h = resolve(o.name, o.kind);
        Slot &s = slots_[h.idx_];
        switch (o.kind) {
          case StatKind::Counter:
            s.count += o.count;
            break;
          case StatKind::Gauge:
            if (o.gaugeSet) {
                s.sum = o.sum;
                s.gaugeSet = true;
            }
            break;
          case StatKind::Distribution:
            if (o.count == 0)
                break;
            if (s.count == 0) {
                s.min = o.min;
                s.max = o.max;
            } else {
                s.min = std::min(s.min, o.min);
                s.max = std::max(s.max, o.max);
            }
            s.count += o.count;
            s.sum += o.sum;
            s.sumSquares += o.sumSquares;
            break;
        }
    }
}

StatRegistry
StatRegistry::mergedInOrder(const std::vector<StatRegistry> &parts)
{
    StatRegistry all;
    for (const StatRegistry &part : parts)
        all.merge(part);
    return all;
}

std::string
StatRegistry::toJson() const
{
    std::vector<const Slot *> ordered;
    ordered.reserve(slots_.size());
    for (const Slot &s : slots_)
        ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const Slot *a, const Slot *b) { return a->name < b->name; });

    std::string out = "{\n  \"schema\": \"moentwine.stats.v1\",\n"
                      "  \"stats\": {\n";
    char buf[256];
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        const Slot &s = *ordered[i];
        out += "    \"" + s.name + "\": ";
        switch (s.kind) {
          case StatKind::Counter:
            std::snprintf(buf, sizeof(buf),
                          "{\"kind\": \"counter\", \"value\": %lld}",
                          static_cast<long long>(s.count));
            break;
          case StatKind::Gauge:
            std::snprintf(buf, sizeof(buf),
                          "{\"kind\": \"gauge\", \"value\": %.12g}",
                          s.sum);
            break;
          case StatKind::Distribution: {
            const DistributionView v = distributionView(s.name);
            std::snprintf(
                buf, sizeof(buf),
                "{\"kind\": \"distribution\", \"count\": %lld, "
                "\"sum\": %.12g, \"mean\": %.12g, \"stddev\": %.12g, "
                "\"min\": %.12g, \"max\": %.12g}",
                static_cast<long long>(v.count), v.sum, v.mean(),
                v.stddev(), v.min, v.max);
            break;
          }
        }
        out += buf;
        out += i + 1 < ordered.size() ? ",\n" : "\n";
    }
    out += "  }\n}\n";
    return out;
}

} // namespace moentwine
