#include "sim/trace.h"

#include <bit>

#include "sim/log.h"

namespace k2 {
namespace sim {

const char *
Tracer::catName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Sched:
        return "sched";
      case TraceCat::Dsm:
        return "dsm";
      case TraceCat::Irq:
        return "irq";
      case TraceCat::Mem:
        return "mem";
      case TraceCat::Nw:
        return "nw";
      case TraceCat::Mail:
        return "mail";
    }
    return "?";
}

void
Tracer::record(Time when, TraceCat cat, std::string text)
{
    if (!on(cat))
        return;
    ++emitted_;
    // Mirror the record as an instant on the category's track so the
    // textual trace shows up on the exported timeline.
    if (spansOn_) {
        const auto idx =
            static_cast<std::size_t>(std::countr_zero(traceMask(cat)));
        K2_ASSERT(idx < kNumTraceCats);
        std::uint32_t detail = kNoDetail;
        if (spanDetails_.size() < spanCapacity_) {
            detail = static_cast<std::uint32_t>(spanDetails_.size());
            spanDetails_.push_back(text);
        }
        push(SpanEvent{when, 0, 0.0, catTracks_[idx], detail,
                       SpanPhase::Instant, catName(cat)});
    }
    if (buffer_.size() >= capacity_) {
        buffer_.pop_front();
        ++dropped_;
    }
    buffer_.push_back(Record{when, cat, std::move(text)});
}

std::vector<Tracer::Record>
Tracer::ofCategory(TraceCat cat) const
{
    std::vector<Record> out;
    for (const auto &r : buffer_) {
        if (r.cat == cat)
            out.push_back(r);
    }
    return out;
}

void
Tracer::dump(std::ostream &os) const
{
    for (const auto &r : buffer_) {
        os << formatTime(r.when) << " [" << catName(r.cat) << "] "
           << r.text << "\n";
    }
}

void
Tracer::clear()
{
    buffer_.clear();
    emitted_ = 0;
    dropped_ = 0;
}

TrackId
Tracer::addTrack(const std::string &name)
{
    auto it = trackByName_.find(name);
    if (it != trackByName_.end())
        return it->second;
    const auto id = static_cast<TrackId>(tracks_.size());
    tracks_.push_back(name);
    trackByName_.emplace(name, id);
    return id;
}

void
Tracer::enableSpans(std::size_t capacity)
{
    K2_ASSERT(capacity > 0);
    spanCapacity_ = capacity;
    spans_.reserve(capacity);
    spanDetails_.reserve(capacity / 8);
    for (std::size_t i = 0; i < kNumTraceCats; ++i) {
        catTracks_[i] = addTrack(
            std::string("trace.") +
            catName(static_cast<TraceCat>(1u << i)));
    }
    spansOn_ = true;
}

void
Tracer::spanCompleteStr(Time start, Duration dur, TrackId track,
                        const char *name, const std::string &detail)
{
    std::uint32_t idx = kNoDetail;
    if (spans_.size() < spanCapacity_ &&
        spanDetails_.size() < spanCapacity_) {
        idx = static_cast<std::uint32_t>(spanDetails_.size());
        spanDetails_.push_back(detail);
    }
    push(SpanEvent{start, dur, 0.0, track, idx, SpanPhase::Complete,
                   name});
}

} // namespace sim
} // namespace k2
