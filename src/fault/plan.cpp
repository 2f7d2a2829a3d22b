#include "fault/plan.h"

#include <cstdlib>

#include "sim/log.h"

namespace k2 {
namespace fault {

namespace {

struct KindName
{
    const char *name;
    FaultKind kind;
};

constexpr KindName kKindNames[kNumFaultKinds] = {
    {"mailbox.drop", FaultKind::MailDrop},
    {"mailbox.dup", FaultKind::MailDuplicate},
    {"mailbox.flip", FaultKind::MailBitFlip},
    {"dma.err", FaultKind::DmaTransferError},
    {"dma.irqloss", FaultKind::DmaIrqLoss},
    {"irq.lost", FaultKind::IrqLost},
    {"irq.spurious", FaultKind::IrqSpurious},
    {"domain.stall", FaultKind::DomainStall},
    {"domain.crash", FaultKind::DomainCrash},
};

bool
kindFromName(const std::string &name, FaultKind &out)
{
    for (const auto &kn : kKindNames) {
        if (name == kn.name) {
            out = kn.kind;
            return true;
        }
    }
    return false;
}

/** A scheduled condition, not a per-opportunity fault. */
bool
isScheduledKind(FaultKind k)
{
    return k == FaultKind::DomainStall || k == FaultKind::DomainCrash ||
           k == FaultKind::IrqSpurious;
}

/**
 * Value parsers carry the value's character offset in the original
 * spec so a rejected flag pinpoints the malformed field ("at char N"),
 * not just its text -- specs are long enough that the same token can
 * appear twice.
 */
std::uint64_t
parseUint(const std::string &v, const char *key, std::size_t at)
{
    char *end = nullptr;
    const std::uint64_t r = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        K2_FATAL("faults: bad integer '%s' for '%s' at char %zu",
                 v.c_str(), key, at);
    return r;
}

double
parseDouble(const std::string &v, const char *key, std::size_t at)
{
    char *end = nullptr;
    const double r = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        K2_FATAL("faults: bad number '%s' for '%s' at char %zu",
                 v.c_str(), key, at);
    return r;
}

/** parseDuration with the spec offset appended to any rejection. */
sim::Duration
parseDurationAt(const std::string &text, const char *key,
                std::size_t at)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || v < 0)
        K2_FATAL("faults: bad duration '%s' for '%s' at char %zu",
                 text.c_str(), key, at);
    const std::string suffix(end);
    if (suffix != "s" && !suffix.empty() && suffix != "ms" &&
        suffix != "us" && suffix != "ns")
        K2_FATAL("faults: bad duration suffix '%s' for '%s' at char "
                 "%zu (want s/ms/us/ns)",
                 suffix.c_str(), key, at);
    return parseDuration(text);
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    for (const auto &kn : kKindNames) {
        if (kn.kind == kind)
            return kn.name;
    }
    K2_PANIC("unknown fault kind %u", static_cast<unsigned>(kind));
}

sim::Duration
parseDuration(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || v < 0)
        K2_FATAL("faults: bad duration '%s'", text.c_str());
    const std::string suffix(end);
    double scale; // to picoseconds
    if (suffix == "s" || suffix.empty())
        scale = 1e12;
    else if (suffix == "ms")
        scale = 1e9;
    else if (suffix == "us")
        scale = 1e6;
    else if (suffix == "ns")
        scale = 1e3;
    else
        K2_FATAL("faults: bad duration suffix '%s' (want s/ms/us/ns)",
                 suffix.c_str());
    return static_cast<sim::Duration>(v * scale + 0.5);
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    FaultSpec *cur = nullptr;

    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t sep = spec.find_first_of(",:", pos);
        if (sep == std::string::npos)
            sep = spec.size();
        const std::size_t tokenStart = pos;
        const std::string token = spec.substr(pos, sep - pos);
        pos = sep + 1;
        if (token.empty())
            continue;

        FaultKind kind;
        if (kindFromName(token, kind)) {
            FaultSpec fs;
            fs.kind = kind;
            // Stall/crash target the weak domain unless overridden.
            if (kind == FaultKind::DomainStall ||
                kind == FaultKind::DomainCrash)
                fs.domain = 1;
            plan.specs_.push_back(fs);
            cur = &plan.specs_.back();
            continue;
        }

        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            K2_FATAL("faults: '%s' at char %zu is neither a fault "
                     "kind nor key=value",
                     token.c_str(), tokenStart);
        const std::string key = token.substr(0, eq);
        const std::string val = token.substr(eq + 1);
        const std::size_t valStart = tokenStart + eq + 1;
        if (key == "seed") {
            plan.seed = parseUint(val, "seed", valStart);
            continue;
        }
        if (!cur)
            K2_FATAL("faults: parameter '%s' at char %zu before any "
                     "fault kind",
                     token.c_str(), tokenStart);
        if (key == "p") {
            cur->p = parseDouble(val, "p", valStart);
            if (cur->p < 0.0 || cur->p > 1.0)
                K2_FATAL("faults: p=%s at char %zu out of [0,1]",
                         val.c_str(), valStart);
        } else if (key == "at") {
            cur->at = parseDurationAt(val, "at", valStart);
        } else if (key == "burst") {
            cur->burst = static_cast<std::uint32_t>(
                parseUint(val, "burst", valStart));
            if (cur->burst == 0)
                K2_FATAL("faults: burst at char %zu must be >= 1",
                         valStart);
        } else if (key == "len") {
            cur->len = parseDurationAt(val, "len", valStart);
        } else if (key == "dom") {
            cur->domain = static_cast<std::uint32_t>(
                parseUint(val, "dom", valStart));
        } else if (key == "line") {
            cur->line = static_cast<std::uint32_t>(
                parseUint(val, "line", valStart));
        } else {
            K2_FATAL("faults: unknown parameter '%s' at char %zu",
                     key.c_str(), tokenStart);
        }
    }

    for (const FaultSpec &fs : plan.specs_) {
        if (isScheduledKind(fs.kind)) {
            if (fs.p != 0.0)
                K2_FATAL("faults: %s is scheduled-only (use at=, not p=)",
                         faultKindName(fs.kind));
            if (fs.at == 0)
                K2_FATAL("faults: %s needs an onset time (at=...)",
                         faultKindName(fs.kind));
        }
        // Every raised line lost: a driver waiting on its completion
        // interrupt never wakes, so no episode can finish.
        if (fs.kind == FaultKind::IrqLost && fs.p >= 1.0)
            K2_FATAL("faults: irq.lost:p=%g loses every interrupt and "
                     "makes progress impossible (use p<1)",
                     fs.p);
        if (fs.kind == FaultKind::IrqSpurious && fs.line == kAnyLine)
            K2_FATAL("faults: irq.spurious needs a line (line=N)");
        if ((fs.kind == FaultKind::DomainStall ||
             fs.kind == FaultKind::DomainCrash) &&
            fs.domain == kAnyDomain)
            K2_FATAL("faults: %s needs a target domain (dom=N)",
                     faultKindName(fs.kind));
    }
    return plan;
}

std::string
FaultPlan::summary() const
{
    if (specs_.empty())
        return "none";
    std::string out;
    for (const FaultSpec &fs : specs_) {
        if (!out.empty())
            out += " ";
        out += faultKindName(fs.kind);
        if (fs.p > 0.0)
            out += sim::strPrintf("(p=%g)", fs.p);
        else
            out += sim::strPrintf("(at=%.3fms",
                                  static_cast<double>(fs.at) / 1e9) +
                   ")";
    }
    return out;
}

} // namespace fault
} // namespace k2
