#include "os/dsm.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/log.h"

namespace k2 {
namespace os {

using coherence::Directory;
using coherence::packOp;
using coherence::pageOf;
using coherence::ProtocolKind;
using coherence::RepOp;
using coherence::ReqOp;

namespace {

/** Bottom-half delay before the main kernel services a request. */
constexpr sim::Duration kMainBottomHalf = sim::usec(4);
/** Extra deferral when the main kernel is under load. */
constexpr sim::Duration kMainLoadedDefer = sim::usec(30);

/** Two-state Gets and grants carry the access kind in seq bit 8. */
constexpr std::uint32_t kRwFlag = 0x100;

std::uint32_t
packSeq(std::uint32_t seq, Access rw)
{
    return (seq & 0xFF) | (rw == Access::Write ? kRwFlag : 0);
}

Access
unpackRw(std::uint32_t seq)
{
    return (seq & kRwFlag) ? Access::Write : Access::Read;
}

std::uint32_t
bit(std::size_t k)
{
    return Directory::bit(k);
}

/** Ascending keys of a page map (hash order would make pulse order,
 *  and so wakeup order, irreproducible). */
template <typename Map>
std::vector<std::uint64_t>
sortedKeys(const Map &m)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

// Table 5 calibration: the strong row for kernels on domains with
// kernelCostFactor <= 1, the weak row elsewhere.
const Dsm::Costs Dsm::kStrongCosts{sim::usec(3), sim::usec(2), 0,
                                   sim::usec(18)};
const Dsm::Costs Dsm::kWeakCosts{sim::usec(17), sim::usec(13),
                                 sim::usec(8), sim::usec(2)};

Dsm::Dsm(soc::Soc &soc, std::vector<kern::Kernel *> kernels,
         std::uint64_t num_pages, ProtocolKind kind)
    : soc_(soc), kernels_(std::move(kernels)), kind_(kind),
      numPages_(num_pages), stats_(kernels_.size())
{
    K2_ASSERT(kernels_.size() >= 2 && kernels_.size() <= 32);
    for (kern::Kernel *k : kernels_) {
        K2_ASSERT(k != nullptr);
        const auto &spec = k->domain().spec().core;
        mmus_.push_back(std::make_unique<soc::Mmu>(spec));
        tracks_.push_back(soc_.engine().addTrack("os.dsm." + k->name()));
        const bool weak = spec.kernelCostFactor > 1.0;
        costs_.push_back(weak ? kWeakCosts : kStrongCosts);
        weak_.push_back(weak ? 1 : 0);
    }
    switch (kind_) {
      case ProtocolKind::TwoState:
        break;
      case ProtocolKind::ThreeState:
      case ProtocolKind::Mesi:
      case ProtocolKind::Moesi:
        if (numPages_ > coherence::kOpMaxPages)
            K2_FATAL("%s DSM limited to %llu pages (opcode payload "
                     "bits), got %llu",
                     coherence::protocolName(kind_),
                     static_cast<unsigned long long>(coherence::kOpMaxPages),
                     static_cast<unsigned long long>(numPages_));
        dir_ = std::make_unique<Directory>(kind_, kernels_.size(),
                                           numPages_);
        break;
      case ProtocolKind::Rac:
        K2_ASSERT(numPages_ <= coherence::kOpMaxPages);
        rac_ = std::make_unique<coherence::RacState>(kernels_.size(),
                                                     numPages_);
        break;
    }
}

Dsm::~Dsm() = default;

kern::PageRange
Dsm::allocRegion(std::uint64_t pages)
{
    if (nextRegionPage_ + pages > numPages_)
        K2_FATAL("DSM region space exhausted (%llu + %llu > %llu)",
                 static_cast<unsigned long long>(nextRegionPage_),
                 static_cast<unsigned long long>(pages),
                 static_cast<unsigned long long>(numPages_));
    kern::PageRange r{nextRegionPage_, pages};
    nextRegionPage_ += pages;
    return r;
}

Dsm::PageInfo &
Dsm::info(std::uint64_t page)
{
    K2_ASSERT(page < numPages_);
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        auto pi = std::make_unique<PageInfo>();
        pi->grant = std::make_unique<sim::Event>(soc_.engine());
        pi->settled = std::make_unique<sim::Event>(soc_.engine());
        it = pages_.emplace(page, std::move(pi)).first;
    }
    return *it->second;
}

KernelIdx
Dsm::idxOf(const kern::Kernel &k) const
{
    for (KernelIdx i = 0; i < kernels_.size(); ++i) {
        if (kernels_[i] == &k)
            return i;
    }
    K2_PANIC("kernel '%s' is not part of this DSM", k.name().c_str());
}

KernelIdx
Dsm::ownerOf(std::uint64_t page) const
{
    switch (kind_) {
      case ProtocolKind::Rac:
        return rac_->writerOf(page);
      case ProtocolKind::TwoState: {
        auto it = pages_.find(page);
        return it == pages_.end() ? 0 : it->second->owner;
      }
      default:
        return dir_->ownerOf(page);
    }
}

bool
Dsm::isLocallyValid(KernelIdx k, std::uint64_t page, Access rw) const
{
    switch (kind_) {
      case ProtocolKind::Rac:
        return rw == Access::Write ? rac_->isWriter(k, page)
                                   : rac_->readFresh(k, page);
      case ProtocolKind::TwoState: {
        auto it = pages_.find(page);
        const std::uint32_t valid =
            it == pages_.end() ? bit(0) : it->second->valid;
        return (valid & bit(k)) != 0;
      }
      default:
        return rw == Access::Write ? dir_->writable(k, page)
                                   : dir_->readValid(k, page);
    }
}

soc::Core *
Dsm::pickCore(KernelIdx kernel)
{
    soc::CoherenceDomain &dom = kernels_[kernel]->domain();
    soc::Core *core = &dom.core(0);
    for (std::size_t i = 0; i < dom.numCores(); ++i) {
        if (dom.core(i).state() == soc::PowerState::Idle) {
            core = &dom.core(i);
            break;
        }
    }
    return core;
}

sim::Duration
Dsm::bottomHalf() const
{
    sim::Duration defer = kMainBottomHalf;
    if (kernels_[0]->scheduler().runqueueDepth() > 0)
        defer += kMainLoadedDefer;
    return defer;
}

sim::Task<void>
Dsm::demote(PageInfo &pi, KernelIdx k, soc::Core &core,
            std::uint64_t page)
{
    if (pi.demoted)
        co_return;
    pi.demoted = true;
    demotions_.inc();
    // Replacing the local large-grain mapping with 4 KB entries: one
    // page-table update on the faulting side. The remote side's
    // mapping is rewritten when it services/faults next; its cost is
    // folded into the protection updates charged there.
    co_await core.execTime(mmus_[k]->protectionUpdate(page));
}

void
Dsm::finishFault(PageInfo &pi, KernelIdx k, sim::Time t0, sim::Time t1,
                 sim::Time t2, sim::Time t3, sim::Time t4)
{
    // The fault and its phases as nested spans on the faulting
    // kernel's track: a parent "fault" spanning t0..t4 with four child
    // phases inside it (the same breakdown as Table 5).
    sim::Tracer &tr = soc_.engine().tracer();
    if (tr.spansOn()) {
        tr.spanComplete(t0, t4 - t0, tracks_[k], "fault");
        tr.spanComplete(t0, t1 - t0, tracks_[k], "fault_entry");
        tr.spanComplete(t1, t2 - t1, tracks_[k], "protocol");
        tr.spanComplete(t2, t3 - t2, tracks_[k], "comm+service");
        tr.spanComplete(t3, t4 - t3, tracks_[k], "exit_refill");
    }
    FaultStats &st = stats_[k];
    st.localFaultUs.sample(sim::toUsec(t1 - t0));
    st.protocolUs.sample(sim::toUsec(t2 - t1));
    st.serviceUs.sample(sim::toUsec(pi.lastServiceTime));
    st.commUs.sample(sim::toUsec(t3 - t2) -
                     sim::toUsec(pi.lastServiceTime));
    st.exitUs.sample(sim::toUsec(t4 - t3));
    st.totalUs.sample(sim::toUsec(t4 - t0));
}

sim::Task<void>
Dsm::access(kern::Kernel &kern, soc::Core &core, std::uint64_t page,
            Access rw)
{
    const KernelIdx k = idxOf(kern);
    switch (kind_) {
      case ProtocolKind::TwoState:
        return accessTwoState(k, core, page, rw);
      case ProtocolKind::Rac:
        return accessRac(k, core, page, rw);
      default:
        return accessDir(k, core, page, rw);
    }
}

sim::Task<void>
Dsm::spinForGrant(PageInfo &pi, KernelIdx k, soc::Core &core,
                  std::uint64_t page, std::uint32_t resend_payload,
                  Access rw)
{
    // Spin (synchronously -- the faulting context may be an interrupt
    // handler) until the grant arrives. With a retry policy, re-send
    // the request when the grant times out: the request or its grant
    // may have been lost, or the peer may be down until the watchdog
    // revives it (or reclaims the page).
    pi.grant->reset();
    pi.grantArrived &= ~bit(k);
    core.pinActive();
    if (retry_.timeout == 0) {
        co_await pi.grant->wait();
        core.unpinActive();
        co_return;
    }
    sim::Duration rto = retry_.timeout;
    while ((pi.grantArrived & bit(k)) == 0) {
        bool timer_fired = false;
        sim::Event *grant = pi.grant.get();
        sim::EventId timer = soc_.engine().after(
            rto, [grant, &timer_fired]() {
                timer_fired = true;
                grant->pulse();
            });
        co_await pi.grant->wait();
        soc_.engine().cancel(timer);
        if (pi.grantArrived & bit(k))
            break;
        if (!timer_fired)
            continue; // Woken by an unrelated pulse; re-wait.
        retries_.inc();
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s retries Get for page %llu",
                 kernels_[k]->name().c_str(),
                 static_cast<unsigned long long>(page));
        // Every resend re-reads the directory, so a fault stranded on
        // a crashed owner redirects to wherever reclaimFrom moved the
        // page.
        if (kind_ == ProtocolKind::TwoState) {
            messages_.inc();
            kernels_[k]->sendMail(
                kernels_[requestTarget(pi, k)]->domainId(),
                encodeMessage(MsgType::GetExclusive, resend_payload,
                              packSeq(seq_++, rw)));
        } else if (kind_ == ProtocolKind::Rac) {
            // A reclaim may have moved the page (possibly to us)
            // since the original Acq.
            const KernelIdx w = rac_->writerOf(page);
            if (w == k)
                break;
            messages_.inc();
            kernels_[k]->sendMail(
                kernels_[w]->domainId(),
                encodeMessage(MsgType::GetExclusive, resend_payload,
                              seq_++ & kSeqMask));
        } else if (k == 0) {
            // The home re-runs its own directory transaction
            // (duplicate-suppressed if still active).
            soc_.engine().spawn(dirService(
                0, page,
                coherence::opOf(resend_payload) ==
                    static_cast<std::uint32_t>(ReqOp::GetX),
                false));
        } else {
            messages_.inc();
            kernels_[k]->sendMail(
                kernels_[0]->domainId(),
                encodeMessage(MsgType::GetExclusive, resend_payload,
                              seq_++ & kSeqMask));
        }
        rto = std::min(rto * 2, retry_.maxTimeout);
    }
    core.unpinActive();
}

// ---------------------------------------------------------------------
// Two-state (migratory) mode.
// ---------------------------------------------------------------------

KernelIdx
Dsm::requestTarget(const PageInfo &pi, KernelIdx k) const
{
    // The directory owner -- unless a crossed fault (possible only
    // after a reclaim) left @p k recorded as the owner of a copy it
    // has since given up; the kernel that served it then holds the
    // page. With two kernels both cases name the peer.
    const KernelIdx to = pi.owner != k ? pi.owner : pi.servedBy;
    K2_ASSERT(to != k);
    return to;
}

sim::Task<void>
Dsm::accessTwoState(KernelIdx k, soc::Core &core, std::uint64_t page,
                    Access rw)
{
    PageInfo &pi = info(page);

    // Address translation through the local MMU at the page's current
    // mapping grain.
    const auto grain =
        pi.demoted ? soc::MapGrain::Page4K : soc::MapGrain::Section1M;
    const sim::Duration walk = mmus_[k]->translate(page, grain);
    if (walk)
        co_await core.execTime(walk);

    for (;;) {
        // Serialise with a fault already in flight on this kernel, and
        // with any other requester of the same owner (a third kernel:
        // the owner serves one requester at a time). The owner itself
        // keeps local access until its service invalidates the copy.
        while ((pi.valid & bit(k)) == 0 &&
               (pi.outstanding & ~bit(requestTarget(pi, k))) != 0) {
            core.pinActive();
            co_await pi.settled->wait();
            core.unpinActive();
        }
        if (pi.valid & bit(k))
            co_return;

        // ---- Full fault path (Table 5). ----
        stats_[k].faults.inc();
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s faults on page %llu (%s)",
                 kernels_[k]->name().c_str(),
                 static_cast<unsigned long long>(page),
                 rw == Access::Write ? "W" : "R");
        pi.outstanding |= bit(k);
        pi.raced &= ~bit(k);

        if (!pi.demoted)
            co_await demote(pi, k, core, page);

        const sim::Time t0 = soc_.engine().now();
        co_await core.execTime(costs_[k].faultEntry);
        const sim::Time t1 = soc_.engine().now();
        co_await core.execTime(costs_[k].protocolExec);
        const sim::Time t2 = soc_.engine().now();

        // Directory lookup gives the owner; request it directly (no
        // broadcast).
        messages_.inc();
        kernels_[k]->sendMail(
            kernels_[requestTarget(pi, k)]->domainId(),
            encodeMessage(MsgType::GetExclusive, page & kPayloadMask,
                          packSeq(seq_++, rw)));

        co_await spinForGrant(pi, k, core, page, page & kPayloadMask, rw);
        const sim::Time t3 = soc_.engine().now();

        co_await core.execTime(costs_[k].exitRefill +
                               mmus_[k]->protectionUpdate(page));
        const sim::Time t4 = soc_.engine().now();

        const bool raced = (pi.raced & bit(k)) != 0;
        if (!raced)
            pi.valid |= bit(k);
        pi.outstanding &= ~bit(k);
        pi.settled->pulse();
        finishFault(pi, k, t0, t1, t2, t3, t4);

        if (!raced)
            co_return;
        // A crossed service invalidated our copy while we waited;
        // retry the fault.
    }
}

sim::Task<void>
Dsm::serviceGet(KernelIdx owner, KernelIdx requester, std::uint64_t page,
                Access rw)
{
    PageInfo &pi = info(page);

    // The main kernel handles coherence requests in a bottom half and
    // defers further under load; shadow kernels serve immediately.
    if (owner == 0)
        co_await soc_.engine().sleep(bottomHalf());

    // Serialise with a local fault in flight -- except a *crossed*
    // fault: both copies invalid, each kernel waiting for the other's
    // grant. That can only arise after crash recovery desynchronises
    // ownership (a reclaim forces the dead side invalid mid-fault; its
    // stale retransmitted Get later invalidates the survivor), and
    // waiting would then deadlock: this service waits for the local
    // fault to settle, the local fault waits for a grant the peer's
    // equally parked service never sends. A weak owner breaks the
    // cycle: it services immediately and its own fault retries.
    bool crossed = false;
    for (;;) {
        const bool busy = (pi.outstanding & bit(owner)) != 0;
        crossed = owner != 0 && busy && (pi.valid & bit(owner)) == 0;
        if (crossed || !busy)
            break;
        co_await pi.settled->wait();
    }

    soc::Core *core = pickCore(owner);
    if (!core->awake())
        co_await core->ensureAwake();

    const sim::Time t_start = soc_.engine().now();
    const bool dirty = (pi.valid & bit(owner)) != 0;
    sim::Duration cost = costs_[owner].serviceBase +
                         mmus_[owner]->protectionUpdate(page);
    if (dirty)
        cost += kernels_[owner]->domain().flushTime(soc_.pageBytes());
    co_await core->execTime(cost);

    // Only the recorded owner serves -- or the kernel that served the
    // recorded owner, when the owner's Get is a resend (its grant was
    // lost). Any other Get is stale: a resend that reached a former
    // owner after the page moved on, or one delivered to a kernel
    // revived after a reclaim. Granting it would hand out a second
    // writable copy, so it is dropped and the requester's retry
    // re-reads the directory. With two kernels every Get is current.
    if (pi.owner != owner &&
        (pi.owner != requester || pi.servedBy != owner)) {
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s drops stale Get for page %llu from %s",
                 kernels_[owner]->name().c_str(),
                 static_cast<unsigned long long>(page),
                 kernels_[requester]->name().c_str());
        co_return;
    }
    if (crossed)
        pi.raced |= bit(owner);
    pi.valid &= ~bit(owner);
    pi.owner = static_cast<std::uint32_t>(requester);
    pi.servedBy = static_cast<std::uint32_t>(owner);
    pi.lastServiceTime = soc_.engine().now() - t_start;
    soc_.engine().spanComplete(t_start, tracks_[owner], "service");
    K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
             "%s services page %llu (%s)",
             kernels_[owner]->name().c_str(),
             static_cast<unsigned long long>(page),
             dirty ? "flush" : "clean");

    messages_.inc();
    kernels_[owner]->sendMail(
        kernels_[requester]->domainId(),
        encodeMessage(MsgType::PutExclusive, page & kPayloadMask,
                      packSeq(seq_++, rw)));
}

// ---------------------------------------------------------------------
// Directory modes (MSI / MESI / MOESI; home on kernel 0).
// ---------------------------------------------------------------------

sim::Task<void>
Dsm::accessDir(KernelIdx k, soc::Core &core, std::uint64_t page,
               Access rw)
{
    PageInfo &pi = info(page);

    const auto grain =
        pi.demoted ? soc::MapGrain::Page4K : soc::MapGrain::Section1M;
    const sim::Duration walk = mmus_[k]->translate(page, grain);
    if (walk)
        co_await core.execTime(walk);

    for (;;) {
        // One transaction per page at a time (the home serialises; the
        // simulator-side wait models the directory's request queue).
        while (pi.outstanding != 0) {
            core.pinActive();
            co_await pi.settled->wait();
            core.unpinActive();
        }
        const bool valid = rw == Access::Write
            ? dir_->writeValid(k, page)
            : dir_->readValid(k, page);
        if (valid)
            co_return;

        stats_[k].faults.inc();
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s faults on page %llu (%s)",
                 kernels_[k]->name().c_str(),
                 static_cast<unsigned long long>(page),
                 rw == Access::Write ? "W" : "R");
        pi.outstanding = bit(k);
        pi.lastServiceTime = 0;

        if (!pi.demoted)
            co_await demote(pi, k, core, page);

        const sim::Time t0 = soc_.engine().now();
        // Read-sharing protocols track reads, so weak kernels pay the
        // cascaded-MMU read-tracking penalty on every fault (§6.3).
        sim::Duration entry = costs_[k].faultEntry;
        if (weak_[k])
            entry += mmus_[k]->readTrackPenalty();
        co_await core.execTime(entry);
        const sim::Time t1 = soc_.engine().now();
        co_await core.execTime(costs_[k].protocolExec);
        const sim::Time t2 = soc_.engine().now();

        const std::uint32_t payload = packOp(
            rw == Access::Write ? ReqOp::GetX : ReqOp::GetS, page);
        if (k == 0) {
            // The home faulting on itself: run the directory
            // transaction locally, no mail.
            soc_.engine().spawn(
                dirService(0, page, rw == Access::Write, false));
        } else {
            messages_.inc();
            kernels_[k]->sendMail(
                kernels_[0]->domainId(),
                encodeMessage(MsgType::GetExclusive, payload,
                              seq_++ & kSeqMask));
        }

        co_await spinForGrant(pi, k, core, page, payload, rw);
        const sim::Time t3 = soc_.engine().now();

        co_await core.execTime(costs_[k].exitRefill +
                               mmus_[k]->protectionUpdate(page));
        const sim::Time t4 = soc_.engine().now();

        pi.outstanding = 0;
        pi.settled->pulse();
        finishFault(pi, k, t0, t1, t2, t3, t4);

        // The home applied the transition before granting; a stale
        // grant (from a retried transaction) fails this check and the
        // fault retries.
        const bool done = rw == Access::Write
            ? dir_->writeValid(k, page)
            : dir_->readValid(k, page);
        if (done)
            co_return;
    }
}

sim::Task<void>
Dsm::dirService(KernelIdx req, std::uint64_t page, bool write,
                bool via_mail)
{
    PageInfo &pi = info(page);

    // The strong home kernel handles directory requests in a bottom
    // half (its own faults skip the mailbox).
    if (via_mail)
        co_await soc_.engine().sleep(bottomHalf());

    Directory::Entry &e = dir_->entry(page);
    if (e.reqActive)
        co_return; // Duplicate of the transaction already in flight.
    e.reqActive = true;
    e.reqWrite = write;
    e.requester = static_cast<std::uint32_t>(req);
    e.serviceStart = soc_.engine().now();

    soc::Core *core = pickCore(0);
    if (!core->awake())
        co_await core->ensureAwake();
    // Directory lookup in the home's coherent memory.
    co_await core->execTime(costs_[0].serviceBase +
                            soc_.costs().busAccess);

    if (!write) {
        if (e.dirty && e.owner != req && e.owner != 0) {
            // 3-hop read: the dirty owner forwards (MOESI) or writes
            // back (MSI/MESI) and grants straight to the requester.
            // Service is the home's lookup plus the owner's forward
            // (fwdService); the Fwd hop stays communication.
            pi.lastServiceTime = soc_.engine().now() - e.serviceStart;
            messages_.inc();
            kernels_[0]->sendMail(
                kernels_[e.owner]->domainId(),
                encodeMessage(MsgType::GetExclusive,
                              packOp(ReqOp::Fwd, page),
                              seq_++ & kSeqMask));
            co_return; // fwdService closes the transaction.
        }
        if (e.dirty && e.owner == 0 && req != 0) {
            // The home itself holds the dirty copy.
            soc::CoherenceDomain &dom = kernels_[0]->domain();
            if (kind_ == ProtocolKind::Moesi) {
                dir_->forwardsCounter().inc();
                co_await core->execTime(
                    dom.flushTime(soc_.pageBytes()) / 2);
            } else {
                dir_->writebacksCounter().inc();
                co_await core->execTime(dom.flushTime(soc_.pageBytes()));
                e.dirty = false;
            }
        }
        e.sharers |= Directory::bit(req);
        if (e.sharers == Directory::bit(req)) {
            // Sole copy: clean-exclusive (E under MESI/MOESI).
            e.owner = static_cast<std::uint32_t>(req);
            e.dirty = false;
        }
        const RepOp op = (e.sharers == Directory::bit(req) &&
                          kind_ != ProtocolKind::ThreeState)
            ? RepOp::GrantE
            : RepOp::GrantS;
        e.reqActive = false;
        pi.lastServiceTime = soc_.engine().now() - e.serviceStart;
        soc_.engine().spanComplete(e.serviceStart, tracks_[0], "service");
        grantTo(0, req, page, op);
        co_return;
    }

    // Write: invalidate every other holder, then grant exclusivity.
    std::uint32_t targets =
        (e.sharers | Directory::bit(e.owner)) & ~Directory::bit(req);
    if ((targets & 1u) != 0) {
        // The home's own copy is invalidated inline.
        sim::Duration c = mmus_[0]->protectionUpdate(page);
        if (e.dirty && e.owner == 0) {
            dir_->writebacksCounter().inc();
            c += kernels_[0]->domain().flushTime(soc_.pageBytes());
        }
        dir_->invalidationsCounter().inc();
        co_await core->execTime(c);
        e.sharers &= ~1u;
        targets &= ~1u;
    }
    if (targets == 0) {
        dir_->finishWrite(e, req);
        pi.lastServiceTime = soc_.engine().now() - e.serviceStart;
        soc_.engine().spanComplete(e.serviceStart, tracks_[0], "service");
        grantTo(0, req, page, RepOp::GrantX);
        co_return;
    }
    // Service is the home's work so far plus the slowest sharer's
    // invalidation (invService), added when the last InvAck closes the
    // transaction; the Inv/InvAck hops stay communication.
    pi.lastServiceTime = soc_.engine().now() - e.serviceStart;
    pi.peerService = 0;
    e.ackWait = targets;
    for (KernelIdx t = 1; t < kernels_.size(); ++t) {
        if ((targets & Directory::bit(t)) == 0)
            continue;
        dir_->invalidationsCounter().inc();
        messages_.inc();
        kernels_[0]->sendMail(
            kernels_[t]->domainId(),
            encodeMessage(MsgType::GetExclusive,
                          packOp(ReqOp::Inv, page), seq_++ & kSeqMask));
    }
    // The InvAcks close the transaction (see handleMail).
}

sim::Task<void>
Dsm::invService(KernelIdx target, std::uint64_t page)
{
    Directory::Entry &e = dir_->entry(page);

    soc::Core *core = pickCore(target);
    if (!core->awake())
        co_await core->ensureAwake();

    const sim::Time t0 = soc_.engine().now();
    const bool dirty_owner = e.dirty && e.owner == target;
    sim::Duration c = costs_[target].serviceBase +
                      mmus_[target]->protectionUpdate(page);
    if (dirty_owner) {
        dir_->writebacksCounter().inc();
        c += kernels_[target]->domain().flushTime(soc_.pageBytes());
    }
    co_await core->execTime(c);

    e.sharers &= ~Directory::bit(target);
    if (dirty_owner)
        e.dirty = false;
    PageInfo &pi = info(page);
    pi.peerService = std::max(pi.peerService, soc_.engine().now() - t0);
    soc_.engine().spanComplete(t0, tracks_[target], "service");
    messages_.inc();
    kernels_[target]->sendMail(
        kernels_[0]->domainId(),
        encodeMessage(MsgType::PutExclusive,
                      packOp(RepOp::InvAck, page), seq_++ & kSeqMask));
}

sim::Task<void>
Dsm::fwdService(KernelIdx owner, std::uint64_t page)
{
    PageInfo &pi = info(page);
    Directory::Entry &e = dir_->entry(page);

    soc::Core *core = pickCore(owner);
    if (!core->awake())
        co_await core->ensureAwake();

    const sim::Time t0 = soc_.engine().now();
    soc::CoherenceDomain &dom = kernels_[owner]->domain();
    sim::Duration c = costs_[owner].serviceBase;
    if (kind_ == ProtocolKind::Moesi) {
        // Owned-dirty: forward cache-to-cache through the coherent
        // region at half the flush cost; no memory writeback.
        dir_->forwardsCounter().inc();
        c += dom.flushTime(soc_.pageBytes()) / 2;
    } else {
        dir_->writebacksCounter().inc();
        c += dom.flushTime(soc_.pageBytes());
    }
    co_await core->execTime(c);

    if (kind_ != ProtocolKind::Moesi)
        e.dirty = false; // MSI/MESI write back and downgrade to S.
    const KernelIdx req = e.requester;
    e.sharers |= Directory::bit(req);
    e.reqActive = false;
    pi.lastServiceTime += soc_.engine().now() - t0;
    soc_.engine().spanComplete(t0, tracks_[owner], "service");
    grantTo(owner, req, page, RepOp::GrantS);
}

void
Dsm::grantTo(KernelIdx grantor, KernelIdx req, std::uint64_t page,
             RepOp op)
{
    PageInfo &pi = info(page);
    if (req == grantor) {
        // The grantor is the faulter (home transaction for kernel 0):
        // complete locally, no mail.
        pi.grantArrived |= bit(req);
        pi.grant->pulse();
        return;
    }
    messages_.inc();
    kernels_[grantor]->sendMail(
        kernels_[req]->domainId(),
        encodeMessage(MsgType::PutExclusive, packOp(op, page),
                      seq_++ & kSeqMask));
}

// ---------------------------------------------------------------------
// Release-acquire (RAC) mode.
// ---------------------------------------------------------------------

sim::Task<void>
Dsm::accessRac(KernelIdx k, soc::Core &core, std::uint64_t page,
               Access rw)
{
    PageInfo &pi = info(page);

    // No demotion under release-acquire: invalidation is line-grain
    // via the logs, so the mapping stays at section grain.
    const sim::Duration walk =
        mmus_[k]->translate(page, soc::MapGrain::Section1M);
    if (walk)
        co_await core.execTime(walk);

    for (;;) {
        while (pi.outstanding != 0) {
            core.pinActive();
            co_await pi.settled->wait();
            core.unpinActive();
        }
        const bool valid = rw == Access::Write
            ? rac_->isWriter(k, page)
            : rac_->readFresh(k, page);
        if (valid) {
            if (rw == Access::Write) {
                // Owner write: log the modified lines through the
                // coherent region.
                rac_->append(k, page);
                co_await core.execTime(soc_.costs().busAccess);
            }
            co_return;
        }

        stats_[k].faults.inc();
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s acquires page %llu (%s)",
                 kernels_[k]->name().c_str(),
                 static_cast<unsigned long long>(page),
                 rw == Access::Write ? "W" : "R");
        pi.outstanding = bit(k);
        pi.lastServiceTime = 0;

        // No read-tracking penalty: invalidation is push-based.
        const sim::Time t0 = soc_.engine().now();
        co_await core.execTime(costs_[k].faultEntry);
        const sim::Time t1 = soc_.engine().now();
        co_await core.execTime(costs_[k].protocolExec);
        const sim::Time t2 = soc_.engine().now();

        const std::uint32_t payload = packOp(ReqOp::Acq, page);
        const KernelIdx w = rac_->writerOf(page);
        messages_.inc();
        kernels_[k]->sendMail(
            kernels_[w]->domainId(),
            encodeMessage(MsgType::GetExclusive, payload,
                          seq_++ & kSeqMask));

        co_await spinForGrant(pi, k, core, page, payload, rw);
        const sim::Time t3 = soc_.engine().now();

        // Drain every peer log with pending entries: invalidate the
        // listed lines locally and merge the writers' clocks. One
        // acquire freshens the whole backlog, not just this page.
        for (KernelIdx w2 = 0; w2 < kernels_.size(); ++w2) {
            if (w2 == k)
                continue;
            const std::uint32_t pend = rac_->pendingLines(k, w2);
            if (pend == 0)
                continue;
            rac_->drain(k, w2);
            co_await core.execTime(pend *
                                   coherence::kRacLineInvalidate);
        }

        sim::Duration exit = costs_[k].exitRefill;
        if (rw == Access::Write)
            exit += mmus_[k]->protectionUpdate(page);
        co_await core.execTime(exit);
        const sim::Time t4 = soc_.engine().now();

        if (rw == Access::Write)
            rac_->takeOwnership(k, page);
        pi.outstanding = 0;
        pi.settled->pulse();
        finishFault(pi, k, t0, t1, t2, t3, t4);

        if (rw == Access::Write)
            co_return; // Ownership taken; the write is logged.
        if (rac_->readFresh(k, page))
            co_return;
        // The writer released again while we drained; re-acquire.
    }
}

sim::Task<void>
Dsm::racService(KernelIdx writer, KernelIdx req, std::uint64_t page)
{
    PageInfo &pi = info(page);

    // The strong kernel's cache agent runs as a bottom half.
    if (writer == 0)
        co_await soc_.engine().sleep(bottomHalf());

    soc::Core *core = pickCore(writer);
    if (!core->awake())
        co_await core->ensureAwake();

    // Release: flush the page's dirty lines through the coherent
    // region so the acquirer's drain observes them.
    const sim::Time t0 = soc_.engine().now();
    co_await core->execTime(
        costs_[writer].serviceBase +
        kernels_[writer]->domain().flushTime(soc_.pageBytes()));
    pi.lastServiceTime = soc_.engine().now() - t0;
    soc_.engine().spanComplete(t0, tracks_[writer], "service");

    messages_.inc();
    kernels_[writer]->sendMail(
        kernels_[req]->domainId(),
        encodeMessage(MsgType::PutExclusive,
                      packOp(RepOp::GrantX, page), seq_++ & kSeqMask));
}

// ---------------------------------------------------------------------
// Recovery, metrics, mail dispatch.
// ---------------------------------------------------------------------

std::vector<std::uint64_t>
Dsm::reclaimFrom(KernelIdx dead, KernelIdx to)
{
    K2_ASSERT(dead < kernels_.size() && to < kernels_.size());
    K2_ASSERT(dead != to);

    // Complete a fault of @p to left waiting on a grant.
    auto release = [this, to](PageInfo &pi) {
        if ((pi.outstanding & bit(to)) && !(pi.grantArrived & bit(to))) {
            pi.grantArrived |= bit(to);
            pi.grant->pulse();
        }
    };

    if (kind_ == ProtocolKind::Rac) {
        std::vector<std::uint64_t> moved = rac_->reclaim(dead, to);
        // The inheritor's own stranded acquires complete locally; any
        // other requester self-heals through the retry path (the
        // resend re-reads the writer).
        for (std::uint64_t key : sortedKeys(pages_))
            release(*pages_.at(key));
        return moved;
    }

    if (kind_ != ProtocolKind::TwoState) {
        // Directory: scrub the dead domain from every entry and wake
        // the requesters of transactions that were stalled only on it.
        std::vector<std::uint64_t> completed;
        std::vector<std::uint64_t> moved =
            dir_->reclaim(dead, to, completed);
        for (std::uint64_t page : completed) {
            auto it = pages_.find(page);
            if (it == pages_.end())
                continue;
            PageInfo &pi = *it->second;
            if (pi.outstanding & ~pi.grantArrived) {
                pi.grantArrived |= pi.outstanding;
                pi.grant->pulse();
            }
        }
        return moved;
    }

    // Two-state: a page moves if @p dead holds it, or if it is in
    // transit to @p dead or from it to @p to. Ascending page order:
    // reclaim pulses grant events, and the pulse order decides wakeup
    // order.
    std::vector<std::uint64_t> moved;
    for (std::uint64_t key : sortedKeys(pages_)) {
        PageInfo &pi = *pages_.at(key);
        const bool inTransit = pi.valid == 0 &&
            (pi.owner == dead || (pi.owner == to && pi.servedBy == dead));
        if ((pi.valid & bit(dead)) == 0 && !inTransit)
            continue;
        // Recorded as served by @p dead, so a Get of @p to that @p dead
        // still holds from before the crash stays current (serviceGet).
        pi.owner = static_cast<std::uint32_t>(to);
        pi.servedBy = static_cast<std::uint32_t>(dead);
        pi.valid = bit(to);
        moved.push_back(key);
        release(pi);
    }
    return moved;
}

void
Dsm::registerMetrics(obs::MetricsRegistry &reg,
                     const std::string &prefix) const
{
    reg.addCounter(prefix + ".messages", messages_);
    reg.addCounter(prefix + ".demotions", demotions_);
    // Only present when the recovery layer enabled retries, so
    // zero-fault metric snapshots keep their exact key set.
    if (retry_.timeout != 0)
        reg.addCounter(prefix + ".retries", retries_);
    for (KernelIdx k = 0; k < kernels_.size(); ++k) {
        const std::string kp = prefix + "." + kernels_[k]->name();
        const FaultStats &st = stats_[k];
        reg.addCounter(kp + ".faults", st.faults);
        reg.addAccumulator(kp + ".fault_entry_us", st.localFaultUs);
        reg.addAccumulator(kp + ".protocol_us", st.protocolUs);
        reg.addAccumulator(kp + ".comm_us", st.commUs);
        reg.addAccumulator(kp + ".service_us", st.serviceUs);
        reg.addAccumulator(kp + ".exit_us", st.exitUs);
        reg.addAccumulator(kp + ".total_us", st.totalUs);
        const soc::Mmu &mmu = *mmus_[k];
        reg.addGauge(kp + ".tlb.hits", [&mmu]() {
            return static_cast<double>(mmu.tlb().hits());
        });
        reg.addGauge(kp + ".tlb.misses", [&mmu]() {
            return static_cast<double>(mmu.tlb().misses());
        });
    }
    if (dir_)
        dir_->registerMetrics(reg, prefix);
    if (rac_)
        rac_->registerMetrics(reg, prefix);
}

sim::Task<void>
Dsm::handleMail(KernelIdx to_kernel, soc::Mail mail, soc::Core &core)
{
    const Message msg = decodeMessage(mail.word);
    // The Mail carries the sending domain; map it to a kernel index.
    KernelIdx from_kernel = SIZE_MAX;
    for (KernelIdx i = 0; i < kernels_.size(); ++i) {
        if (kernels_[i]->domainId() == mail.from)
            from_kernel = i;
    }
    K2_ASSERT(from_kernel != SIZE_MAX);
    if (msg.type != MsgType::GetExclusive &&
        msg.type != MsgType::PutExclusive)
        K2_PANIC("DSM received non-DSM message type %u",
                 static_cast<unsigned>(msg.type));

    if (kind_ == ProtocolKind::TwoState) {
        const std::uint64_t page = msg.payload;
        if (msg.type == MsgType::GetExclusive) {
            // Service as a separate task so the mailbox ISR can keep
            // draining (the main kernel's bottom-half behaviour).
            soc_.engine().spawn(serviceGet(to_kernel, from_kernel, page,
                                           unpackRw(msg.seq)));
            co_return;
        }
        // Grant: wake the spinning requester.
        co_await core.execTime(soc_.costs().busAccess);
        PageInfo &pi = info(page);
        pi.grantArrived |= bit(to_kernel);
        pi.grant->pulse();
        co_return;
    }

    const std::uint64_t page = pageOf(msg.payload);
    const std::uint32_t op = coherence::opOf(msg.payload);
    if (msg.type == MsgType::GetExclusive) {
        if (kind_ == ProtocolKind::Rac) {
            K2_ASSERT(op == static_cast<std::uint32_t>(ReqOp::Acq));
            soc_.engine().spawn(
                racService(to_kernel, from_kernel, page));
            co_return;
        }
        switch (static_cast<ReqOp>(op)) {
          case ReqOp::GetS:
          case ReqOp::GetX:
            K2_ASSERT(to_kernel == 0); // Requests go to the home.
            soc_.engine().spawn(dirService(
                from_kernel, page,
                static_cast<ReqOp>(op) == ReqOp::GetX, true));
            co_return;
          case ReqOp::Inv:
            soc_.engine().spawn(invService(to_kernel, page));
            co_return;
          case ReqOp::Fwd:
            soc_.engine().spawn(fwdService(to_kernel, page));
            co_return;
          default:
            K2_PANIC("DSM directory received request op %u",
                     static_cast<unsigned>(op));
        }
    }

    co_await core.execTime(soc_.costs().busAccess);
    if (kind_ != ProtocolKind::Rac &&
        op == static_cast<std::uint32_t>(RepOp::InvAck)) {
        K2_ASSERT(to_kernel == 0);
        Directory::Entry &e = dir_->entry(page);
        e.ackWait &= ~Directory::bit(from_kernel);
        if (e.reqActive && e.reqWrite && e.ackWait == 0) {
            const KernelIdx req = e.requester;
            dir_->finishWrite(e, req);
            PageInfo &pi = info(page);
            pi.lastServiceTime += pi.peerService;
            soc_.engine().spanComplete(e.serviceStart, tracks_[0],
                                       "service");
            grantTo(0, req, page, RepOp::GrantX);
        }
        co_return;
    }
    // A grant: wake the spinning requester.
    PageInfo &pi = info(page);
    pi.grantArrived |= bit(to_kernel);
    pi.grant->pulse();
}

} // namespace os
} // namespace k2
