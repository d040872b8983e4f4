#include "core/spec_mem.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace srl
{
namespace core
{

void
SpeculativeMemory::write(SeqNum seq, CheckpointId ckpt, Addr addr,
                         unsigned size, std::uint64_t data)
{
    panic_if(!log_.empty() && log_.back().seq >= seq,
             "speculative store drain out of program order "
             "(%llu after %llu)",
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(log_.back().seq));
    LogEntry e{seq, ckpt, addr, size, data};
    log_.push_back(e);
    applyToOverlay(e);
}

SpeculativeMemory::OverlayPage &
SpeculativeMemory::touchPage(Addr addr)
{
    const Addr idx = addr >> kPageShift;
    const std::size_t slot = idx & (kPageCacheSlots - 1);
    if (cache_idx_[slot] == idx && cache_page_[slot])
        return *cache_page_[slot];
    auto &entry = overlay_[idx];
    if (!entry)
        entry = std::make_unique<OverlayPage>();
    cache_idx_[slot] = idx;
    cache_page_[slot] = entry.get();
    return *entry;
}

const SpeculativeMemory::OverlayPage *
SpeculativeMemory::findPage(Addr addr) const
{
    const Addr idx = addr >> kPageShift;
    const std::size_t slot = idx & (kPageCacheSlots - 1);
    if (cache_idx_[slot] == idx)
        return cache_page_[slot];
    const auto it = overlay_.find(idx);
    cache_idx_[slot] = idx;
    cache_page_[slot] = it == overlay_.end() ? nullptr : it->second.get();
    return cache_page_[slot];
}

void
SpeculativeMemory::applyToOverlay(const LogEntry &e)
{
    OverlayPage *page = nullptr;
    for (unsigned i = 0; i < e.size; ++i) {
        const Addr a = e.addr + i;
        const std::size_t o = a & (kPageBytes - 1);
        if (!page || o == 0)
            page = &touchPage(a); // once per page the span touches
        page->value[o] = static_cast<std::uint8_t>(e.data >> (8 * i));
        panic_if(page->writers[o] == UINT16_MAX,
                 "overlay writer count overflow");
        if (page->writers[o]++ == 0)
            ++overlay_bytes_;
    }
}

std::uint64_t
SpeculativeMemory::read(Addr addr, unsigned size) const
{
    // Read the committed image once for the whole span, then patch in
    // any overlay bytes (equivalent to the per-byte overlay-first read,
    // since overlay bytes simply shadow committed ones).
    std::uint64_t value = mem_.read(addr, size);
    if (overlay_bytes_ == 0)
        return value;
    const OverlayPage *page = nullptr;
    for (unsigned i = 0; i < size; ++i) {
        const Addr a = addr + i;
        const std::size_t off = a & (kPageBytes - 1);
        if (i == 0 || off == 0)
            page = findPage(a); // once per page the span touches
        if (!page || page->writers[off] == 0)
            continue;
        value &= ~(static_cast<std::uint64_t>(0xff) << (8 * i));
        value |= static_cast<std::uint64_t>(page->value[off]) << (8 * i);
    }
    return value;
}

void
SpeculativeMemory::commitCheckpoint(CheckpointId ckpt)
{
    while (!log_.empty() && log_.front().ckpt == ckpt) {
        const LogEntry &e = log_.front();
        mem_.write(e.addr, e.size, e.data);
        // Fully-quiesced pages stay allocated for reuse; a rollback's
        // rebuild drops them wholesale.
        OverlayPage *page = nullptr;
        for (unsigned i = 0; i < e.size; ++i) {
            const Addr a = e.addr + i;
            const std::size_t o = a & (kPageBytes - 1);
            if (!page || o == 0)
                page = &touchPage(a);
            panic_if(page->writers[o] == 0,
                     "overlay byte missing at commit");
            if (--page->writers[o] == 0)
                --overlay_bytes_;
        }
        log_.pop_front();
    }
    // Sanity: no entry of this checkpoint may remain deeper in the log
    // (drains are program-ordered, so a checkpoint's stores are always
    // a prefix at its commit). The scan is O(pending stores) per commit
    // — debug builds only.
#ifndef NDEBUG
    for (const auto &e : log_) {
        panic_if(e.ckpt == ckpt,
                 "committed checkpoint %u still has buried drained "
                 "stores", ckpt);
    }
#endif
    checkOverlayCount();
}

void
SpeculativeMemory::rollback(SeqNum first_squashed_seq)
{
    bool removed = false;
    while (!log_.empty() && log_.back().seq >= first_squashed_seq) {
        log_.pop_back();
        removed = true;
    }
    if (removed)
        rebuildOverlay();
    checkOverlayCount();
}

void
SpeculativeMemory::rebuildOverlay()
{
    overlay_.clear();
    overlay_bytes_ = 0;
    cache_idx_.fill(~static_cast<Addr>(0));
    cache_page_.fill(nullptr);
    for (const auto &e : log_)
        applyToOverlay(e);
}

void
SpeculativeMemory::checkOverlayCount() const
{
#ifndef NDEBUG
    // Recount from the log, independently of the writer lanes: the
    // overlaid bytes are exactly the distinct bytes the pending stores
    // cover. read()'s overlay_bytes_ == 0 shortcut relies on this.
    std::vector<Addr> bytes;
    for (const auto &e : log_)
        for (unsigned i = 0; i < e.size; ++i)
            bytes.push_back(e.addr + i);
    std::sort(bytes.begin(), bytes.end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(bytes.begin(), bytes.end()) - bytes.begin());
    panic_if(distinct != overlay_bytes_,
             "overlay byte count drifted (%zu tracked, %zu pending)",
             overlay_bytes_, distinct);
#endif
}

} // namespace core
} // namespace srl
