#include "core/spec_mem.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/logging.hh"

namespace srl
{
namespace core
{

namespace
{

// SWAR helpers over the 16-bit writer-count lanes: a same-page store
// span of up to 8 bytes covers up to 16 bytes of counters, so the
// increment/decrement across the span batches into two word updates
// with no per-byte branches. Zero-lane detection must be exact per
// lane: the borrow trick (v - 1-per-lane) & ~v & msb-per-lane only
// answers "is any lane zero?" and also flags a lane holding 1 above a
// zero lane, which would drift overlay_bytes_.
constexpr std::uint64_t kLaneOnes = 0x0001000100010001ull;
constexpr std::uint64_t kLaneMsbs = 0x8000800080008000ull;

inline std::uint64_t
loadWord(const std::uint16_t *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
}

inline void
storeWord(std::uint16_t *p, std::uint64_t w)
{
    std::memcpy(p, &w, 8);
}

/** MSB-per-lane set for exactly the lanes of @p w that are zero. The
 * low 15 bits of a lane plus 0x7fff carry into the lane MSB iff any of
 * them is set, and never out of the lane. */
inline std::uint64_t
zeroLanes(std::uint64_t w)
{
    return ~(((w & ~kLaneMsbs) + ~kLaneMsbs) | w) & kLaneMsbs;
}

/** All-ones in the low @p n 16-bit lanes (n <= 4). */
inline std::uint64_t
laneMask(unsigned n)
{
    return n >= 4 ? ~0ull : (1ull << (16 * n)) - 1;
}

} // namespace

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
    const std::size_t off = e.addr & (kPageBytes - 1);
    if (off + 8 <= kPageBytes) {
        // Whole (sub-)word span within one page — the overwhelmingly
        // common case. Value bytes land with one copy (the low e.size
        // bytes of the little-endian data are exactly the stored
        // bytes), and the writer counts batch into two lane-wise word
        // increments.
        OverlayPage &page = touchPage(e.addr);
        std::memcpy(page.value.data() + off, &e.data, e.size);

        std::uint16_t *w = page.writers.data() + off;
        const unsigned lo = e.size < 4 ? e.size : 4;
        const std::uint64_t m0 = laneMask(lo);
        std::uint64_t w0 = loadWord(w);
        panic_if(zeroLanes(~w0) & m0, "overlay writer count overflow");
        overlay_bytes_ += static_cast<std::size_t>(
            std::popcount(zeroLanes(w0) & m0));
        storeWord(w, w0 + (kLaneOnes & m0));
        if (e.size > 4) {
            const std::uint64_t m1 = laneMask(e.size - 4);
            std::uint64_t w1 = loadWord(w + 4);
            panic_if(zeroLanes(~w1) & m1,
                     "overlay writer count overflow");
            overlay_bytes_ += static_cast<std::size_t>(
                std::popcount(zeroLanes(w1) & m1));
            storeWord(w + 4, w1 + (kLaneOnes & m1));
        }
        return;
    }
    for (unsigned i = 0; i < e.size; ++i) {
        const Addr a = e.addr + i;
        OverlayPage &page = touchPage(a);
        const std::size_t o = a & (kPageBytes - 1);
        page.value[o] = static_cast<std::uint8_t>(e.data >> (8 * i));
        if (page.writers[o]++ == 0)
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
    if (((addr + size - 1) >> kPageShift) == (addr >> kPageShift)) {
        // Whole load within one page: one lookup covers the span.
        const OverlayPage *page = findPage(addr);
        if (!page)
            return value;
        const std::size_t off = addr & (kPageBytes - 1);
        for (unsigned i = 0; i < size; ++i) {
            if (page->writers[off + i] == 0)
                continue;
            value &= ~(static_cast<std::uint64_t>(0xff) << (8 * i));
            value |= static_cast<std::uint64_t>(page->value[off + i])
                     << (8 * i);
        }
        return value;
    }
    for (unsigned i = 0; i < size; ++i) {
        const Addr a = addr + i;
        const OverlayPage *page = findPage(a);
        if (!page)
            continue;
        const std::size_t off = a & (kPageBytes - 1);
        if (page->writers[off] == 0)
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
        const std::size_t off = e.addr & (kPageBytes - 1);
        if (off + 8 <= kPageBytes) {
            // Mirror of applyToOverlay: lane-wise batched decrement.
            OverlayPage &page = touchPage(e.addr);
            std::uint16_t *w = page.writers.data() + off;
            const unsigned lo = e.size < 4 ? e.size : 4;
            const std::uint64_t m0 = laneMask(lo);
            std::uint64_t w0 = loadWord(w);
            panic_if(zeroLanes(w0) & m0,
                     "overlay byte missing at commit");
            w0 -= kLaneOnes & m0;
            overlay_bytes_ -= static_cast<std::size_t>(
                std::popcount(zeroLanes(w0) & m0));
            storeWord(w, w0);
            if (e.size > 4) {
                const std::uint64_t m1 = laneMask(e.size - 4);
                std::uint64_t w1 = loadWord(w + 4);
                panic_if(zeroLanes(w1) & m1,
                         "overlay byte missing at commit");
                w1 -= kLaneOnes & m1;
                overlay_bytes_ -= static_cast<std::size_t>(
                    std::popcount(zeroLanes(w1) & m1));
                storeWord(w + 4, w1);
            }
            // Fully-quiesced pages stay allocated for reuse; a
            // rollback's rebuild drops them wholesale.
        } else {
            for (unsigned i = 0; i < e.size; ++i) {
                const Addr a = e.addr + i;
                OverlayPage &page = touchPage(a);
                const std::size_t o = a & (kPageBytes - 1);
                panic_if(page.writers[o] == 0,
                         "overlay byte missing at commit");
                if (--page.writers[o] == 0)
                    --overlay_bytes_;
            }
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
