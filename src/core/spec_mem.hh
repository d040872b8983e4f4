/**
 * @file
 * Speculative memory overlay.
 *
 * Stores drain to the cache *speculatively* (before their checkpoint
 * commits) in this machine, exactly as the paper's checkpointed L1 data
 * cache does. The architectural image (memsys::MainMemory) must only
 * ever hold committed data, so drained-but-uncommitted store values
 * live in this overlay:
 *
 *  - drains append to a program-ordered log and update a byte-granular
 *    overlay map (in-order overwrite is safe because the drain
 *    discipline is strictly program order);
 *  - loads read overlay bytes first, falling back to main memory
 *    (a drained store is always program-order-older than any
 *    still-incomplete load, thanks to the WAR order fence, so this is
 *    always the correct view);
 *  - committing a checkpoint applies its (prefix of the) log to main
 *    memory; a rollback truncates the log suffix and rebuilds the
 *    overlay — the modeled-hardware analogue is the bulk clear of
 *    speculatively-valid cache lines.
 */

#ifndef SRLSIM_CORE_SPEC_MEM_HH
#define SRLSIM_CORE_SPEC_MEM_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/types.hh"
#include "memsys/main_memory.hh"

namespace srl
{
namespace core
{

class SpeculativeMemory
{
  public:
    explicit SpeculativeMemory(memsys::MainMemory &mem) : mem_(mem)
    {
        cache_idx_.fill(~static_cast<Addr>(0));
        cache_page_.fill(nullptr);
    }

    /** A store drains (program order). */
    void write(SeqNum seq, CheckpointId ckpt, Addr addr, unsigned size,
               std::uint64_t data);

    /** Load view: overlay bytes over the committed image. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /**
     * Commit checkpoint @p ckpt: its drained stores must form the log
     * prefix (drains are program-ordered); apply them to main memory.
     */
    void commitCheckpoint(CheckpointId ckpt);

    /** Discard drained stores with seq >= @p first_squashed_seq. */
    void rollback(SeqNum first_squashed_seq);

    std::size_t pendingStores() const { return log_.size(); }

  private:
    struct LogEntry
    {
        SeqNum seq;
        CheckpointId ckpt;
        Addr addr;
        unsigned size;
        std::uint64_t data;
    };

    /**
     * Overlay shadow page: per-byte value and writer count (writers ==
     * 0 means the byte is not overlaid). Page-granular arrays replace
     * a per-byte hash map so drain/commit/read touch bytes with plain
     * indexing — the hash cost is paid once per page, and a one-entry
     * page cache absorbs the typical access locality.
     */
    static constexpr unsigned kPageShift = 12;
    static constexpr std::size_t kPageBytes = 1ull << kPageShift;

    struct OverlayPage
    {
        std::array<std::uint8_t, kPageBytes> value{};
        /** Per-byte pending-writer count (bounded by in-flight
         * stores, far below 65535). */
        std::array<std::uint16_t, kPageBytes> writers{};
    };

    OverlayPage &touchPage(Addr addr);
    const OverlayPage *findPage(Addr addr) const;

    void applyToOverlay(const LogEntry &e);
    void rebuildOverlay();
    /** Debug builds: panic unless overlay_bytes_ matches a recount. */
    void checkOverlayCount() const;

    memsys::MainMemory &mem_;
    std::deque<LogEntry> log_; ///< program order, oldest first
    std::unordered_map<Addr, std::unique_ptr<OverlayPage>> overlay_;
    std::size_t overlay_bytes_ = 0; ///< total bytes with writers > 0

    /** Direct-mapped page-pointer cache over overlay_: redo-mode
     * drains/loads alternate between a handful of pages, which a
     * one-entry cache thrashes on. Caches negative lookups too
     * (nullptr); touchPage refreshes the slot on insertion and
     * rebuildOverlay resets the table. */
    static constexpr std::size_t kPageCacheSlots = 64;
    mutable std::array<Addr, kPageCacheSlots> cache_idx_;
    mutable std::array<OverlayPage *, kPageCacheSlots> cache_page_;
};

} // namespace core
} // namespace srl

#endif // SRLSIM_CORE_SPEC_MEM_HH
