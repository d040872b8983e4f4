/**
 * @file
 * Canonical serialization and content hashing for design points.
 *
 * A design point — (ProcessorConfig, SuiteProfile, uops, run_seed) —
 * fully determines a simulation's result (the determinism contract of
 * the sweep runner), so a collision-resistant digest of the point is a
 * safe content address for memoizing completed runs.
 *
 * The serialization is *canonical*: every field is emitted explicitly,
 * in a fixed schema order, as a (type tag, field name, little-endian
 * value) triple. Struct layout, padding, and the order in which a
 * request happened to populate fields are all irrelevant — identical
 * points serialize to identical bytes regardless of origin, and
 * re-serializing a point is byte-stable. A schema version string is
 * folded into every digest so a field addition or reordering of the
 * canonical schema invalidates old cache entries wholesale instead of
 * silently aliasing them.
 *
 * The digest is a 128-bit non-cryptographic mix (two independently
 * keyed 64-bit lanes, SplitMix64-finalized per block). It addresses
 * accidental collisions among design points, not adversarial inputs.
 */

#ifndef SRLSIM_COMMON_CHASH_HH
#define SRLSIM_COMMON_CHASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace srl
{
namespace core
{
struct ProcessorConfig;
} // namespace core
namespace workload
{
struct SuiteProfile;
} // namespace workload

namespace chash
{

/** Canonical-schema version; folded into every digest. */
extern const char kSchemaVersion[];

/** A 128-bit content digest. */
struct Hash128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const Hash128 &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
    bool operator!=(const Hash128 &o) const { return !(*this == o); }

    /** 32 lowercase hex chars (hi then lo), usable as a file name. */
    std::string toHex() const;
};

/** Digest an arbitrary byte string. */
Hash128 hashBytes(const void *data, std::size_t len);

inline Hash128
hashString(const std::string &s)
{
    return hashBytes(s.data(), s.size());
}

/**
 * Canonical field-by-field serializer. Fields are appended as
 * (u8 type tag, u16 name length, name bytes, fixed-width little-endian
 * value); sections as begin/end markers. The writer makes no attempt
 * to be compact — it is the *stability* of the bytes that matters.
 */
class CanonicalWriter
{
  public:
    void u64(const char *name, std::uint64_t v);
    void u32(const char *name, std::uint32_t v);
    /** Doubles are serialized as their IEEE-754 bit pattern. */
    void f64(const char *name, double v);
    void boolean(const char *name, bool v);
    void str(const char *name, const std::string &v);
    /** Enums are serialized as a named u32 of the underlying value. */
    template <typename E>
    void
    enumeration(const char *name, E v)
    {
        u32(name, static_cast<std::uint32_t>(v));
    }

    void begin(const char *section);
    void end(const char *section);

    const std::string &bytes() const { return bytes_; }

  private:
    void tagAndName(std::uint8_t tag, const char *name);

    std::string bytes_;
};

/** Canonical bytes of a full processor configuration (every field). */
std::string serializeConfig(const core::ProcessorConfig &config);

/** Canonical bytes of a full workload suite profile (every field). */
std::string serializeSuite(const workload::SuiteProfile &suite);

/**
 * Content address of one design point. @p run_seed is the raw
 * seed_override handed to core::runOne — zero (suite-canonical seed)
 * is deliberately kept distinct from an explicit seed equal to the
 * suite's, because the two re-key the snoop stream differently.
 * @p occupancy_series is part of the address because it changes which
 * metrics the resulting record carries.
 */
Hash128 pointKey(const core::ProcessorConfig &config,
                 const workload::SuiteProfile &suite,
                 std::uint64_t uops, std::uint64_t run_seed,
                 bool occupancy_series = true);

/**
 * Sampled-run variant: folds the sampling plan (per-interval
 * ff/warm/detail uops and the shard window) into the address. When the
 * whole plan is zero (a fully detailed run) this is exactly the plain
 * pointKey — existing cache entries keep their addresses. Otherwise
 * the sampling block opens with an engine tag. The detail-worker
 * count is deliberately NOT part of the key: results are
 * byte-identical at any worker count.
 */
Hash128 pointKey(const core::ProcessorConfig &config,
                 const workload::SuiteProfile &suite,
                 std::uint64_t uops, std::uint64_t run_seed,
                 bool occupancy_series, std::uint64_t ff_uops,
                 std::uint64_t warm_uops, std::uint64_t detail_uops,
                 std::uint64_t shard_start, std::uint64_t shard_count);

} // namespace chash
} // namespace srl

#endif // SRLSIM_COMMON_CHASH_HH
