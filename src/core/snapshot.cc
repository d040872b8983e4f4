#include "core/snapshot.hh"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>

namespace srl
{
namespace core
{

namespace
{

constexpr char kMagic[] = "srlsim-ckpt-v1\n"; // 15 bytes + NUL
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
constexpr std::uint32_t kCkptVersion = 1;

void
serializeContext(bytes::ByteWriter &w, const SnapshotContext &ctx)
{
    w.u64(ctx.config_digest.lo);
    w.u64(ctx.config_digest.hi);
    w.u64(ctx.suite_digest.lo);
    w.u64(ctx.suite_digest.hi);
    w.u64(ctx.run_seed);
    w.u64(ctx.total_uops);
    w.u64(ctx.ff_uops);
    w.u64(ctx.warm_uops);
    w.u64(ctx.detail_uops);
}

SnapshotContext
deserializeContext(bytes::ByteReader &r)
{
    SnapshotContext ctx;
    ctx.config_digest.lo = r.u64();
    ctx.config_digest.hi = r.u64();
    ctx.suite_digest.lo = r.u64();
    ctx.suite_digest.hi = r.u64();
    ctx.run_seed = r.u64();
    ctx.total_uops = r.u64();
    ctx.ff_uops = r.u64();
    ctx.warm_uops = r.u64();
    ctx.detail_uops = r.u64();
    return ctx;
}

bool
sameContext(const SnapshotContext &a, const SnapshotContext &b)
{
    return a.config_digest.lo == b.config_digest.lo &&
           a.config_digest.hi == b.config_digest.hi &&
           a.suite_digest.lo == b.suite_digest.lo &&
           a.suite_digest.hi == b.suite_digest.hi &&
           a.run_seed == b.run_seed && a.total_uops == b.total_uops &&
           a.ff_uops == b.ff_uops && a.warm_uops == b.warm_uops &&
           a.detail_uops == b.detail_uops;
}

void
serializeMeta(bytes::ByteWriter &w, const SnapshotMeta &meta)
{
    w.u64(meta.consumed_uops);
    w.u64(meta.next_interval);
    w.u64(meta.ff_done);
    w.u64(meta.warm_done);
    w.u64(meta.detail_done);
    visitStatsFields(meta.stats,
                     [&w](const std::uint64_t &v) { w.u64(v); });
    const auto &occ = meta.occupancy.cyclesAt();
    w.u64(occ.size());
    for (const auto &[entries, cycles] : occ) {
        w.u64(entries);
        w.u64(cycles);
    }
}

SnapshotMeta
deserializeMeta(bytes::ByteReader &r)
{
    SnapshotMeta meta;
    meta.consumed_uops = r.u64();
    meta.next_interval = r.u64();
    meta.ff_done = r.u64();
    meta.warm_done = r.u64();
    meta.detail_done = r.u64();
    visitStatsFields(meta.stats,
                     [&r](std::uint64_t &v) { v = r.u64(); });
    const std::uint64_t buckets = r.u64();
    for (std::uint64_t i = 0; i < buckets; ++i) {
        const std::uint64_t entries = r.u64();
        const std::uint64_t cycles = r.u64();
        meta.occupancy.observe(entries, cycles);
    }
    return meta;
}

/**
 * Decode and validate a checkpoint payload (context check, state
 * restore, trailing-bytes check). @p what names the source in error
 * messages. The digest field of the result is left zero.
 */
LoadedSnapshot
parsePayload(const char *payload, std::size_t payload_size,
             const SnapshotContext &ctx, SimState &sim,
             const std::string &what)
{
    try {
        bytes::ByteReader r(payload, payload_size);
        const SnapshotContext stored = deserializeContext(r);
        if (!sameContext(stored, ctx))
            throw SnapshotError(
                "snapshot: context mismatch in " + what +
                " (different config/suite/seed/plan)");
        LoadedSnapshot out;
        out.meta = deserializeMeta(r);
        sim.deserialize(r);
        out.gen.deserialize(r);
        r.expectEnd();
        return out;
    } catch (const bytes::CodecError &e) {
        throw SnapshotError("snapshot: malformed payload in " + what +
                            ": " + e.what());
    }
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

} // namespace

SnapshotContext
makeSnapshotContext(const ProcessorConfig &config,
                    const workload::SuiteProfile &suite,
                    std::uint64_t total_uops, std::uint64_t run_seed,
                    std::uint64_t ff_uops, std::uint64_t warm_uops,
                    std::uint64_t detail_uops)
{
    SnapshotContext ctx;
    ctx.config_digest =
        chash::hashString(chash::serializeConfig(config));
    ctx.suite_digest = chash::hashString(chash::serializeSuite(suite));
    ctx.run_seed = run_seed;
    ctx.total_uops = total_uops;
    ctx.ff_uops = ff_uops;
    ctx.warm_uops = warm_uops;
    ctx.detail_uops = detail_uops;
    return ctx;
}

void
accumulateStats(ProcessorStats &a, const ProcessorStats &b)
{
    std::array<std::uint64_t, 31> src{};
    std::size_t n = 0;
    visitStatsFields(b, [&](const std::uint64_t &v) { src[n++] = v; });
    std::size_t i = 0;
    visitStatsFields(a, [&](std::uint64_t &v) { v += src[i++]; });
}

std::string
buildSnapshotPayload(const SnapshotContext &ctx,
                     const SnapshotMeta &meta, const SimState &sim,
                     const workload::GeneratorState &gen,
                     std::string &&recycled)
{
    bytes::ByteWriter w(std::move(recycled));
    serializeContext(w, ctx);
    serializeMeta(w, meta);
    sim.serialize(w);
    gen.serialize(w);
    return w.take();
}

chash::Hash128
snapshotDigest(const SnapshotContext &ctx, const SnapshotMeta &meta,
               const SimState &sim, const workload::GeneratorState &gen)
{
    const std::string payload =
        buildSnapshotPayload(ctx, meta, sim, gen);
    return chash::hashBytes(payload.data(), payload.size());
}

chash::Hash128
writeSnapshotPayload(const std::string &path,
                     const std::string &payload)
{
    const chash::Hash128 digest =
        chash::hashBytes(payload.data(), payload.size());

    bytes::ByteWriter w;
    w.raw(kMagic, kMagicLen);
    w.u32(kCkptVersion);
    w.u64(payload.size());
    w.u64(digest.lo);
    w.u64(digest.hi);
    w.raw(payload.data(), payload.size());
    const std::string &blob = w.data();

    // Atomic publish: temp file + rename (service::ResultCache idiom)
    // so an interrupted or failed write never leaves a partial file
    // under the final name.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw SnapshotError("snapshot: cannot create " + tmp);
    bool ok =
        std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
    ok = std::fflush(f) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        throw SnapshotError("snapshot: short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("snapshot: cannot rename into " + path);
    }
    return digest;
}

chash::Hash128
saveSnapshot(const std::string &path, const SnapshotContext &ctx,
             const SnapshotMeta &meta, const SimState &sim,
             const workload::GeneratorState &gen)
{
    return writeSnapshotPayload(
        path, buildSnapshotPayload(ctx, meta, sim, gen));
}

LoadedSnapshot
loadSnapshot(const std::string &path, const SnapshotContext &ctx,
             SimState &sim)
{
    std::string blob;
    if (!readWholeFile(path, blob))
        throw SnapshotError("snapshot: cannot read " + path);

    constexpr std::size_t kHeaderSize =
        kMagicLen + sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t);
    if (blob.size() < kHeaderSize)
        throw SnapshotError("snapshot: truncated header in " + path);
    if (std::memcmp(blob.data(), kMagic, kMagicLen) != 0)
        throw SnapshotError("snapshot: bad magic in " + path);

    bytes::ByteReader hdr(blob.data() + kMagicLen,
                          kHeaderSize - kMagicLen);
    const std::uint32_t version = hdr.u32();
    if (version != kCkptVersion)
        throw SnapshotError("snapshot: unsupported version " +
                            std::to_string(version) + " in " + path);
    const std::uint64_t payload_size = hdr.u64();
    chash::Hash128 digest;
    digest.lo = hdr.u64();
    digest.hi = hdr.u64();
    if (blob.size() - kHeaderSize != payload_size)
        throw SnapshotError("snapshot: payload size mismatch in " +
                            path);

    const char *payload = blob.data() + kHeaderSize;
    const chash::Hash128 actual =
        chash::hashBytes(payload, payload_size);
    if (actual.lo != digest.lo || actual.hi != digest.hi)
        throw SnapshotError("snapshot: payload digest mismatch in " +
                            path + " (corrupt file)");

    LoadedSnapshot out = parsePayload(payload, payload_size, ctx, sim, path);
    out.digest = digest;
    return out;
}

LoadedSnapshot
adoptSnapshotPayload(const std::string &payload,
                     const SnapshotContext &ctx, SimState &sim)
{
    return parsePayload(payload.data(), payload.size(), ctx, sim,
                        "<in-memory payload>");
}

std::string
replaceSnapshotMeta(const std::string &payload, const SnapshotMeta &meta,
                    std::string &&recycled)
{
    std::size_t meta_begin = 0, meta_end = 0;
    try {
        bytes::ByteReader r(payload);
        deserializeContext(r);
        meta_begin = payload.size() - r.remaining();
        deserializeMeta(r);
        meta_end = payload.size() - r.remaining();
    } catch (const bytes::CodecError &e) {
        throw SnapshotError(std::string("snapshot: malformed payload: ") +
                            e.what());
    }
    bytes::ByteWriter w(std::move(recycled));
    w.raw(payload.data(), meta_begin);
    serializeMeta(w, meta);
    w.raw(payload.data() + meta_end, payload.size() - meta_end);
    return w.take();
}

std::string
snapshotFileName(const SnapshotContext &ctx, std::uint64_t interval)
{
    bytes::ByteWriter w;
    w.str("srlsim-ckpt-name-v1-pipelined");
    serializeContext(w, ctx);
    w.u64(interval);
    const std::string &b = w.data();
    return "ckpt-" + chash::hashBytes(b.data(), b.size()).toHex() +
           ".v1";
}

} // namespace core
} // namespace srl
