#include "compiler/cache.hh"

#include <cstdlib>

#include "common/rng.hh"
#include "obs/metrics.hh"

namespace qcc {

namespace {

/**
 * The cache's event counts live only in the process-wide metrics
 * registry (so METRICS_*.json and sweepd's merged worker counts see
 * them, and stats() reads them back); this struct is one-time name
 * resolution, cached because registry lookup takes a lock.
 */
struct Counters
{
    MetricCounter &hits = metricCounter("compile.cache.hits");
    MetricCounter &misses = metricCounter("compile.cache.misses");
    MetricCounter &rebinds = metricCounter("compile.cache.rebinds");
    MetricCounter &evictions =
        metricCounter("compile.cache.evictions");
};

Counters &
counters()
{
    static Counters c;
    return c;
}

} // namespace

uint64_t
CacheKey::hash() const
{
    // splitmix64-style word mix; collisions are harmless (the full
    // word stream is compared on probe) so speed wins over strength.
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t w : words) {
        h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
    }
    return h;
}

void
CircuitCache::setDiskTier(std::shared_ptr<DiskTier> tier)
{
    std::lock_guard<std::mutex> lock(mtx);
    disk = std::move(tier);
}

bool
CircuitCache::insertMemo(const CacheKey &key,
                         std::shared_ptr<const CachedCompile> sp)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (entries >= cap) {
        table.clear();
        counters().evictions.add(entries);
        entries = 0;
    }
    auto &bucket = table[key.hash()];
    for (const auto &[k, v] : bucket)
        if (k == key)
            return false;
    bucket.emplace_back(key, std::move(sp));
    ++entries;
    return true;
}

bool
CircuitCache::lookup(const CacheKey &key,
                     const std::vector<double> &angles,
                     CachedCompile &out)
{
    std::shared_ptr<const CachedCompile> found;
    std::shared_ptr<DiskTier> tier;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = table.find(key.hash());
        if (it != table.end())
            for (const auto &[k, v] : it->second)
                if (k == key) {
                    found = v;
                    break;
                }
        if (found && found->rzIndex.size() != angles.size())
            found.reset();
        tier = disk;
    }

    if (!found && tier) {
        // Second-tier probe outside the lock: file IO must never
        // serialize the other workers' memory probes.
        CachedCompile entry;
        if (tier->load(key, entry) &&
            entry.rzIndex.size() == angles.size()) {
            found =
                std::make_shared<const CachedCompile>(std::move(entry));
            // Promote into the memory table (no write-back to disk:
            // the entry just came from there).
            insertMemo(key, found);
        }
    }

    if (!found) {
        counters().misses.add();
        return false;
    }
    counters().hits.add();
    if (!found->rzIndex.empty())
        counters().rebinds.add();

    // Copy and rebind outside the lock: rewrite each memoized RZ
    // with the caller's angles.
    out = *found;
    auto &gates = out.circuit.gates();
    for (size_t k = 0; k < out.rzIndex.size(); ++k)
        gates[out.rzIndex[k]].angle = angles[k];
    return true;
}

void
CircuitCache::insert(const CacheKey &key, CachedCompile entry)
{
    auto sp = std::make_shared<const CachedCompile>(std::move(entry));
    if (!insertMemo(key, sp))
        return; // duplicate: already memoized (and persisted)
    std::shared_ptr<DiskTier> tier;
    {
        std::lock_guard<std::mutex> lock(mtx);
        tier = disk;
    }
    // Write-through outside the lock; best effort (the store counts
    // its own writes as store.circuit.disk_writes).
    if (tier)
        tier->save(key, *sp);
}

void
CircuitCache::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    counters().evictions.add(entries);
    entries = 0;
    table.clear();
}

CacheStats
CircuitCache::stats() const
{
    const Counters &c = counters();
    CacheStats s;
    s.hits = c.hits.value();
    s.misses = c.misses.value();
    s.rebinds = c.rebinds.value();
    s.evictions = c.evictions.value();
    std::lock_guard<std::mutex> lock(mtx);
    s.entries = entries;
    return s;
}

CircuitCache &
globalCircuitCache()
{
    static CircuitCache cache(
        size_t(envUint("QCC_COMPILE_CACHE_CAP", 8192, 1)));
    // The persistent tier is attached exactly once; it consults the
    // store configuration (QCC_STORE_DIR / setStoreDir) on every
    // call, so attaching it while the store is disabled costs one
    // predicate per miss.
    static const bool attached = [] {
        cache.setDiskTier(makeGlobalCircuitDiskTier());
        return true;
    }();
    (void)attached;
    return cache;
}

bool
circuitCacheEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("QCC_COMPILE_CACHE");
        return !(env && std::string(env) == "0");
    }();
    return enabled;
}

} // namespace qcc
