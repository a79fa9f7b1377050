// Content-addressed verdict cache (DESIGN.md §14): a two-tier
// (in-memory LRU + optional on-disk directory) key -> bytes store, shared
// by Analysis, sweeps, the synthesizer, and `buffy --worker` subprocesses. The values are core's verdict records
// (core::encodeVerdict, the bytes a worker sends back over its pipe); this
// layer never looks inside them.
//
// Keys are content-addressed: the problem hash is a canonical structural
// hash of the pre-optimizer encoded problem (ir::hashSet over the
// encoding's structural constraint sets plus the query's raw delta, each
// term contributing the hash it was interned with), so semantically equal
// problems — the same model recompiled in a worker process lands on the
// same key its parent computed — share one entry, and any change to the
// model, workload, query, horizon, buffer model, or initial-state
// discipline lands on a different key. The raw encoding is hashed (not
// the optimizer's output) because its terms already carry their hashes,
// and because the optimizer is equivalence-preserving, so a hit can skip
// planning entirely. Solve
// budgets, random seeds and the solve path are deliberately NOT part of
// the key: only conclusive verdicts (SAT/UNSAT family, never Unknown or
// canceled) are stored, and conclusive verdicts do not depend on them.
//
// The disk tier is designed to be shared between concurrent runs: records
// are landed write-behind by a background thread (the solve path only
// enqueues the encoded record), written to a temp file and atomically
// renamed, every record is an integrity envelope (support/wire_map.hpp)
// around its own key and value, and ANY malformation (torn write, flipped
// byte, version skew, foreign file) is treated as a miss +
// validation-failure count — the cold path re-solves; a corrupt cache can
// cost time but never a wrong answer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

namespace buffy::cache {

/// Counters surfaced by the CLI's "cache" JSON block. The two CPU
/// counters attribute the cache's own cost directly (thread-CPU clocks
/// around cache work), so a run can report the cache's share of its CPU
/// without a noise-prone differential against an uncached run:
/// `clientSeconds` is solve-path work, timed by the callers in two
/// windows — the engine's probe (key derivation, the tier lookups with
/// any disk-record read, and the record decode on a hit) and
/// core::storeVerdict (record encode, the memory-tier store and the
/// disk-record encode) — and `writerSeconds` is the write-behind thread's
/// file I/O and eviction scans, which it times itself.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
  std::uint64_t validationFailures = 0;
  double clientSeconds = 0.0;
  double writerSeconds = 0.0;
};

/// Everything a cache key derives from. `problemHash` is a combination of
/// ir::hashSet over the pre-optimizer encoding's structural sets and the
/// query's raw delta; the rest is belt-and-braces context that also
/// shapes those constraints.
struct CacheKeyParts {
  std::uint64_t problemHash = 0;
  std::string query;
  int horizon = 0;
  bool forVerify = false;
  int model = 0;  // static_cast<int>(buffers::ModelKind)
  bool symbolicInitialState = false;
};

/// Derives the 32-hex-digit content key (two independently seeded FNV-1a
/// passes over the parts serialized as one WireMap payload — one 64-bit
/// hash would make accidental collisions plausible at daemon scale).
std::string cacheKeyFor(const CacheKeyParts& parts);

/// The calling thread's CPU seconds: the clock behind CacheStats' CPU
/// counters, for callers crediting cache work through addClientSeconds.
/// Each read is a system call, so callers read it once per window.
double threadCpuSeconds();

struct VerdictCacheOptions {
  /// On-disk tier directory; empty = in-memory only. Must exist.
  std::string dir;
  /// In-memory LRU capacity (entries).
  std::size_t maxMemoryEntries = 1024;
  /// Disk tier size cap; 0 = unlimited. Enforced on store by evicting the
  /// oldest records (mtime order).
  std::uint64_t maxDiskBytes = 0;
};

/// Thread-safe two-tier cache. One instance is shared by every engine of
/// a run (and, through the disk directory, by worker subprocesses and
/// other runs).
class VerdictCache {
 public:
  explicit VerdictCache(VerdictCacheOptions options = {});

  /// Joins the write-behind thread after draining its queue — every
  /// store() issued before destruction is on disk once this returns.
  ~VerdictCache();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Memory tier first, then disk; a disk hit is promoted into memory.
  /// Malformed disk records count a validation failure, are deleted, and
  /// read as a miss. Not timed here: the caller credits it
  /// (addClientSeconds) with the rest of its probe.
  std::optional<std::string> lookup(const std::string& key);

  /// Stores into the memory tier synchronously; the disk write is
  /// write-behind (encoded here, landed by a background thread so the
  /// file I/O never sits on the solve path; skipped when a record for
  /// the key already exists). A crash loses queued writes — it can never
  /// tear a record, because landing is still temp-write + rename. Not
  /// timed here: the caller credits it with the record's encoding.
  void store(const std::string& key, const std::string& value);

  /// Blocks until every store() issued so far has landed on disk.
  void flushDisk();

  /// Drops a record the caller found invalid (a value that does not
  /// decode, or a --cache-verify replay divergence) from both tiers and
  /// counts a validation failure. Drains the write-behind queue first so
  /// a queued store of the same key cannot resurrect the record.
  void invalidate(const std::string& key);

  /// Credits cache-attributed CPU to stats().clientSeconds: a caller's
  /// window around key derivation, lookup() or store(), and the
  /// verdict-record codec.
  void addClientSeconds(double seconds);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const VerdictCacheOptions& options() const {
    return options_;
  }

  /// The disk record: an envelope around a two-entry payload, `key` and
  /// `value`, each written and read in one pass. Encode never fails;
  /// decode returns nullopt on any malformation (wrong magic, length or
  /// checksum, malformed payload, or a record that does not echo `key`).
  static std::string encodeRecord(const std::string& key,
                                  const std::string& value);
  static std::optional<std::string> decodeRecord(const std::string& key,
                                                 std::string_view bytes);

  /// The disk path a key maps to ("" when there is no disk tier).
  [[nodiscard]] std::string pathFor(const std::string& key) const;

 private:
  std::optional<std::string> diskLookup(const std::string& key);
  /// Runs on the writer thread: temp-write + rename, returns bytes added
  /// (0 when skipped or failed). Takes no lock — pure file I/O.
  std::uint64_t diskWrite(const std::string& key, const std::string& record,
                          std::uint64_t tempId);
  void writerLoop();
  void enforceDiskLimit();
  void rememberLocked(const std::string& key, const std::string& value);

  VerdictCacheOptions options_;
  mutable std::mutex mutex_;
  CacheStats stats_;
  /// LRU: front = most recent. Entries point into the list.
  std::list<std::pair<std::string, std::string>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, std::string>>::iterator>
      index_;
  /// Approximate disk usage, refreshed by directory scans on eviction.
  std::uint64_t diskBytes_ = 0;
  std::uint64_t tempCounter_ = 0;

  /// Write-behind state (guarded by mutex_). The thread exists only when
  /// a disk tier is configured.
  std::deque<std::pair<std::string, std::string>> writeQueue_;
  std::condition_variable writeCv_;
  std::condition_variable drainCv_;
  bool stopWriter_ = false;
  int writesInFlight_ = 0;
  std::thread writer_;
};

}  // namespace buffy::cache
