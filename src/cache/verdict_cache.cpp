#include "cache/verdict_cache.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <vector>

#include "support/wire_map.hpp"

namespace buffy::cache {

namespace {

const char* const kSuffix = ".bfc";

struct DiskRecord {
  std::string path;
  std::uint64_t bytes = 0;
  std::int64_t mtime = 0;
};

/// The `*.bfc` records in `dir` (none when it cannot be read).
std::vector<DiskRecord> diskRecords(const std::string& dir) {
  std::vector<DiskRecord> records;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return records;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() <= 4 || name.compare(name.size() - 4, 4, kSuffix) != 0) {
      continue;
    }
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) continue;
    records.push_back({path, static_cast<std::uint64_t>(st.st_size),
                       static_cast<std::int64_t>(st.st_mtime)});
  }
  ::closedir(handle);
  return records;
}

}  // namespace

double threadCpuSeconds() {
  // Excludes time blocked on a mutex or in I/O wait, so deltas attribute
  // only work actually done.
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string cacheKeyFor(const CacheKeyParts& parts) {
  std::string bytes;
  bytes.reserve(160 + parts.query.size());
  WireWriter blob(bytes);
  blob.putBool("forVerify", parts.forVerify);
  blob.putInt("horizon", parts.horizon);
  blob.putInt("model", parts.model);
  blob.putUint("problemHash", parts.problemHash);
  blob.put("query", parts.query);
  blob.putBool("symbolicInitialState", parts.symbolicInitialState);
  blob.finish();

  const std::uint64_t lo = fnv1a64(bytes);
  const std::uint64_t hi = fnv1a64(bytes, 1099511628211ull * 31 + 7);
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kDigits[(hi >> (4 * i)) & 15];
    out[static_cast<std::size_t>(31 - i)] = kDigits[(lo >> (4 * i)) & 15];
  }
  return out;
}

std::string VerdictCache::encodeRecord(const std::string& key,
                                       const std::string& value) {
  // The payload: its count and four length words (20 bytes), "key" and
  // "value" (8), and the two values.
  std::string out;
  out.reserve(kEnvelopeHeaderBytes + 28 + key.size() + value.size() +
              kEnvelopeTrailerBytes);
  const std::size_t start = beginEnvelope(out);
  WireWriter record(out);
  record.put("key", key);
  record.put("value", value);
  record.finish();
  endEnvelope(out, start);
  return out;
}

std::optional<std::string> VerdictCache::decodeRecord(const std::string& key,
                                                      std::string_view bytes) {
  static constexpr std::array<std::string_view, 2> kFields = {"key", "value"};
  try {
    const auto fields = readWireFields(openEnvelope(bytes), kFields,
                                       [](std::string_view, std::string_view) {});
    // A record renamed onto the wrong key (or a hand-copied file) must not
    // answer a different question.
    if (requireWireField("key", fields[0]) != key) return std::nullopt;
    return std::string(requireWireField("value", fields[1]));
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

VerdictCache::VerdictCache(VerdictCacheOptions options)
    : options_(std::move(options)) {
  if (!options_.dir.empty()) {
    // Prime the usage estimate so a pre-populated shared directory is
    // governed by --cache-max-mb from the first store.
    for (const DiskRecord& record : diskRecords(options_.dir)) {
      diskBytes_ += record.bytes;
    }
    writer_ = std::thread([this] { writerLoop(); });
  }
}

VerdictCache::~VerdictCache() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopWriter_ = true;
    }
    writeCv_.notify_all();
    writer_.join();  // the loop drains the queue before honoring stop
  }
}

std::string VerdictCache::pathFor(const std::string& key) const {
  if (options_.dir.empty()) return "";
  return options_.dir + "/" + key + kSuffix;
}

std::optional<std::string> VerdictCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<std::string> value;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    value = it->second->second;
  } else if (!options_.dir.empty()) {
    value = diskLookup(key);
    if (value) rememberLocked(key, *value);
  }
  ++(value ? stats_.hits : stats_.misses);
  return value;
}

std::optional<std::string> VerdictCache::diskLookup(const std::string& key) {
  const std::string path = pathFor(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto decoded = decodeRecord(key, buffer.str());
  if (!decoded) {
    // Torn write, flipped byte, old format: delete the husk so later
    // lookups do not pay the read again, count it, read as a miss.
    ++stats_.validationFailures;
    ::unlink(path.c_str());
    return std::nullopt;
  }
  return decoded;
}

void VerdictCache::rememberLocked(const std::string& key,
                                  const std::string& value) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, value);
  index_[key] = lru_.begin();
  while (lru_.size() > std::max<std::size_t>(1, options_.maxMemoryEntries)) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void VerdictCache::store(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  rememberLocked(key, value);
  if (!options_.dir.empty()) {
    // Write-behind: encode now, land later. The existing-record check
    // also moves off the solve path — the writer stats the file before
    // writing.
    writeQueue_.emplace_back(key, encodeRecord(key, value));
    writeCv_.notify_one();
  }
}

void VerdictCache::flushDisk() {
  std::unique_lock<std::mutex> lock(mutex_);
  drainCv_.wait(lock,
                [this] { return writeQueue_.empty() && writesInFlight_ == 0; });
}

void VerdictCache::writerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    writeCv_.wait(lock, [this] { return stopWriter_ || !writeQueue_.empty(); });
    if (writeQueue_.empty()) {
      if (stopWriter_) return;  // drained — safe to exit
      continue;
    }
    const auto [key, record] = std::move(writeQueue_.front());
    writeQueue_.pop_front();
    ++writesInFlight_;
    const std::uint64_t tempId = ++tempCounter_;
    lock.unlock();
    const double cpuStart = threadCpuSeconds();
    const std::uint64_t added = diskWrite(key, record, tempId);
    lock.lock();
    diskBytes_ += added;
    if (added > 0 && options_.maxDiskBytes > 0 &&
        diskBytes_ > options_.maxDiskBytes) {
      enforceDiskLimit();
    }
    stats_.writerSeconds += threadCpuSeconds() - cpuStart;
    --writesInFlight_;
    if (writeQueue_.empty() && writesInFlight_ == 0) drainCv_.notify_all();
  }
}

std::uint64_t VerdictCache::diskWrite(const std::string& key,
                                      const std::string& record,
                                      std::uint64_t tempId) {
  const std::string path = pathFor(key);
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) return 0;  // already on disk
  // Concurrent-writer safety: each writer lands its record under a unique
  // temp name, then renames into place. rename() is atomic, so a reader
  // (this process or another run sharing the directory) sees either no
  // file or a whole record — never a torn one. Two writers racing on one
  // key both write identical content; last rename wins.
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(tempId);
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return 0;  // unwritable dir: silently stay memory-only
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    if (!out) {
      out.close();
      ::unlink(temp.c_str());
      return 0;
    }
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return 0;
  }
  return record.size();
}

void VerdictCache::enforceDiskLimit() {
  std::vector<DiskRecord> records = diskRecords(options_.dir);
  diskBytes_ = 0;
  for (const DiskRecord& record : records) diskBytes_ += record.bytes;
  if (diskBytes_ <= options_.maxDiskBytes) return;
  std::sort(records.begin(), records.end(),
            [](const DiskRecord& a, const DiskRecord& b) {
              return a.mtime < b.mtime;
            });
  // Drop to ~90% of the cap so every store does not rescan the directory.
  const std::uint64_t target = options_.maxDiskBytes * 9 / 10;
  for (const DiskRecord& record : records) {
    if (diskBytes_ <= target) break;
    if (::unlink(record.path.c_str()) != 0) continue;
    diskBytes_ -= std::min(diskBytes_, record.bytes);
    ++stats_.evictions;
  }
}

void VerdictCache::invalidate(const std::string& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.validationFailures;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (options_.dir.empty()) return;
  // A queued or in-flight write-behind store of this key must not land
  // after the unlink and resurrect the record. Invalidation is rare
  // (corruption, --cache-verify mismatch), so draining is affordable.
  for (auto qit = writeQueue_.begin(); qit != writeQueue_.end();) {
    qit = qit->first == key ? writeQueue_.erase(qit) : std::next(qit);
  }
  drainCv_.wait(lock,
                [this] { return writeQueue_.empty() && writesInFlight_ == 0; });
  ::unlink(pathFor(key).c_str());
}

void VerdictCache::addClientSeconds(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.clientSeconds += seconds;
}

CacheStats VerdictCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace buffy::cache
