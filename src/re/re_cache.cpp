#include "src/re/re_cache.hpp"

#include <sstream>
#include <utility>

#include "src/formalism/serialize.hpp"
#include "src/util/atomic_file.hpp"

namespace slocal {

namespace {

constexpr std::string_view kMagic = "slocal-re-cache 2";

std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Content checksum of an entry: FNV-1a over the numeric stream of both
/// problems (sizes then sorted configurations). Detects any bit flip in the
/// structural payload of a persisted entry.
std::uint64_t entry_checksum(const Problem& input, const Problem& result) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto add_problem = [&](const Problem& p) {
    h = fnv1a_step(h, p.alphabet_size());
    h = fnv1a_step(h, p.white_degree());
    h = fnv1a_step(h, p.black_degree());
    for (const Constraint* c : {&p.white(), &p.black()}) {
      h = fnv1a_step(h, c->size());
      for (const Configuration& cfg : c->sorted_members()) {
        for (const Label l : cfg.labels()) h = fnv1a_step(h, l);
      }
    }
  };
  add_problem(input);
  add_problem(result);
  return h;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::optional<Problem> RECache::lookup(const CanonicalForm& input) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = table_.find(input.fingerprint);
  if (it != table_.end()) {
    for (const Entry& entry : it->second) {
      if (same_constraints(entry.input, input.problem)) {
        ++hits_;
        return entry.result;
      }
    }
    ++collisions_;
  }
  ++misses_;
  return std::nullopt;
}

void RECache::insert(const CanonicalForm& input, const Problem& canonical_result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry>& bucket = table_[input.fingerprint];
  for (const Entry& entry : bucket) {
    if (same_constraints(entry.input, input.problem)) return;
  }
  bucket.push_back(Entry{input.problem, canonical_result});
  ++insertions_;
  ++entries_;
}

RECacheCounters RECache::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  RECacheCounters c;
  c.hits = hits_;
  c.misses = misses_;
  c.insertions = insertions_;
  c.collisions = collisions_;
  c.entries = entries_;
  return c;
}

std::size_t RECache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

std::string RECache::serialize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "entries " << entries_ << '\n';
  for (const auto& [fingerprint, bucket] : table_) {
    for (const Entry& entry : bucket) {
      out << "entry " << hex16(fingerprint) << ' '
          << hex16(entry_checksum(entry.input, entry.result)) << '\n';
      write_problem(out, entry.input);
      write_problem(out, entry.result);
    }
  }
  // The magic names the format (version 2; version 1 had per-entry
  // checksums only, which left bytes outside the numeric stream — tags,
  // whitespace, the entry count — unprotected against bit flips).
  return frame_payload(kMagic, out.str());
}

bool RECache::save(const std::string& path, std::string* error) const {
  // Atomic replace: an interrupted save (SIGKILL, power cut, full disk)
  // must never leave a torn cache at `path` — load would reject it and the
  // next run would fail closed instead of warm-starting.
  std::string io_error;
  if (!write_file_atomic(path, serialize(), &io_error)) {
    return fail(error, "re-cache: " + io_error);
  }
  return true;
}

bool RECache::load(const std::string& path, std::string* error) {
  std::string payload;
  if (!read_framed_file(path, kMagic, "re-cache", &payload, error)) {
    return false;
  }

  std::istringstream in(payload);
  std::string tag;
  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != "entries") {
    return fail(error, "re-cache: malformed entry count");
  }

  // Parse and validate everything before touching the live table, so a
  // corrupt file leaves the cache exactly as it was.
  std::vector<std::pair<CanonicalForm, Problem>> loaded;
  loaded.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t fingerprint = 0, checksum = 0;
    if (!(in >> tag) || tag != "entry" || !read_hex16(in, &fingerprint) ||
        !read_hex16(in, &checksum)) {
      return fail(error, "re-cache: malformed entry header");
    }
    Problem input, result;
    if (!read_problem(in, "cached-input", &input, error, "re-cache")) return false;
    if (!read_problem(in, "cached-result", &result, error, "re-cache")) return false;
    if (entry_checksum(input, result) != checksum) {
      return fail(error, "re-cache: entry checksum mismatch (corrupt file)");
    }
    // The stored input must really be the canonical representative of its
    // claimed class: recanonicalize and compare. This pins the on-disk
    // format to the in-process canonicalization, so a cache produced by an
    // incompatible build is rejected instead of silently mis-keyed.
    CanonicalForm cf = canonicalize(input);
    if (cf.fingerprint != fingerprint || !same_constraints(cf.problem, input)) {
      return fail(error, "re-cache: entry is not in canonical form");
    }
    loaded.emplace_back(std::move(cf), std::move(result));
  }
  if (in >> tag) {
    return fail(error, "re-cache: trailing data after last entry");
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [cf, result] : loaded) {
    std::vector<Entry>& bucket = table_[cf.fingerprint];
    bool present = false;
    for (const Entry& entry : bucket) {
      if (same_constraints(entry.input, cf.problem)) {
        present = true;
        break;
      }
    }
    if (!present) {
      bucket.push_back(Entry{std::move(cf.problem), std::move(result)});
      ++entries_;
    }
  }
  return true;
}

}  // namespace slocal
