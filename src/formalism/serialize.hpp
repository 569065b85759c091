// Plain-text serialization shared by every on-disk format in the
// repository (the RE cache, proof certificates, discover checkpoints): the
// checksummed file envelope, 16-digit hex fields, and problems. One problem
// is a header line
//
//   problem <alphabet> <white-degree> <black-degree> <|W|> <|B|>
//
// followed by one `w ...` row per white configuration and one `b ...` row
// per black configuration, labels as decimal indices in sorted member
// order. read_problem range-checks every count and label against the same
// caps the problem parser enforces, so a damaged stream is rejected with a
// structured error instead of constructing an out-of-range problem.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/formalism/problem.hpp"

namespace slocal {

/// FNV-1a over raw bytes. Every on-disk format checksums its entire payload
/// with this (through the envelope below), byte for byte, so any bit flip —
/// including whitespace-preserving ones that token-stream parsing would
/// absorb — fails the load before any content is interpreted.
std::uint64_t fnv1a_bytes(std::string_view data);

/// The envelope of every on-disk format:
///
///   <magic>\n
///   checksum <16 hex digits>\n
///   <payload>
///
/// where the checksum is fnv1a_bytes(payload).
std::string frame_payload(std::string_view magic, std::string_view payload);

/// Reads the file at `path` and checks its envelope: the first line must be
/// exactly `magic`, the checksum line well-formed, and the checksum must
/// match every payload byte. On success *payload holds the bytes after the
/// checksum line. On failure returns false with a message prefixed by
/// `context` (e.g. "re-cache") in *error, and *payload is untouched.
bool read_framed_file(const std::string& path, std::string_view magic,
                      const std::string& context, std::string* payload,
                      std::string* error);

/// A 64-bit value as exactly 16 lowercase hex digits, the spelling of every
/// fingerprint and checksum on disk.
std::string hex16(std::uint64_t v);
/// Reads one whitespace-delimited token that must be exactly 16 lowercase
/// hex digits.
bool read_hex16(std::istream& in, std::uint64_t* out);

void write_problem(std::ostream& out, const Problem& p);

/// Parses one serialized problem into *out, giving it `name` and a synthetic
/// registry ("0".."n-1"). On failure returns false and, when `error` is
/// non-null, stores a message prefixed with `context` (e.g. "re-cache").
bool read_problem(std::istream& in, const std::string& name, Problem* out,
                  std::string* error, const std::string& context);

}  // namespace slocal
