#include "src/formalism/serialize.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

namespace slocal {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Exactly 16 lowercase hex digits, the spelling hex16 writes.
bool parse_hex16(std::string_view text, std::uint64_t* out) {
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit && (c < 'a' || c > 'f')) return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
  }
  *out = v;
  return true;
}

}  // namespace

std::uint64_t fnv1a_bytes(std::string_view data) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool read_hex16(std::istream& in, std::uint64_t* out) {
  std::string token;
  return static_cast<bool>(in >> token) && parse_hex16(token, out);
}

std::string frame_payload(std::string_view magic, std::string_view payload) {
  return std::string(magic) + "\nchecksum " + hex16(fnv1a_bytes(payload)) + "\n" +
         std::string(payload);
}

bool read_framed_file(const std::string& path, std::string_view magic,
                      const std::string& context, std::string* payload,
                      std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return fail(error, context + ": cannot open '" + path + "'");
  std::string line;
  if (!std::getline(file, line) || line != magic) {
    // The format name is the magic up to (and with) the space before its
    // version number.
    const std::string name(magic.substr(0, magic.rfind(' ') + 1));
    return fail(error, line.rfind(name, 0) == 0
                           ? context + ": unsupported version ('" + line + "')"
                           : context + ": '" + path + "' is not a " + name + "file");
  }
  std::uint64_t stored = 0;
  if (!std::getline(file, line) || line.rfind("checksum ", 0) != 0 ||
      !parse_hex16(std::string_view(line).substr(9), &stored)) {
    return fail(error, context + ": malformed checksum line");
  }
  std::ostringstream raw;
  raw << file.rdbuf();
  std::string bytes = raw.str();
  if (fnv1a_bytes(bytes) != stored) {
    return fail(error, context + ": payload checksum mismatch (corrupt file)");
  }
  *payload = std::move(bytes);
  return true;
}

void write_problem(std::ostream& out, const Problem& p) {
  out << "problem " << p.alphabet_size() << ' ' << p.white_degree() << ' '
      << p.black_degree() << ' ' << p.white().size() << ' ' << p.black().size()
      << '\n';
  const auto write_side = [&](char tag, const Constraint& c) {
    for (const Configuration& cfg : c.sorted_members()) {
      out << tag;
      for (const Label l : cfg.labels()) out << ' ' << static_cast<unsigned>(l);
      out << '\n';
    }
  };
  write_side('w', p.white());
  write_side('b', p.black());
}

bool read_problem(std::istream& in, const std::string& name, Problem* out,
                  std::string* error, const std::string& context) {
  std::string tag;
  std::size_t n = 0, dw = 0, db = 0, nw = 0, nb = 0;
  if (!(in >> tag >> n >> dw >> db >> nw >> nb) || tag != "problem") {
    return fail(error, context + ": malformed problem header");
  }
  // Same cap as the parser's 64-label alphabet limit.
  if (n > 64) return fail(error, context + ": alphabet size out of range");
  if (dw == 0 || db == 0 || dw > 64 || db > 64) {
    return fail(error, context + ": degree out of range");
  }
  LabelRegistry reg;
  for (std::size_t c = 0; c < n; ++c) reg.intern(std::to_string(c));
  const auto read_side = [&](char want, std::size_t degree, std::size_t count,
                             Constraint* side) {
    *side = Constraint(degree);
    for (std::size_t i = 0; i < count; ++i) {
      std::string row_tag;
      if (!(in >> row_tag) || row_tag.size() != 1 || row_tag[0] != want) {
        return fail(error, context + ": malformed configuration row");
      }
      std::vector<Label> labels(degree);
      for (std::size_t k = 0; k < degree; ++k) {
        unsigned v = 0;
        if (!(in >> v) || v >= n) {
          return fail(error, context + ": label out of range");
        }
        labels[k] = static_cast<Label>(v);
      }
      if (!side->add(Configuration(std::move(labels)))) {
        return fail(error, context + ": duplicate configuration");
      }
    }
    return true;
  };
  Constraint white, black;
  if (!read_side('w', dw, nw, &white)) return false;
  if (!read_side('b', db, nb, &black)) return false;
  *out = Problem(name, std::move(reg), std::move(white), std::move(black));
  return true;
}

}  // namespace slocal
