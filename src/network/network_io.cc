#include "network/network_io.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace teamdisc {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

// Lossless, unlike the old underscore folding ("John Smith" used to come
// back as "John_Smith").
std::string EscapeNetworkToken(std::string_view name) {
  if (name.empty()) return "%00";
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '%' || c == ',' || std::isspace(u)) {
      out += '%';
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeNetworkToken(std::string_view token) {
  if (token == "%00") return std::string();
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      return Status::InvalidArgument("dangling escape in name '" +
                                     std::string(token) + "'");
    }
    const int hi = HexDigit(token[i + 1]);
    const int lo = HexDigit(token[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("malformed escape in name '" +
                                     std::string(token) + "'");
    }
    out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return out;
}

std::string EncodeSkillList(const std::vector<std::string>& skills) {
  std::string out;
  for (size_t i = 0; i < skills.size(); ++i) {
    if (i > 0) out += ',';
    out += EscapeNetworkToken(skills[i]);
  }
  if (out.empty()) {
    out = "-";
  } else if (out == "-") {
    // A single skill literally named "-" would collide with the
    // empty-skill-list sentinel; escape it so it round-trips.
    out = "%2D";
  }
  return out;
}

Result<std::vector<std::string>> DecodeSkillList(std::string_view token) {
  std::vector<std::string> skills;
  if (token == "-") return skills;
  for (std::string_view s : Split(token, ',')) {
    if (s.empty()) return Status::InvalidArgument("empty skill name");
    TD_ASSIGN_OR_RETURN(std::string skill, UnescapeNetworkToken(s));
    skills.push_back(std::move(skill));
  }
  return skills;
}

std::string SerializeNetwork(const ExpertNetwork& net) {
  std::string out = "# teamdisc expert network v2\n";
  out += "format 2\n";
  out += StrFormat("experts %u\n", net.num_experts());
  for (NodeId id = 0; id < net.num_experts(); ++id) {
    const Expert& e = net.expert(id);
    std::vector<std::string> skill_names;
    skill_names.reserve(e.skills.size());
    for (SkillId s : e.skills) {
      skill_names.push_back(net.skills().NameUnchecked(s));
    }
    out += StrFormat("%u %.17g %u %s %s\n", id, e.authority, e.num_publications,
                     EscapeNetworkToken(e.name).c_str(),
                     EncodeSkillList(skill_names).c_str());
  }
  std::vector<Edge> edges = net.graph().CanonicalEdges();
  out += StrFormat("edges %zu\n", edges.size());
  for (const Edge& e : edges) {
    out += StrFormat("%u %u %.17g\n", e.u, e.v, e.weight);
  }
  return out;
}

Result<ExpertNetwork> DeserializeNetwork(const std::string& content) {
  std::istringstream in(content);
  std::string line;
  size_t line_no = 0;
  enum class Section { kStart, kExperts, kEdges } section = Section::kStart;
  bool saw_format = false;
  uint64_t expected_experts = 0, expected_edges = 0;
  uint64_t seen_experts = 0, seen_edges = 0;
  ExpertNetworkBuilder builder;

  auto decode_name = [&line_no](std::string_view token) -> Result<std::string> {
    Result<std::string> decoded = UnescapeNetworkToken(token);
    if (!decoded.ok()) {
      return decoded.status().WithContext(StrFormat("line %zu", line_no));
    }
    return decoded;
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    auto fields = SplitWhitespace(stripped);
    if (fields[0] == "format") {
      if (section != Section::kStart || fields.size() != 2) {
        return Status::InvalidArgument(
            StrFormat("line %zu: malformed format header", line_no));
      }
      TD_ASSIGN_OR_RETURN(uint64_t format_version, ParseUint64(fields[1]));
      if (format_version != 2) {
        return Status::InvalidArgument(
            StrFormat("line %zu: unsupported network format %llu", line_no,
                      static_cast<unsigned long long>(format_version)));
      }
      saw_format = true;
      continue;
    }
    if (!saw_format) {
      return Status::InvalidArgument(StrFormat(
          "line %zu: expected the 'format 2' line first", line_no));
    }
    if (fields[0] == "experts") {
      if (section != Section::kStart || fields.size() != 2) {
        return Status::InvalidArgument(
            StrFormat("line %zu: malformed experts header", line_no));
      }
      TD_ASSIGN_OR_RETURN(expected_experts, ParseUint64(fields[1]));
      section = Section::kExperts;
      continue;
    }
    if (fields[0] == "edges") {
      if (section != Section::kExperts || fields.size() != 2) {
        return Status::InvalidArgument(
            StrFormat("line %zu: malformed edges header", line_no));
      }
      if (seen_experts != expected_experts) {
        return Status::InvalidArgument(
            StrFormat("expected %llu experts, saw %llu",
                      static_cast<unsigned long long>(expected_experts),
                      static_cast<unsigned long long>(seen_experts)));
      }
      TD_ASSIGN_OR_RETURN(expected_edges, ParseUint64(fields[1]));
      section = Section::kEdges;
      continue;
    }
    if (section == Section::kExperts) {
      if (fields.size() != 5) {
        return Status::InvalidArgument(
            StrFormat("line %zu: expected 'id authority pubs name skills'", line_no));
      }
      TD_ASSIGN_OR_RETURN(uint64_t id, ParseUint64(fields[0]));
      if (id != seen_experts) {
        return Status::InvalidArgument(
            StrFormat("line %zu: expert ids must be dense and ordered", line_no));
      }
      TD_ASSIGN_OR_RETURN(double authority, ParseDouble(fields[1]));
      TD_ASSIGN_OR_RETURN(uint64_t pubs, ParseUint64(fields[2]));
      TD_ASSIGN_OR_RETURN(std::string name, decode_name(fields[3]));
      std::vector<std::string> skills;
      if (fields[4] != "-") {
        for (std::string_view s : Split(fields[4], ',')) {
          if (s.empty()) {
            return Status::InvalidArgument(
                StrFormat("line %zu: empty skill name", line_no));
          }
          TD_ASSIGN_OR_RETURN(std::string skill, decode_name(s));
          skills.push_back(std::move(skill));
        }
      }
      builder.AddExpert(std::move(name), std::move(skills), authority,
                        static_cast<uint32_t>(pubs));
      ++seen_experts;
      continue;
    }
    if (section == Section::kEdges) {
      if (fields.size() != 3) {
        return Status::InvalidArgument(
            StrFormat("line %zu: expected 'u v weight'", line_no));
      }
      TD_ASSIGN_OR_RETURN(uint64_t u, ParseUint64(fields[0]));
      TD_ASSIGN_OR_RETURN(uint64_t v, ParseUint64(fields[1]));
      TD_ASSIGN_OR_RETURN(double w, ParseDouble(fields[2]));
      Status s =
          builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
      if (!s.ok()) return s.WithContext(StrFormat("line %zu", line_no));
      ++seen_edges;
      continue;
    }
    return Status::InvalidArgument(
        StrFormat("line %zu: content before experts header", line_no));
  }
  if (section != Section::kEdges) {
    return Status::InvalidArgument("missing edges section");
  }
  if (seen_edges != expected_edges) {
    return Status::InvalidArgument(
        StrFormat("expected %llu edges, saw %llu",
                  static_cast<unsigned long long>(expected_edges),
                  static_cast<unsigned long long>(seen_edges)));
  }
  return builder.Finish();
}

Status SaveNetwork(const ExpertNetwork& net, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << SerializeNetwork(net);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<ExpertNetwork> LoadNetwork(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeNetwork(buffer.str());
}

}  // namespace teamdisc
