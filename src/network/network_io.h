// Text persistence of ExpertNetwork.
//
// Format ('#' comments, sections in order):
//   format 2
//   experts <count>
//   <id> <authority> <num_publications> <escaped-name> <skill,skill,...|->
//   edges <count>
//   <u> <v> <weight>
//
// Names are percent-escaped ('%', whitespace, and ',' become %XX; the empty
// string is "%00") so save -> load preserves them exactly. The `format 2`
// line must come first; a file without it is rejected.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "network/expert_network.h"

namespace teamdisc {

/// Percent-escapes a name (or skill) so it survives as one whitespace-
/// delimited token: '%' itself, ASCII whitespace, and ',' (the skill-list
/// separator) become %XX; the empty string — not representable as a token —
/// is encoded as the reserved sequence "%00". Shared by the network and
/// delta file formats so both round-trip names losslessly.
std::string EscapeNetworkToken(std::string_view token);

/// Inverse of EscapeNetworkToken. Fails on a dangling or non-hex escape.
Result<std::string> UnescapeNetworkToken(std::string_view token);

/// Encodes a skill list as one token: escaped names joined by ','; the
/// empty list is the sentinel "-" (a single skill literally named "-" is
/// escaped to "%2D" so it cannot collide with the sentinel).
std::string EncodeSkillList(const std::vector<std::string>& skills);

/// Inverse of EncodeSkillList. Fails on empty or malformed skill names.
Result<std::vector<std::string>> DecodeSkillList(std::string_view token);

/// Serializes the network to the text format above.
std::string SerializeNetwork(const ExpertNetwork& net);

/// Parses a network from the text format.
Result<ExpertNetwork> DeserializeNetwork(const std::string& content);

/// Writes `net` to `path`.
Status SaveNetwork(const ExpertNetwork& net, const std::string& path);

/// Reads a network from `path`.
Result<ExpertNetwork> LoadNetwork(const std::string& path);

}  // namespace teamdisc
