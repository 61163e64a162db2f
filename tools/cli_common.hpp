// Argument handling shared by the cbip-stats and cbip-verify CLIs:
// checked number parsing and the builtin-model loader. Malformed input
// ends in a diagnostic on stderr and exit code 2, never an uncaught
// exception.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "core/system.hpp"
#include "frontends/bipdsl/bipdsl.hpp"
#include "models/models.hpp"
#include "util/require.hpp"

namespace cbip::cli {

/// Parses `text` as a non-negative decimal integer that fits in `out` and
/// stores it there. Rejects empty text, signs, any non-digit character
/// and out-of-range values, reporting them as `<tool>: bad value for
/// <flag>: ...` and returning false, instead of throwing like std::stoi
/// or wrapping negatives like std::stoull.
template <typename T>
bool parseCount(const char* tool, const std::string& flag, const std::string& text, T& out) {
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  std::uint64_t value = 0;
  bool ok = !text.empty();
  for (char c : text) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!ok) {
    std::cerr << tool << ": bad value for " << flag << ": '" << text
              << "' (expected an integer in [0, " << max << "])\n";
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// Builds a builtin model by name, or reads and validates a .bip file.
/// Builtins: philosophers (atomic-grab, deadlock-free), philosophers2
/// (two-step, can deadlock), gas (gas station), prodcons (bounded
/// buffer), tokenring, and skewed (n pairs, 1/8 hot, the rest dead after
/// 4 steps each). Reports failures — an unreadable file, a parse error,
/// or a size the model family rejects — on stderr and returns nullopt.
inline std::optional<System> loadModel(const char* tool, const std::string& model, int n) {
  try {
    if (model == "philosophers") return models::philosophersAtomic(n);
    if (model == "philosophers2") return models::philosophersTwoStep(n);
    if (model == "gas") return models::gasStation(n, n);
    if (model == "prodcons") return models::producerConsumer(n);
    if (model == "tokenring") return models::tokenRing(n);
    if (model == "skewed") return models::skewedPairs(n, std::max(1, n / 8), 4);
    std::ifstream in(model);
    if (!in) {
      std::cerr << tool << ": cannot open model file " << model << "\n";
      return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    dsl::ParseResult parsed = dsl::parseModel(buf.str());
    parsed.system.validate();
    return std::move(parsed.system);
  } catch (const ModelError& e) {
    std::cerr << tool << ": " << model << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

}  // namespace cbip::cli
