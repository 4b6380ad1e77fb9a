// Deterministic JSON emission helpers shared by every writer of JSON in
// the tree: experiment reports and the Chrome trace export. Numbers use
// the shortest round-trip representation (std::to_chars), so equal values
// always serialize to equal bytes.
#pragma once

#include <cstdint>
#include <string>

namespace stopwatch {

/// Escapes `s` for use inside a JSON string literal (no surrounding quotes).
[[nodiscard]] std::string json_escape(const std::string& s);

/// `s` as a quoted JSON string.
[[nodiscard]] std::string json_string(const std::string& s);

/// Shortest round-trip decimal form of `v`; non-finite values map to null
/// (JSON has no NaN/Inf).
[[nodiscard]] std::string json_number(double v);

[[nodiscard]] std::string json_number(std::uint64_t v);

}  // namespace stopwatch
