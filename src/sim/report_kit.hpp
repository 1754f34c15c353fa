// Shared pieces of the observability reports: the log2 histogram bucket
// and the zero-JS HTML/SVG dashboard helpers. The exec and time-series
// dashboards both format through these, so every report
// escapes text and prints numbers the same way, byte for byte.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace tussle::sim::report_kit {

/// Power-of-two bucket: 0 -> 0, and bucket b covers [2^(b-1), 2^b - 1].
inline std::uint32_t log2_bucket(std::uint64_t v) noexcept {
  return static_cast<std::uint32_t>(std::bit_width(v));
}

/// Escapes the four characters HTML text and attribute values care about.
std::string html_escape(std::string_view s);

/// Fixed two decimals so SVG output is platform-stable.
std::string fmt2(double v);

/// Compact tile/label number: "1.2M", "3.4k", whole numbers bare, else
/// two decimals.
std::string fmt_compact(double v);

/// Opens a dashboard card with an escaped heading and an optional
/// pre-rendered note line; the caller closes the card's <div>.
void open_card(std::string& out, const std::string& heading, const std::string& note);

}  // namespace tussle::sim::report_kit
