#include "sim/report_kit.hpp"

#include <cstdio>

namespace tussle::sim::report_kit {

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string fmt_compact(double v) {
  char buf[48];
  if (v == 0) return "0";
  const double a = v < 0 ? -v : v;
  if (a >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else if (a >= 10 || a == static_cast<double>(static_cast<std::int64_t>(a))) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

void open_card(std::string& out, const std::string& heading, const std::string& note) {
  out += "<div class=\"card\">\n<h2>" + html_escape(heading) + "</h2>\n";
  if (!note.empty()) out += "<p class=\"stats\">" + note + "</p>\n";
}

}  // namespace tussle::sim::report_kit
