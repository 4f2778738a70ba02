#include "fs/path.h"

namespace wlgen::fs {

std::string join_path(const std::vector<std::string>& components) {
  if (components.empty()) return "/";
  std::string out;
  for (const auto& c : components) {
    out += '/';
    out += c;
  }
  return out;
}

std::string parent_path(std::string_view path) {
  std::vector<std::string> parts;
  if (!split_path(path, parts) || parts.empty()) return "/";
  parts.pop_back();
  return join_path(parts);
}

std::string base_name(std::string_view path) {
  std::vector<std::string> parts;
  if (!split_path(path, parts) || parts.empty()) return "";
  return parts.back();
}

}  // namespace wlgen::fs
