#include "util/svg.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace wlgen::util {

std::string svg_plot(const std::vector<SvgSeries>& series, const SvgOptions& options) {
  const double margin = 56.0;
  const double w = static_cast<double>(std::max(160, options.width));
  const double h = static_cast<double>(std::max(120, options.height));
  double xmin = 0.0, xmax = 1.0, ymin = 0.0, ymax = 1.0;
  bool first = true;
  for (const auto& s : series) {
    for (std::size_t i = 0; i < std::min(s.xs.size(), s.ys.size()); ++i) {
      if (!std::isfinite(s.xs[i]) || !std::isfinite(s.ys[i])) continue;
      if (first) {
        xmin = xmax = s.xs[i];
        ymin = ymax = s.ys[i];
        first = false;
      } else {
        xmin = std::min(xmin, s.xs[i]);
        xmax = std::max(xmax, s.xs[i]);
        ymin = std::min(ymin, s.ys[i]);
        ymax = std::max(ymax, s.ys[i]);
      }
    }
  }
  if (xmax <= xmin) xmax = xmin + 1.0;
  if (ymax <= ymin) ymax = ymin + 1.0;

  const auto sx = [&](double x) { return margin + (x - xmin) / (xmax - xmin) * (w - 2 * margin); };
  const auto sy = [&](double y) { return h - margin - (y - ymin) / (ymax - ymin) * (h - 2 * margin); };

  std::ostringstream out;
  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\"" << h
      << "\" viewBox=\"0 0 " << w << " " << h << "\">\n";
  out << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  // axes
  out << "<line x1=\"" << margin << "\" y1=\"" << h - margin << "\" x2=\"" << w - margin
      << "\" y2=\"" << h - margin << "\" stroke=\"black\"/>\n";
  out << "<line x1=\"" << margin << "\" y1=\"" << margin << "\" x2=\"" << margin << "\" y2=\""
      << h - margin << "\" stroke=\"black\"/>\n";
  if (!options.title.empty()) {
    out << "<text x=\"" << w / 2 << "\" y=\"20\" text-anchor=\"middle\" font-size=\"14\">"
        << options.title << "</text>\n";
  }
  if (!options.x_label.empty()) {
    out << "<text x=\"" << w / 2 << "\" y=\"" << h - 12
        << "\" text-anchor=\"middle\" font-size=\"12\">" << options.x_label << "</text>\n";
  }
  if (!options.y_label.empty()) {
    out << "<text x=\"14\" y=\"" << h / 2 << "\" text-anchor=\"middle\" font-size=\"12\" "
        << "transform=\"rotate(-90 14 " << h / 2 << ")\">" << options.y_label << "</text>\n";
  }
  // tick labels (min/max only; enough for eyeballing figure shapes)
  out << "<text x=\"" << margin << "\" y=\"" << h - margin + 16
      << "\" font-size=\"10\" text-anchor=\"middle\">" << xmin << "</text>\n";
  out << "<text x=\"" << w - margin << "\" y=\"" << h - margin + 16
      << "\" font-size=\"10\" text-anchor=\"middle\">" << xmax << "</text>\n";
  out << "<text x=\"" << margin - 6 << "\" y=\"" << h - margin
      << "\" font-size=\"10\" text-anchor=\"end\">" << ymin << "</text>\n";
  out << "<text x=\"" << margin - 6 << "\" y=\"" << margin
      << "\" font-size=\"10\" text-anchor=\"end\">" << ymax << "</text>\n";

  int legend_row = 0;
  for (const auto& s : series) {
    out << "<polyline fill=\"none\" stroke=\"" << s.color << "\" stroke-width=\"1.5\" points=\"";
    for (std::size_t i = 0; i < std::min(s.xs.size(), s.ys.size()); ++i) {
      if (!std::isfinite(s.xs[i]) || !std::isfinite(s.ys[i])) continue;
      out << sx(s.xs[i]) << "," << sy(s.ys[i]) << " ";
    }
    out << "\"/>\n";
    if (!s.label.empty()) {
      const double ly = margin + 14.0 * legend_row++;
      out << "<line x1=\"" << w - margin - 90 << "\" y1=\"" << ly << "\" x2=\"" << w - margin - 70
          << "\" y2=\"" << ly << "\" stroke=\"" << s.color << "\" stroke-width=\"2\"/>\n";
      out << "<text x=\"" << w - margin - 64 << "\" y=\"" << ly + 4 << "\" font-size=\"11\">"
          << s.label << "</text>\n";
    }
  }
  out << "</svg>\n";
  return out.str();
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_text_file: cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::ofstream open_text_file(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("write_text_file: cannot open " + path);
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out = open_text_file(path);
  out << content;
  if (!out) throw std::runtime_error("write_text_file: write failed for " + path);
}

}  // namespace wlgen::util
