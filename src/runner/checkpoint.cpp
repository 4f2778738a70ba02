#include "runner/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"
#include "util/strings.h"
#include "util/svg.h"

namespace wlgen::runner {

namespace {

constexpr const char* kSchema = "wlgen-checkpoint-v1";

std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::string checkpoint_path(const std::string& spool_dir, std::size_t shard) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%06zu", shard);
  return (std::filesystem::path(spool_dir) / ("shard" + std::string(buffer) + ".ckpt"))
      .string();
}

std::string file_identity(const std::string& path) {
  if (path.empty()) return "";
  char hash[24];
  std::snprintf(hash, sizeof hash, "#%016llx",
                static_cast<unsigned long long>(util::hash_label(util::read_text_file(path))));
  return path + hash;
}

void write_checkpoint(const std::string& path, const ShardCheckpoint& c,
                      const std::string& fingerprint) {
  std::ostringstream out;
  out << kSchema << "\n";
  out << "fingerprint " << fingerprint << "\n";
  out << "shard " << c.shard << "\n";
  out << "range " << c.begin << " " << c.end << "\n";
  out << "ops " << c.ops << "\n";
  out << "sessions " << c.sessions << "\n";
  out << "events " << c.events << "\n";
  out << "rng_draws " << c.rng_draws << "\n";
  out << "heap_high_water " << c.heap_high_water << "\n";
  out << "max_sim_us " << exact(c.max_simulated_us) << "\n";
  out << "runs " << c.runs.size() << "\n";
  for (const auto& run : c.runs) {
    out << "run " << run.records << " " << run.bytes << " " << run.path << "\n";
  }
  out << "end\n";

  const std::string tmp = path + ".tmp";
  util::write_text_file(tmp, out.str());
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("write_checkpoint: cannot rename '" + tmp + "' to '" + path +
                             "': " + ec.message());
  }
}

std::optional<ShardCheckpoint> load_checkpoint(const std::string& path,
                                               const std::string& fingerprint,
                                               std::size_t expect_begin,
                                               std::size_t expect_end) {
  std::ifstream in(path);
  if (!in) return std::nullopt;

  std::string line;
  if (!std::getline(in, line) || line != kSchema) return std::nullopt;
  if (!std::getline(in, line) || line.rfind("fingerprint ", 0) != 0) return std::nullopt;
  const std::string stored = line.substr(std::string("fingerprint ").size());
  if (stored != fingerprint) {
    throw std::runtime_error("checkpoint '" + path +
                             "' was written under a different configuration\n  stored:  " +
                             stored + "\n  current: " + fingerprint +
                             "\nresuming would merge incompatible results; delete the spool "
                             "directory (or fix the scenario) to proceed");
  }

  ShardCheckpoint c;
  std::size_t declared_runs = 0;
  bool saw_end = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "shard") {
      fields >> c.shard;
    } else if (key == "range") {
      fields >> c.begin >> c.end;
    } else if (key == "ops") {
      fields >> c.ops;
    } else if (key == "sessions") {
      fields >> c.sessions;
    } else if (key == "events") {
      fields >> c.events;
    } else if (key == "rng_draws") {
      fields >> c.rng_draws;
    } else if (key == "heap_high_water") {
      fields >> c.heap_high_water;
    } else if (key == "max_sim_us") {
      fields >> c.max_simulated_us;
    } else if (key == "runs") {
      fields >> declared_runs;
    } else if (key == "run") {
      core::SpillRun run;
      fields >> run.records >> run.bytes;
      std::getline(fields, run.path);
      run.path = util::trim(run.path);
      c.runs.push_back(std::move(run));
    } else if (key == "end") {
      saw_end = true;
      break;
    } else {
      return std::nullopt;  // unknown line: treat as corrupt, re-run the shard
    }
    if (fields.fail()) return std::nullopt;
  }
  if (!saw_end || c.runs.size() != declared_runs || c.end < c.begin) return std::nullopt;
  if (c.begin != expect_begin || c.end != expect_end) return std::nullopt;

  // Run files must still exist with exactly the recorded size — a cheap
  // integrity check that catches truncation from the interruption itself.
  for (const auto& run : c.runs) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(run.path, ec);
    if (ec || size != run.bytes) return std::nullopt;
  }
  return c;
}

}  // namespace wlgen::runner
