#include "tools/lint/lint_rules.h"

#include <sstream>

#include "util/table.h"

namespace wlgen::lint {

namespace {

/// The simulation-affecting directories: code here feeds the merged log,
/// the stats digests, or the checkpoint/resume path, so the bit-identical
/// invariant (DESIGN.md "Streaming log pipeline") depends on it.  obs/,
/// util/ and tools/ sit outside: observability is defined to never change
/// results (tests/obs_test.cpp), and the CLI's wall-clock reporting is
/// cosmetic by construction.
constexpr const char* kSimPaths =
    R"(^(core|sim|dist|runner|stats|fsmodel|fs|scenario|exp|traffic)/)";

}  // namespace

const std::vector<Rule>& default_rules() {
  static const std::vector<Rule> rules = {
      {
          "wall-clock",
          "Simulation results must be a pure function of (spec, seed); a wall-clock "
          "read in a sim-affecting path can leak machine speed or timezone into "
          "results, digests or checkpoint decisions.",
          RuleKind::pattern,
          // system_clock/steady_clock/high_resolution_clock, clock_gettime,
          // gettimeofday, localtime/gmtime, and bare time( — the leading
          // [^.\w] keeps member calls like issue_time( and x.time( out.
          R"((system_clock|steady_clock|high_resolution_clock)\b)"
          R"(|\b(clock_gettime|gettimeofday|localtime|gmtime)\s*\()"
          R"(|(^|[^.A-Za-z0-9_])time\s*\()",
          kSimPaths,
          // runner/pool.{h,cpp}: the worker pool's entire observability job
          // is wall-time busy/idle accounting (PoolObs); virtual time never
          // flows through it and digests ignore it (tests/obs_test.cpp).
          R"(^runner/pool\.(h|cpp)$)",
          "wall-clock read in a simulation-affecting path (use sim::Simulation::now; "
          "wall_ms reporting sites carry an inline allow with justification)",
      },
      {
          "unordered-iter",
          "Iteration order of std::unordered_{map,set} depends on libstdc++ "
          "version, hash seeding and insertion history; folding or serializing in "
          "that order silently breaks bit-identical merges.",
          RuleKind::unordered_iter,
          "",
          kSimPaths,
          "",
          "iteration over an unordered container in a simulation-affecting path "
          "(iterate a sorted view, use std::map, or justify an inline allow for a "
          "commutative fold)",
      },
      {
          "raw-rand",
          "All randomness must flow from the seeded util::Rng tree so runs replay "
          "bit-identically; rand()/random_device draw from global or hardware state "
          "that no seed controls.",
          RuleKind::pattern,
          R"(\b(rand|srand|rand_r|drand48)\s*\(|\brandom_device\b)",
          "",  // applies everywhere — entropy is never OK outside util/rng
          // util/rng.{h,cpp}: the one blessed seeding point; today it is
          // pure splitmix64/mt19937_64 and uses no entropy at all, but a
          // future opt-in entropy seed belongs there and nowhere else.
          R"(^util/rng\.(h|cpp)$)",
          "raw entropy source (derive from util::Rng / splitmix64 so the seed tree "
          "controls every draw)",
      },
      {
          "byte-pun",
          "Byte-level reinterpretation of object representations — especially IEEE "
          "doubles — must live in the one audited codec: elsewhere it risks UB and "
          "endianness/padding-dependent record bytes.",
          RuleKind::pattern,
          R"(\breinterpret_cast\b|\bmemcpy\s*\()",
          kSimPaths,
          // core/log_sink.{h,cpp}: the blessed fixed-layout record codec —
          // its double<->uint64 memcpy pair is the defined-behaviour idiom
          // and is pinned byte-for-byte by tests/log_sink_test.cpp.
          // sim/callback.h: type-erased callable storage (placement new and
          // std::launder of the stored closure; it has no memcpy); no
          // floating-point object representation is ever reinterpreted.
          R"(^(core/log_sink\.(h|cpp)|sim/callback\.h)$)",
          "byte punning outside the audited core/log_sink codec (route through "
          "encode_f64/decode_f64 or justify an inline allow)",
      },
      {
          "float-stats",
          "Statistics must accumulate in double: float's 24-bit mantissa makes "
          "sums sensitive to accumulation order and width, so shard-count changes "
          "would change digests.",
          RuleKind::pattern,
          R"(\bfloat\b|\b[0-9]+\.[0-9]*f\b)",
          R"(^(stats/|runner/stats))",
          "",
          "float type or float literal in a stats-accumulation file (accumulate in "
          "double; digests print %.17g doubles)",
      },
      {
          "pragma-once",
          "Every header must open with #pragma once: a missing include guard can "
          "select ODR-divergent definitions between translation units, which shows "
          "up as impossible-to-bisect nondeterminism.",
          RuleKind::pragma_once,
          "",
          "",  // all scanned headers
          "",
          "header does not open with #pragma once",
      },
  };
  return rules;
}

std::string render_rule_table() {
  util::TextTable table({"rule", "scope", "rationale"});
  for (const auto& rule : default_rules()) {
    std::string scope = rule.applies.empty() ? "src/**" : rule.applies;
    if (!rule.allow_paths.empty()) scope += "  except " + rule.allow_paths;
    table.add_row({rule.id, scope, rule.rationale});
  }
  std::ostringstream out;
  out << table.render();
  return out.str();
}

}  // namespace wlgen::lint
