// Bench-artifact validator: runs a bench driver command, then parses the
// JSON artifact it wrote and checks it against the sbq.bench/1 schema
// (docs/observability.md "BENCH_*.json"). Used by the `bench_json_*` ctest
// entries so every driver's --json output stays machine-readable.
//
// Usage:
//   json_validate FILE [--schema sbq.bench/1] [--min-cells N]
//                 [--service-cells] -- CMD ARGS...
//
// --service-cells additionally checks every cell against the service_latency
// cell shape (docs/service.md): an "admission" object whose counters satisfy
// the conservation identity offered == accepted + rejected, a "consumed"
// count equal to accepted (everything admitted was drained), a reject
// fraction in [0, 1], and monotone sojourn percentiles p50 <= p99 <= p999.
//
// --policy-cells checks every cell carrying a "counters" object against the
// TxCAS conservation identities (docs/architecture.md "Contention policy
// layer"): htm.attempts == htm.commits + sum(htm.aborts), and fallbacks +
// fallback_cas <= calls.
//
// Exit status: 0 if CMD succeeded and FILE parses and conforms; 1 otherwise.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/json.hpp"
#include "benchsupport/table.hpp"

namespace {

int fail(const std::string& why) {
  std::cerr << "json_validate: " << why << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using sbq::Json;
  std::string file;
  std::string schema = sbq::BenchReport::kSchema;
  std::size_t min_cells = 0;
  bool service_cells = false;
  bool policy_cells = false;
  std::vector<std::string> cmd;
  bool after_dashes = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (after_dashes) {
      cmd.push_back(a);
    } else if (a == "--") {
      after_dashes = true;
    } else if (a == "--schema" && i + 1 < argc) {
      schema = argv[++i];
    } else if (a == "--min-cells" && i + 1 < argc) {
      // A count in full: "abc" or "-5" would make the check vacuous.
      try {
        min_cells = sbq::parse_number<std::size_t>("--min-cells", argv[++i]);
      } catch (const std::invalid_argument& e) {
        return fail(e.what());
      }
    } else if (a == "--service-cells") {
      service_cells = true;
    } else if (a == "--policy-cells") {
      policy_cells = true;
    } else if (file.empty()) {
      file = a;
    } else {
      return fail("unexpected argument: " + a);
    }
  }
  if (file.empty() || cmd.empty()) {
    return fail(
        "usage: json_validate FILE [--schema S] [--min-cells N] -- CMD...");
  }

  std::string cmdline;
  for (const std::string& part : cmd) {
    if (!cmdline.empty()) cmdline += ' ';
    cmdline += part;
  }
  const int rc = std::system(cmdline.c_str());
  if (rc != 0) {
    return fail("driver command failed (" + std::to_string(rc) +
                "): " + cmdline);
  }

  std::ifstream in(file);
  if (!in) return fail("artifact not written: " + file);
  std::stringstream buf;
  buf << in.rdbuf();

  Json root;
  try {
    root = Json::parse(buf.str());
  } catch (const std::exception& e) {
    return fail("artifact is not valid JSON: " + std::string(e.what()));
  }

  // sbq.bench/1 required shape. Json accessors throw on type mismatch;
  // treat that as a schema violation, not a crash.
  try {
  if (root.type() != Json::Type::kObject) return fail("root is not an object");
  if (!root["schema"].is_string() || root["schema"].as_string() != schema) {
    return fail("schema mismatch: expected \"" + schema + "\"");
  }
  if (root["bench"].type() != Json::Type::kString ||
      root["bench"].as_string().empty()) {
    return fail("missing or empty \"bench\" name");
  }
  if (root["config"].type() != Json::Type::kObject) {
    return fail("missing \"config\" object");
  }
  if (root["tables"].type() != Json::Type::kObject) {
    return fail("missing \"tables\" object");
  }
  for (const auto& [name, table] : root["tables"].items()) {
    if (table["columns"].type() != Json::Type::kArray ||
        table["columns"].size() == 0) {
      return fail("table \"" + name + "\" has no columns");
    }
    if (table["rows"].type() != Json::Type::kArray) {
      return fail("table \"" + name + "\" has no rows array");
    }
    for (std::size_t r = 0; r < table["rows"].size(); ++r) {
      if (table["rows"].at(r).size() != table["columns"].size()) {
        return fail("table \"" + name + "\" row " + std::to_string(r) +
                    " width != column count");
      }
    }
  }
  if (root["cells"].type() != Json::Type::kArray) {
    return fail("missing \"cells\" array");
  }
  if (root["cells"].size() < min_cells) {
    return fail("expected at least " + std::to_string(min_cells) +
                " cells, got " + std::to_string(root["cells"].size()));
  }
  for (std::size_t i = 0; i < root["cells"].size(); ++i) {
    if (root["cells"].at(i).type() != Json::Type::kObject) {
      return fail("cell " + std::to_string(i) + " is not an object");
    }
    if (policy_cells) {
      const Json& cell = root["cells"].at(i);
      if (cell["counters"].is_object()) {
        const std::string where = "policy cell " + std::to_string(i);
        const Json& htm = cell["counters"]["htm"];
        if (!htm.is_object()) return fail(where + " has no htm counters");
        const double calls = htm["calls"].as_double();
        const double attempts = htm["attempts"].as_double();
        const double commits = htm["commits"].as_double();
        double aborts = 0;
        for (const auto& [cause, n] : htm["aborts"].items()) {
          (void)cause;
          aborts += n.as_double();
        }
        if (attempts != commits + aborts) {
          return fail(where + " violates attempt conservation: attempts " +
                      std::to_string(attempts) + " != commits " +
                      std::to_string(commits) + " + aborts " +
                      std::to_string(aborts));
        }
        const double fallbacks = htm["fallbacks"].as_double();
        const double fallback_cas = htm["fallback_cas"].is_number()
                                        ? htm["fallback_cas"].as_double()
                                        : 0.0;
        if (fallbacks + fallback_cas > calls) {
          return fail(where + " has more fallbacks (" +
                      std::to_string(fallbacks) + " + " +
                      std::to_string(fallback_cas) + " degraded) than calls (" +
                      std::to_string(calls) + ")");
        }
      }
    }
    if (!service_cells) continue;
    const Json& cell = root["cells"].at(i);
    const std::string where = "service cell " + std::to_string(i);
    if (!cell["admission"].is_object()) {
      return fail(where + " has no \"admission\" object");
    }
    const Json& adm = cell["admission"];
    const double offered = adm["offered"].as_double();
    const double accepted = adm["accepted"].as_double();
    const double rejected = adm["rejected"].as_double();
    if (offered != accepted + rejected) {
      return fail(where + " violates admission conservation: offered " +
                  std::to_string(offered) + " != accepted " +
                  std::to_string(accepted) + " + rejected " +
                  std::to_string(rejected));
    }
    const double consumed = cell["consumed"].as_double();
    if (consumed != accepted) {
      return fail(where + " did not drain what it admitted: consumed " +
                  std::to_string(consumed) + " != accepted " +
                  std::to_string(accepted));
    }
    const double rej_frac = cell["reject_fraction"].as_double();
    if (!(rej_frac >= 0.0 && rej_frac <= 1.0)) {
      return fail(where + " reject_fraction out of [0, 1]");
    }
    const double p50 = cell["sojourn_p50_ns"].as_double();
    const double p99 = cell["sojourn_p99_ns"].as_double();
    const double p999 = cell["sojourn_p999_ns"].as_double();
    if (!(p50 >= 0.0 && p50 <= p99 && p99 <= p999)) {
      return fail(where + " sojourn percentiles not monotone: p50 " +
                  std::to_string(p50) + ", p99 " + std::to_string(p99) +
                  ", p999 " + std::to_string(p999));
    }
  }
  std::cout << "json_validate: " << file << " ok (" << root["cells"].size()
            << " cells, " << root["tables"].size() << " tables)\n";
  } catch (const std::exception& e) {
    return fail("artifact violates " + schema + ": " + e.what());
  }
  return 0;
}
