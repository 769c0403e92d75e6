// Differential divergence bisector CLI (docs/replay.md).
//
// Runs ONE workload under TWO machine configurations and reports the first
// interconnect message where their schedules diverge, with DebugRing
// context on both sides. The workload is either a synthetic sweep cell
// (--queue/--workload/--threads/--ops) or a recorded op trace
// (--replay-ops=FILE). Per-side config deltas use --a-*/--b-* prefixed
// flags, e.g. the fixed vs adaptive-backoff contention policies:
//
//   sbq_divergence --queue SBQ-HTM --workload mixed --threads 4 --ops 40 \
//       --b-cas-policy adaptive-backoff
//
// Exit code: 0 = identical schedules, 1 = divergence found (report on
// stdout), 2 = usage/input error.
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "replay/divergence.hpp"
#include "replay/op_trace.hpp"
#include "replay/sim_replay.hpp"
#include "sim_queue_bench_util.hpp"

namespace {

using namespace sbq;

struct SideConfig {
  bool link_model = false;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 1;
  std::string cas_policy;
};

struct Options {
  std::string queue = "SBQ-HTM";
  std::string workload = "mixed";
  int threads = 4;
  std::uint64_t ops = 40;
  std::uint64_t prefill = 64;
  std::uint64_t seed = 1;
  std::uint64_t window = 1024;
  std::string replay_path;
  SideConfig a, b;
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::cerr << "sbq_divergence: " << msg << "\n";
  std::cerr << "usage: sbq_divergence [--queue NAME] [--workload prod|cons|mixed]\n"
               "           [--threads N] [--ops N] [--prefill N] [--seed S]\n"
               "           [--window N] [--replay-ops FILE]\n"
               "           [--{a,b}-interconnect flat|link]\n"
               "           [--{a,b}-fault-rate F] [--{a,b}-fault-seed S]\n"
               "           [--{a,b}-cas-policy NAME]\n";
  std::exit(2);
}

bool parse_side(SideConfig& side, const std::string& key,
                const std::string& value) {
  if (key == "interconnect") {
    if (value == "flat") {
      side.link_model = false;
    } else if (value == "link") {
      side.link_model = true;
    } else {
      usage("interconnect needs flat or link");
    }
    return true;
  }
  if (key == "fault-rate") {
    side.fault_rate = std::stod(value);
    return true;
  }
  if (key == "fault-seed") {
    side.fault_seed = std::stoull(value);
    return true;
  }
  if (key == "cas-policy") {
    side.cas_policy = value;
    return true;
  }
  return false;
}

Options parse(int argc, char** argv) {
  Options o;
  auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage("missing value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--queue") {
      o.queue = next(i);
    } else if (a == "--workload") {
      o.workload = next(i);
    } else if (a == "--threads") {
      o.threads = std::stoi(next(i));
    } else if (a == "--ops") {
      o.ops = std::stoull(next(i));
    } else if (a == "--prefill") {
      o.prefill = std::stoull(next(i));
    } else if (a == "--seed") {
      o.seed = std::stoull(next(i));
    } else if (a == "--window") {
      o.window = std::stoull(next(i));
    } else if (a == "--replay-ops") {
      o.replay_path = next(i);
    } else if (a.rfind("--a-", 0) == 0) {
      if (!parse_side(o.a, a.substr(4), next(i))) usage("unknown option");
    } else if (a.rfind("--b-", 0) == 0) {
      if (!parse_side(o.b, a.substr(4), next(i))) usage("unknown option");
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.threads < 1 || o.threads > 64) usage("--threads out of range");
  return o;
}

sim::MachineConfig side_machine_config(const Options& o, const SideConfig& s,
                                       int cores) {
  sim::MachineConfig mcfg;
  mcfg.cores = cores;
  mcfg.sockets = 2;
  mcfg.collect_stats = false;
  mcfg.interconnect_model = s.link_model ? sim::InterconnectModel::kLink
                                         : sim::InterconnectModel::kFlat;
  mcfg.fault_plan =
      bench::fault_plan(s.fault_rate, s.fault_seed, /*jitter=*/0);
  if (!s.cas_policy.empty()) {
    if (!sbq::contention_policy_from_name(s.cas_policy.c_str(),
                                          mcfg.cas_policy.kind)) {
      usage("unknown --cas-policy");
    }
  }
  return mcfg;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  bench::WorkloadSpec spec;
  replay::OpTrace trace;
  const bool from_trace = !o.replay_path.empty();
  bench::QueueKind kind;
  if (from_trace) {
    if (!replay::read_op_trace_file(o.replay_path, trace)) {
      std::cerr << "sbq_divergence: cannot decode " << o.replay_path << "\n";
      return 2;
    }
    try {
      kind = bench::queue_kind_from_name(trace.queue);
    } catch (const std::exception&) {
      std::cerr << "sbq_divergence: trace names unknown queue '" << trace.queue
                << "'\n";
      return 2;
    }
    try {
      spec = bench::spec_from_trace(trace);
    } catch (const std::invalid_argument& e) {
      std::cerr << "sbq_divergence: " << e.what() << "\n";
      return 2;
    }
  } else {
    try {
      kind = bench::queue_kind_from_name(o.queue);
    } catch (const std::exception&) {
      usage("unknown --queue");
    }
    if (o.workload == "prod") {
      spec.kind = bench::Workload::kProducerOnly;
    } else if (o.workload == "cons") {
      spec.kind = bench::Workload::kConsumerOnly;
    } else if (o.workload == "mixed") {
      spec.kind = bench::Workload::kMixed;
    } else {
      usage("--workload needs prod, cons or mixed");
    }
    spec.producers = o.threads;
    spec.consumers = o.threads;
    spec.ops_per_thread = o.ops;
    spec.prefill = o.prefill;
    spec.seed = o.seed;
  }
  const int cores = bench::replay_min_cores(spec);

  auto make_runner = [&](const SideConfig& side) {
    const sim::MachineConfig mcfg = side_machine_config(o, side, cores);
    return [&, mcfg](sim::Interconnect::SendObserverFn fn, void* ctx) {
      sim::Machine m(mcfg);
      m.interconnect().set_send_observer(fn, ctx);
      bench::with_queue(kind, m, spec, [&](auto& q, int offset) {
        if (from_trace) {
          replay::replay_trace(m, q, trace, offset);
        } else {
          bench::run_spec(m, q, spec, offset);
        }
        return 0;
      });
    };
  };

  const replay::DivergenceReport report = replay::find_divergence(
      make_runner(o.a), make_runner(o.b), o.window);
  std::cout << replay::format_divergence(report);
  return report.diverged ? 1 : 0;
}
