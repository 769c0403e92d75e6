// Service latency under open-loop load: drive each evaluated queue as a
// broker behind deterministic arrival processes (docs/service.md) and
// report end-to-end sojourn percentiles plus admission accounting per
// (arrival rate x queue) cell.
//
// Unlike the fig*/ablation_* drivers (closed-loop: offered load adapts to
// the queue), the rows here are *offered* arrival rates; past the drain
// capacity the broker saturates, the admission gate trips, and the tables
// show the latency/loss cost of that overload per queue implementation.
//
// Extra options on top of the shared BenchOptions set (which this driver
// strips before BenchOptions::parse, since parse rejects unknown flags):
//   --rates LIST       arrival rates [ops/kcycle], comma separated
//                      (replaces --threads as the row axis; --threads is
//                      rejected here)
//   --arrival NAME     poisson|bursty|ramp|skew        (default poisson)
//   --admission NAME   drop|backpressure               (default drop)
//   --depth N          admission depth limit, 0 = unbounded (default 64)
//   --producers N      load-generator workers          (default 4)
//   --consumers N      drain workers                   (default 2)
//   --batch N          max back-to-back ops per wakeup (default 4)
//   --think N          consumer service time [cycles]  (default 16)
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/stats.hpp"
#include "service/broker.hpp"
#include "sim_queue_bench_util.hpp"

namespace {

using namespace sbq;
using namespace sbq::bench;

struct ServiceOptions {
  std::vector<double> rates = {1.0, 4.0, 16.0};
  service::ArrivalConfig arrival;    // kind + shape parameters
  service::AdmissionConfig admission;
  int producers = 4;
  int consumers = 2;
  int batch = 4;
  sim::Time consumer_think = 16;
};

// Split "--opt val" / "--opt=val" service flags out of argv, leaving the
// shared flags for BenchOptions::parse (which throws on anything unknown).
ServiceOptions strip_service_options(int& argc, char** argv) {
  ServiceOptions sopts;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  auto parse_rates = [&](const std::string& v) {
    sopts.rates.clear();
    std::size_t pos = 0;
    while (pos < v.size()) {
      std::size_t comma = v.find(',', pos);
      if (comma == std::string::npos) comma = v.size();
      sopts.rates.push_back(std::stod(v.substr(pos, comma - pos)));
      pos = comma + 1;
    }
    if (sopts.rates.empty()) {
      throw std::invalid_argument("--rates needs at least one rate");
    }
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string name = arg;
    std::string value;
    bool inline_value = false;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      inline_value = true;
    }
    auto take_value = [&]() -> const std::string& {
      if (inline_value) return value;
      if (i + 1 >= argc) {
        throw std::invalid_argument(name + " needs a value");
      }
      value = argv[++i];
      return value;
    };
    if (name == "--rates") {
      parse_rates(take_value());
    } else if (name == "--arrival") {
      sopts.arrival.kind = service::arrival_kind_from_name(take_value());
    } else if (name == "--admission") {
      const std::string& v = take_value();
      if (v == "drop") {
        sopts.admission.policy = service::AdmissionPolicy::kDrop;
      } else if (v == "backpressure") {
        sopts.admission.policy = service::AdmissionPolicy::kBackpressure;
      } else {
        throw std::invalid_argument("--admission wants drop|backpressure");
      }
    } else if (name == "--depth") {
      sopts.admission.depth_limit = std::stoull(take_value());
    } else if (name == "--producers") {
      sopts.producers = std::stoi(take_value());
    } else if (name == "--consumers") {
      sopts.consumers = std::stoi(take_value());
    } else if (name == "--batch") {
      sopts.batch = std::stoi(take_value());
    } else if (name == "--think") {
      sopts.consumer_think = std::stoull(take_value());
    } else {
      rest.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(rest.size());
  for (int i = 0; i < argc; ++i) argv[i] = rest[static_cast<std::size_t>(i)];
  return sopts;
}

// One summarized service cell: the raw counters plus percentile points of
// the retained sojourn/enqueue-latency samples, in nanoseconds.
struct ServiceCell {
  service::ServiceResult raw;
  double sojourn_p50_ns = 0;
  double sojourn_p99_ns = 0;
  double sojourn_p999_ns = 0;
  double enq_p99_ns = 0;
  double reject_fraction = 0;
};

ServiceCell summarize(service::ServiceResult r) {
  ServiceCell cell;
  Summary sojourn, enq;
  r.sojourn.drain_into(sojourn, ns_per_cycle());
  r.enqueue_lat.drain_into(enq, ns_per_cycle());
  cell.sojourn_p50_ns = sojourn.percentile(50);
  cell.sojourn_p99_ns = sojourn.percentile(99);
  cell.sojourn_p999_ns = sojourn.percentile(99.9);
  cell.enq_p99_ns = enq.percentile(99);
  cell.reject_fraction =
      r.offered > 0
          ? static_cast<double>(r.rejected) / static_cast<double>(r.offered)
          : 0.0;
  cell.raw = std::move(r);
  return cell;
}

// The service analogue of WarmedWorkload: build the machine and queue once
// per (rate, queue) group, snapshot at quiescence, and fork every repeat
// from that snapshot (the per-repeat variation is the arrival seed, which
// only run_service consumes).
class WarmedService {
 public:
  WarmedService() = default;

  WarmedService(QueueKind kind, const sim::MachineConfig& mcfg,
                const WorkloadSpec& qspec) {
    auto warm = std::make_shared<sim::Machine>(mcfg);
    with_queue(kind, *warm, qspec, [&](auto& q, int offset) {
      using QueueT = std::remove_reference_t<decltype(q)>;
      auto proto = std::make_shared<QueueT>(std::move(q));
      auto snap =
          std::make_shared<const sim::MachineSnapshot>(warm->snapshot());
      run_ = [snap = std::move(snap), warm = std::move(warm),
              proto = std::move(proto),
              offset](const service::ServiceSpec& spec) {
        auto m = sim::Machine::fork(*snap);
        QueueT fq(*proto);
        fq.rebind(*m);
        return service::run_service(*m, fq, spec, offset);
      };
    });
  }

  service::ServiceResult run_repeat(const service::ServiceSpec& spec) const {
    return run_(spec);
  }

 private:
  std::function<service::ServiceResult(const service::ServiceSpec&)> run_;
};

service::ServiceResult run_cold(QueueKind kind, const sim::MachineConfig& mcfg,
                                const WorkloadSpec& qspec,
                                const service::ServiceSpec& spec) {
  sim::Machine m(mcfg);
  return with_queue(kind, m, qspec, [&](auto& q, int offset) {
    return service::run_service(m, q, spec, offset);
  });
}

Json service_cell_json(double rate, QueueKind kind, int repeat,
                       const ServiceOptions& sopts, const ServiceCell& cell) {
  const service::ServiceResult& r = cell.raw;
  Json c = Json::object();
  c.set("rate_per_kcycle", Json(rate));
  c.set("queue", Json(queue_kind_name(kind)));
  c.set("repeat", Json(repeat));
  c.set("arrival", Json(service::arrival_kind_name(sopts.arrival.kind)));
  Json adm = Json::object();
  adm.set("policy",
          Json(service::admission_policy_name(sopts.admission.policy)));
  adm.set("depth_limit", Json(static_cast<double>(sopts.admission.depth_limit)));
  adm.set("offered", Json(static_cast<double>(r.offered)));
  adm.set("accepted", Json(static_cast<double>(r.accepted)));
  adm.set("rejected", Json(static_cast<double>(r.rejected)));
  adm.set("backpressure_waits",
          Json(static_cast<double>(r.backpressure_waits)));
  adm.set("backpressure_cycles",
          Json(static_cast<double>(r.backpressure_cycles)));
  c.set("admission", adm);
  c.set("consumed", Json(static_cast<double>(r.consumed)));
  c.set("sojourn_p50_ns", Json(cell.sojourn_p50_ns));
  c.set("sojourn_p99_ns", Json(cell.sojourn_p99_ns));
  c.set("sojourn_p999_ns", Json(cell.sojourn_p999_ns));
  c.set("enq_p99_ns", Json(cell.enq_p99_ns));
  c.set("reject_fraction", Json(cell.reject_fraction));
  c.set("delivered_mops", Json(r.delivered_mops(ns_per_cycle())));
  c.set("duration_cycles", Json(r.duration_cycles));
  c.set("counters", metrics_to_json(r.metrics));
  return c;
}

}  // namespace

int main(int argc, char** argv) try {
  ServiceOptions sopts = strip_service_options(argc, argv);
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  if (!opts.threads.empty()) {
    std::cerr << "service_latency sweeps --rates, not --threads\n";
    return 1;
  }
  if (opts.machine_threads > 1) {
    // run_service reads host-side admission state mid-run, which is only
    // deterministic under the serial engine.
    std::cerr << "service_latency requires the serial engine "
                 "(--machine-threads 1)\n";
    return 1;
  }
  const std::size_t total_ops = static_cast<std::size_t>(opts.ops_or(400));
  const int repeats = opts.repeats_or(2);
  const std::vector<QueueKind>& queues = evaluated_queue_kinds();

  BenchReport report("service_latency");
  {
    std::vector<int> no_threads;
    report.set_sweep_config(opts, no_threads, total_ops, repeats);
  }
  report.set("ns_per_cycle", Json(ns_per_cycle()));
  {
    Json rates = Json::array();
    for (double r : sopts.rates) rates.push_back(Json(r));
    report.set_config("rates_per_kcycle", rates);
    report.set_config(
        "arrival", Json(service::arrival_kind_name(sopts.arrival.kind)));
    report.set_config(
        "admission",
        Json(service::admission_policy_name(sopts.admission.policy)));
    report.set_config("depth_limit",
                      Json(static_cast<double>(sopts.admission.depth_limit)));
    report.set_config("producers", Json(sopts.producers));
    report.set_config("consumers", Json(sopts.consumers));
    report.set_config("batch", Json(sopts.batch));
    report.set_config("consumer_think",
                      Json(static_cast<double>(sopts.consumer_think)));
  }

  std::cout << "# Service latency under open-loop load ("
            << service::arrival_kind_name(sopts.arrival.kind) << " arrivals, "
            << sopts.producers << "p/" << sopts.consumers << "c, depth "
            << sopts.admission.depth_limit << " "
            << service::admission_policy_name(sopts.admission.policy) << ", "
            << total_ops << " ops, " << repeats << " repeats)\n";

  const std::vector<std::string>& qnames = queue_names();
  std::vector<std::string> columns{"rate"};
  columns.insert(columns.end(), qnames.begin(), qnames.end());
  Table p50_table(columns), p99_table(columns), p999_table(columns),
      reject_table(columns);
  if (!opts.csv) {
    std::cout << "\n## Sojourn p50 [ns] (lower is better)\n";
    p50_table.stream_to(std::cout);
  }

  auto make = [&](std::size_t row, int repeat) {
    sim::MachineConfig mcfg;
    mcfg.cores = sopts.producers + sopts.consumers;
    apply_fault_options(mcfg, opts);
    apply_machine_options(mcfg, opts);
    apply_cas_policy_options(mcfg, opts);
    WorkloadSpec qspec;  // queue sizing only; the broker runs the workload
    qspec.kind = Workload::kMixed;
    qspec.producers = sopts.producers;
    qspec.consumers = sopts.consumers;
    service::ServiceSpec spec;
    spec.arrival = sopts.arrival;
    spec.arrival.rate_per_kcycle = sopts.rates[row];
    spec.arrival.seed = opts.seed + static_cast<std::uint64_t>(repeat) * 7919;
    spec.admission = sopts.admission;
    spec.producers = sopts.producers;
    spec.consumers = sopts.consumers;
    spec.total_ops = total_ops;
    spec.batch = sopts.batch;
    spec.consumer_think = sopts.consumer_think;
    return std::pair(mcfg, spec);
  };

  const std::size_t n_queues = queues.size();
  const std::size_t n_repeats = static_cast<std::size_t>(repeats);
  std::vector<ServiceCell> cells(sopts.rates.size() * n_queues * n_repeats);
  auto cell_at = [&](std::size_t row, std::size_t q,
                     std::size_t r) -> ServiceCell& {
    return cells[(row * n_queues + q) * n_repeats + r];
  };
  auto row_done = [&](std::size_t row) {
    if (!opts.json_path.empty()) {
      for (std::size_t q = 0; q < n_queues; ++q) {
        for (std::size_t r = 0; r < n_repeats; ++r) {
          report.add_cell(service_cell_json(sopts.rates[row], queues[q],
                                            static_cast<int>(r), sopts,
                                            cell_at(row, q, r)));
        }
      }
    }
    std::vector<double> p50_row{sopts.rates[row]};
    std::vector<double> p99_row{sopts.rates[row]};
    std::vector<double> p999_row{sopts.rates[row]};
    std::vector<double> rej_row{sopts.rates[row]};
    for (std::size_t q = 0; q < n_queues; ++q) {
      Summary p50, p99, p999, rej;
      for (std::size_t r = 0; r < n_repeats; ++r) {
        const ServiceCell& c = cell_at(row, q, r);
        p50.add(c.sojourn_p50_ns);
        p99.add(c.sojourn_p99_ns);
        p999.add(c.sojourn_p999_ns);
        rej.add(c.reject_fraction);
      }
      p50_row.push_back(p50.mean());
      p99_row.push_back(p99.mean());
      p999_row.push_back(p999.mean());
      rej_row.push_back(rej.mean());
    }
    p50_table.add_row(p50_row);
    p99_table.add_row(p99_row);
    p999_table.add_row(p999_row);
    reject_table.add_row(rej_row, /*precision=*/3);
  };

  if (effective_cold_start(opts)) {
    run_sweep_cells(
        sopts.rates.size(), n_queues * n_repeats, opts.effective_jobs(),
        [&](std::size_t i) {
          const std::size_t row = i / (n_queues * n_repeats);
          const std::size_t q = (i % (n_queues * n_repeats)) / n_repeats;
          const int repeat = static_cast<int>(i % n_repeats);
          const auto [mcfg, spec] = make(row, repeat);
          WorkloadSpec qspec;
          qspec.kind = Workload::kMixed;
          qspec.producers = sopts.producers;
          qspec.consumers = sopts.consumers;
          cells[i] = summarize(run_cold(queues[q], mcfg, qspec, spec));
        },
        row_done);
  } else {
    std::vector<WarmedService> warmed(sopts.rates.size() * n_queues);
    run_sweep_groups(
        sopts.rates.size(), n_queues, n_repeats, opts.effective_jobs(),
        [&](std::size_t g) {
          const std::size_t row = g / n_queues;
          const auto [mcfg, spec] = make(row, /*repeat=*/0);
          WorkloadSpec qspec;
          qspec.kind = Workload::kMixed;
          qspec.producers = sopts.producers;
          qspec.consumers = sopts.consumers;
          warmed[g] = WarmedService(queues[g % n_queues], mcfg, qspec);
        },
        [&](std::size_t g, std::size_t c) {
          const std::size_t row = g / n_queues;
          const std::size_t q = g % n_queues;
          const auto [mcfg, spec] = make(row, static_cast<int>(c));
          (void)mcfg;
          cell_at(row, q, c) = summarize(warmed[g].run_repeat(spec));
          if (c + 1 == n_repeats) warmed[g] = WarmedService();
        },
        row_done);
  }

  if (opts.csv) {
    std::cout << "\n## Sojourn p50 [ns] (lower is better)\n";
    p50_table.print(std::cout, opts.csv);
  }
  std::cout << "\n## Sojourn p99 [ns]\n";
  p99_table.print(std::cout, opts.csv);
  std::cout << "\n## Sojourn p999 [ns]\n";
  p999_table.print(std::cout, opts.csv);
  std::cout << "\n## Reject fraction (of offered ops)\n";
  reject_table.print(std::cout, opts.csv);
  if (!opts.json_path.empty()) {
    report.add_table("sojourn_p50_ns", p50_table);
    report.add_table("sojourn_p99_ns", p99_table);
    report.add_table("sojourn_p999_ns", p999_table);
    report.add_table("reject_fraction", reject_table);
    if (!report.write(opts.json_path)) return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "service_latency: " << e.what() << "\n";
  return 1;
}
