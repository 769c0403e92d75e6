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
// Arrivals are Poisson and the admission gate drops ops past its depth
// limit.
//
// Its own options, on top of the shared ones it declares in
// driver_flag_table():
//   --rates LIST       arrival rates [ops/kcycle], comma separated
//                      (the row axis, in place of --threads)
//   --depth N          admission depth limit, 0 = unbounded (default 64)
//   --producers N      load-generator workers          (default 4)
//   --consumers N      drain workers                   (default 2)
//   --batch N          max back-to-back ops per wakeup (default 4)
//   --think N          consumer service time [cycles]  (default 16)
#include <cstdint>
#include <iostream>
#include <string>
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
  std::uint64_t depth_limit = 64;
  int producers = 4;
  int consumers = 2;
  int batch = 4;
  sim::Time consumer_think = 16;
};

// What the artifact and the header record for the one arrival process and
// the one admission policy the broker has.
constexpr const char* kArrivalName = "poisson";
constexpr const char* kAdmissionName = "drop";

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

// One service cell's spec: the queue sizing with_queue reads, plus the
// broker's spec (the per-repeat variation is the arrival seed, which only
// run_service consumes, so repeats fork from one constructed queue).
struct ServiceCellSpec : WorkloadSpec {
  service::ServiceSpec service;
};

Json service_cell_json(double rate, QueueKind kind, int repeat,
                       const ServiceOptions& sopts, const ServiceCell& cell) {
  const service::ServiceResult& r = cell.raw;
  Json c = Json::object();
  c.set("rate_per_kcycle", Json(rate));
  c.set("queue", Json(queue_kind_name(kind)));
  c.set("repeat", Json(repeat));
  c.set("arrival", Json(kArrivalName));
  Json adm = Json::object();
  adm.set("policy", Json(kAdmissionName));
  adm.set("depth_limit", Json(static_cast<double>(sopts.depth_limit)));
  adm.set("offered", Json(static_cast<double>(r.offered)));
  adm.set("accepted", Json(static_cast<double>(r.accepted)));
  adm.set("rejected", Json(static_cast<double>(r.rejected)));
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
  ServiceOptions sopts;
  const BenchOptions opts = BenchOptions::parse(
      argc, argv, "service_latency",
      {{"--rates",
        [&](const char* v) {
          sopts.rates = parse_number_list<double>("--rates", v);
        }},
       {"--depth",
        [&](const char* v) {
          sopts.depth_limit = parse_number<std::uint64_t>("--depth", v);
        }},
       // A worker count below 1 would size the queue for a negative id
       // space before run_service could reject the spec.
       {"--producers",
        [&](const char* v) {
          sopts.producers = parse_count("--producers", v, 1);
        }},
       {"--consumers",
        [&](const char* v) {
          sopts.consumers = parse_count("--consumers", v, 1);
        }},
       {"--batch",
        [&](const char* v) { sopts.batch = parse_number<int>("--batch", v); }},
       {"--think", [&](const char* v) {
          sopts.consumer_think = parse_number<sim::Time>("--think", v);
        }}});
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
    report.set_config("arrival", Json(kArrivalName));
    report.set_config("admission", Json(kAdmissionName));
    report.set_config("depth_limit",
                      Json(static_cast<double>(sopts.depth_limit)));
    report.set_config("producers", Json(sopts.producers));
    report.set_config("consumers", Json(sopts.consumers));
    report.set_config("batch", Json(sopts.batch));
    report.set_config("consumer_think",
                      Json(static_cast<double>(sopts.consumer_think)));
  }

  std::cout << "# Service latency under open-loop load (" << kArrivalName
            << " arrivals, " << sopts.producers << "p/" << sopts.consumers
            << "c, depth " << sopts.depth_limit << " " << kAdmissionName
            << ", " << total_ops << " ops, " << repeats << " repeats)\n";

  const std::vector<std::string>& qnames = queue_names();
  std::vector<std::string> columns{"rate"};
  columns.insert(columns.end(), qnames.begin(), qnames.end());
  Table p50_table(columns), p99_table(columns), p999_table(columns),
      reject_table(columns);
  if (!opts.csv) {
    std::cout << "\n## Sojourn p50 [ns] (lower is better)\n";
    p50_table.stream_to(std::cout);
  }

  auto make = [&](double rate, int repeat) {
    const sim::MachineConfig mcfg =
        sim_machine_config(opts, sopts.producers + sopts.consumers);
    ServiceCellSpec spec;
    spec.kind = Workload::kMixed;
    spec.producers = sopts.producers;
    spec.consumers = sopts.consumers;
    service::ServiceSpec& svc = spec.service;
    svc.arrival.rate_per_kcycle = rate;
    svc.arrival.seed = opts.seed + static_cast<std::uint64_t>(repeat) * 7919;
    svc.admission.depth_limit = sopts.depth_limit;
    svc.producers = sopts.producers;
    svc.consumers = sopts.consumers;
    svc.total_ops = total_ops;
    svc.batch = sopts.batch;
    svc.consumer_think = sopts.consumer_think;
    return std::pair(mcfg, spec);
  };

  auto row_done = [&](std::size_t row, const SweepGrid<ServiceCell>& res) {
    if (!opts.json_path.empty()) {
      for (std::size_t q = 0; q < queues.size(); ++q) {
        for (std::size_t r = 0; r < res.repeats; ++r) {
          report.add_cell(service_cell_json(sopts.rates[row], queues[q],
                                            static_cast<int>(r), sopts,
                                            res.at(row, q, r)));
        }
      }
    }
    std::vector<double> p50_row{sopts.rates[row]};
    std::vector<double> p99_row{sopts.rates[row]};
    std::vector<double> p999_row{sopts.rates[row]};
    std::vector<double> rej_row{sopts.rates[row]};
    for (std::size_t q = 0; q < queues.size(); ++q) {
      Summary p50, p99, p999, rej;
      for (std::size_t r = 0; r < res.repeats; ++r) {
        const ServiceCell& c = res.at(row, q, r);
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

  // The queue is built empty (no warm phase); the broker runs the whole
  // workload as the measured phase.
  run_queue_sweep<ServiceCell>(
      sopts.rates, queues, repeats, opts.effective_jobs(), make, row_done,
      opts.cold_start,
      [](sim::Machine&, auto&, const ServiceCellSpec&) {},
      [](sim::Machine& m, auto& q, const ServiceCellSpec& spec, int offset) {
        return summarize(service::run_service(m, q, spec.service, offset));
      });

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
