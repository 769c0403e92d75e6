// Link-topology interconnect regressions: under InterconnectModel::kLink a
// directed socket link has finite bandwidth, so back-to-back cross-socket
// messages queue behind each other, while intra-socket traffic (and the
// whole kFlat model) is unaffected.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/interconnect.hpp"

namespace sbq::sim {
namespace {

MachineConfig link_cfg() {
  MachineConfig cfg;
  cfg.cores = 4;
  cfg.sockets = 2;  // cores 0-1 on socket 0, cores 2-3 on socket 1
  cfg.interconnect_model = InterconnectModel::kLink;
  return cfg;
}

Message probe(Addr a) { return Message{.addr = a, .src = 0, .requester = 0,
                                       .type = MsgType::kData}; }

// The engine handler for these tests: records every delivery (the only
// typed event a bare interconnect schedules) as (time, dst, msg).
struct Recorder {
  struct Delivery {
    Time t;
    CoreId dst;
    Message msg;
  };
  explicit Recorder(Engine& e) : e(e) {
    e.set_handler(&Recorder::on_event, this);
  }
  static void on_event(void* ctx, const Event& ev) {
    auto* r = static_cast<Recorder*>(ctx);
    EXPECT_EQ(ev.kind, EventKind::kDeliver);
    r->got.push_back({r->e.now(), ev.target, ev.msg});
  }
  // Arrival times at `dst`, in delivery order.
  std::vector<Time> arrivals(CoreId dst) const {
    std::vector<Time> out;
    for (const Delivery& d : got) {
      if (d.dst == dst) out.push_back(d.t);
    }
    return out;
  }
  Engine& e;
  std::vector<Delivery> got;
};

TEST(InterconnectLink, UncontendedLatencyIncludesOccupancy) {
  const MachineConfig cfg = link_cfg();
  Engine e;
  Interconnect net(e, cfg, nullptr);
  EXPECT_EQ(net.latency(0, 1), cfg.intra_latency);
  EXPECT_EQ(net.latency(0, 2), cfg.inter_latency + cfg.link_occupancy);
  EXPECT_EQ(net.latency(2, net.directory_id()),
            cfg.inter_latency + cfg.link_occupancy);
}

TEST(InterconnectLink, BackToBackCrossSocketMessagesQueue) {
  const MachineConfig cfg = link_cfg();
  Engine e;
  Interconnect net(e, cfg, nullptr);
  Recorder rec(e);
  net.send(0, 2, probe(1));
  net.send(0, 2, probe(2));
  e.run();
  const std::vector<Recorder::Delivery>& got = rec.got;
  ASSERT_EQ(got.size(), 2u);
  // First message: link free, departs immediately, arrives after
  // occupancy + inter_latency.
  EXPECT_EQ(got[0].t, cfg.link_occupancy + cfg.inter_latency);
  EXPECT_EQ(got[0].dst, 2);
  EXPECT_EQ(got[0].msg.addr, Addr{1});
  // Second: finds the link busy for link_occupancy cycles and waits them
  // out in the FIFO before paying the same hop cost.
  EXPECT_EQ(got[1].t, 2 * cfg.link_occupancy + cfg.inter_latency);
  EXPECT_EQ(got[1].dst, 2);
  EXPECT_EQ(got[1].msg.addr, Addr{2});
  EXPECT_EQ(net.link_messages(), 2u);
  EXPECT_EQ(net.link_wait_cycles(),
            static_cast<std::uint64_t>(cfg.link_occupancy));
}

TEST(InterconnectLink, IntraSocketMessagesDoNotQueue) {
  const MachineConfig cfg = link_cfg();
  Engine e;
  Interconnect net(e, cfg, nullptr);
  Recorder rec(e);
  net.send(0, 1, probe(1));
  net.send(0, 1, probe(2));
  e.run();
  const std::vector<Time> arrivals = rec.arrivals(1);
  ASSERT_EQ(arrivals.size(), 2u);
  // Both arrive after the flat intra-socket latency: the on-chip mesh has
  // no occupancy queue.
  EXPECT_EQ(arrivals[0], cfg.intra_latency);
  EXPECT_EQ(arrivals[1], cfg.intra_latency);
  EXPECT_EQ(net.link_messages(), 0u);
  EXPECT_EQ(net.link_wait_cycles(), 0u);
}

TEST(InterconnectLink, DirectedLinksAreIndependent) {
  const MachineConfig cfg = link_cfg();
  Engine e;
  Interconnect net(e, cfg, nullptr);
  Recorder rec(e);
  // Opposite directions at the same instant: neither queues behind the
  // other (one link per *directed* socket pair).
  net.send(0, 2, probe(1));
  net.send(2, 0, probe(2));
  e.run();
  const std::vector<Time> fwd = rec.arrivals(2);
  const std::vector<Time> rev = rec.arrivals(0);
  const Time uncontended = cfg.link_occupancy + cfg.inter_latency;
  ASSERT_EQ(fwd.size(), 1u);
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(fwd[0], uncontended);
  EXPECT_EQ(rev[0], uncontended);
  EXPECT_EQ(net.link_wait_cycles(), 0u);
}

TEST(InterconnectLink, LinkFreesUpAfterIdleGap) {
  const MachineConfig cfg = link_cfg();
  Engine e;
  Interconnect net(e, cfg, nullptr);
  Recorder rec(e);
  net.send(0, 2, probe(1));
  e.run();  // drain: link is idle again well past its busy horizon
  const Time t1 = e.now();
  ASSERT_GE(t1, cfg.link_occupancy);
  net.send(0, 2, probe(2));
  e.run();
  const std::vector<Time> arrivals = rec.arrivals(2);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - t1, cfg.link_occupancy + cfg.inter_latency);
  EXPECT_EQ(net.link_wait_cycles(), 0u);
}

TEST(InterconnectFlat, CrossSocketHasNoOccupancyQueue) {
  MachineConfig cfg = link_cfg();
  cfg.interconnect_model = InterconnectModel::kFlat;
  Engine e;
  Interconnect net(e, cfg, nullptr);
  Recorder rec(e);
  net.send(0, 2, probe(1));
  net.send(0, 2, probe(2));
  e.run();
  const std::vector<Time> arrivals = rec.arrivals(2);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], cfg.inter_latency);
  EXPECT_EQ(arrivals[1], cfg.inter_latency);
  EXPECT_EQ(net.link_messages(), 0u);
  EXPECT_EQ(net.link_wait_cycles(), 0u);
}

TEST(InterconnectLink, SaveRestoreRoundTripsBusyHorizon) {
  const MachineConfig cfg = link_cfg();
  Engine e;
  Interconnect net(e, cfg, nullptr);
  Recorder rec(e);
  net.send(0, 2, probe(1));
  const Interconnect::State s = net.save_state();
  EXPECT_EQ(s.link_msgs, 1u);

  // Pile more traffic onto the link, then rewind its state: the replayed
  // send must observe the same busy horizon the checkpointed one did.
  net.send(0, 2, probe(2));
  net.send(0, 2, probe(3));
  const std::uint64_t piled_wait = net.link_wait_cycles();
  EXPECT_GT(piled_wait, 0u);
  net.restore_state(s);
  EXPECT_EQ(net.link_messages(), 1u);
  EXPECT_EQ(net.link_wait_cycles(), 0u);
  net.send(0, 2, probe(4));
  EXPECT_EQ(net.link_wait_cycles(),
            static_cast<std::uint64_t>(cfg.link_occupancy));
}

// The node -> socket table built at construction against the closed-form
// layout: cores fill sockets in blocks of ceil(cores / sockets), and the
// directory sits on socket 0.
int closed_form_socket(const MachineConfig& cfg, CoreId node) {
  const int per_socket = (cfg.cores + cfg.sockets - 1) / cfg.sockets;
  return node < cfg.cores ? node / per_socket : 0;
}

TEST(InterconnectTopology, SocketTableMatchesClosedForm) {
  for (const int cores : {4, 44, 512}) {
    for (const int sockets : {1, 2}) {
      MachineConfig cfg;
      cfg.cores = cores;
      cfg.sockets = sockets;
      Engine e;
      Interconnect net(e, cfg, nullptr);
      const std::vector<CoreId> probes = {0, cores / 2, cores - 1,
                                          net.directory_id()};
      for (CoreId node = 0; node <= net.directory_id(); ++node) {
        SCOPED_TRACE(::testing::Message() << "cores=" << cores << " sockets="
                                          << sockets << " node=" << node);
        ASSERT_EQ(net.socket_of(node), closed_form_socket(cfg, node));
        for (const CoreId other : probes) {
          const bool same = closed_form_socket(cfg, node) ==
                            closed_form_socket(cfg, other);
          ASSERT_EQ(net.latency(node, other),
                    same ? cfg.intra_latency : cfg.inter_latency);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sbq::sim
