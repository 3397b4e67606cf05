#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "components/system.hpp"
#include "kernel/kernel.hpp"
#include "report.hpp"
#include "websrv/conn.hpp"
#include "websrv/http.hpp"
#include "websrv/server.hpp"
#include "workloads.hpp"

namespace sgbench {

using sg::components::FtMode;
using sg::components::System;
using sg::kernel::Kernel;
using sg::kernel::Value;

namespace {

constexpr int kRepeats = 5;

/// `sample()`, a host-time cost, scaled to the reference host.
double scaled(const std::function<double()>& sample) {
  const double cost = sample();
  return cost * host_speed();
}

/// Median of `kRepeats` scaled samples, under one span.
double median_of(const char* name, const std::function<double()>& sample) {
  Spans::Scope scope(spans(), name);
  std::vector<double> values;
  for (int i = 0; i < kRepeats; ++i) values.push_back(scaled(sample));
  return median(values);
}

/// A component exporting one function that does nothing.
class Trivial final : public sg::kernel::Component {
 public:
  Trivial(Kernel& kernel, std::string name) : Component(kernel, std::move(name)) {
    export_fn("nop", [](sg::kernel::CallCtx&, const sg::kernel::Args& args) {
      return args.empty() ? Value{0} : args[0];
    });
  }
  void reset_state() override {}
};

/// µs per Kernel::yield handoff with `threads` runnable same-priority
/// threads, timed from the first yield to the last thread's exit.
double switch_us(int threads, int switches) {
  Kernel kern;
  const int per_thread = std::max(1, switches / threads);
  Clock::time_point start;
  Clock::time_point end;
  for (int t = 0; t < threads; ++t) {
    kern.thd_create("yield-" + std::to_string(t), 10, [&kern, &start, &end, t, per_thread] {
      if (t == 0) start = Clock::now();
      for (int i = 0; i < per_thread; ++i) kern.yield();
      end = Clock::now();
    });
  }
  kern.run();
  return seconds_between(start, end) * 1e6 / (static_cast<double>(threads) * per_thread);
}

double invoke_ns(int calls) {
  Kernel kern;
  Trivial client(kern, "client");
  Trivial server(kern, "server");
  double elapsed = 0;
  kern.thd_create(
      "invoker", 10,
      [&] {
        const sg::kernel::Args args{1};
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < calls; ++i) kern.invoke(client.id(), server.id(), "nop", args);
        elapsed = seconds_between(start, Clock::now());
      },
      client.id());
  kern.run();
  return elapsed * 1e9 / calls;
}

/// thd_create through exit, per thread, in batches of `threads` (a campaign
/// episode runs three or four).
double thd_spawn_us(int threads, int batches) {
  Kernel kern;
  const Clock::time_point start = Clock::now();
  for (int batch = 0; batch < batches; ++batch) {
    for (int t = 0; t < threads; ++t) kern.thd_create("spawn", 10, [] {});
    kern.run();
  }
  return seconds_between(start, Clock::now()) * 1e6 / (threads * batches);
}

/// µs to construct a System (`teardown` false) or to destroy one.
double machine_us(std::uint64_t seed, bool teardown) {
  auto sys = std::make_unique<System>(machine(seed, FtMode::kSuperGlue));
  const Clock::time_point destroy = Clock::now();
  sys.reset();
  const Clock::time_point destroyed = Clock::now();
  if (teardown) return seconds_between(destroy, destroyed) * 1e6;
  const Clock::time_point start = Clock::now();
  sys = std::make_unique<System>(machine(seed, FtMode::kSuperGlue));
  return seconds_between(start, Clock::now()) * 1e6;
}

/// Runs `body` on one simulated thread of a fresh SuperGlue System.
void in_system(std::uint64_t seed, const std::function<void(System&, sg::components::AppComponent&)>& body) {
  System sys(machine(seed, FtMode::kSuperGlue));
  auto& app = sys.create_app("probe");
  sys.kernel().thd_create("probe", 10, [&] { body(sys, app); });
  sys.kernel().run();
}

double reboot_us(std::uint64_t seed, int reboots) {
  double elapsed = 0;
  in_system(seed, [&](System& sys, sg::components::AppComponent&) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < reboots; ++i) sys.kernel().inject_crash(sys.lock().id());
    elapsed = seconds_between(start, Clock::now());
  });
  return elapsed * 1e6 / reboots;
}

/// Holds `descs` taken locks; after inject_crash the first release of each
/// walks it back (creation replay + R0 re-take). The cost over a release/take
/// round without the crash, per descriptor.
double walk_us_per_desc(std::uint64_t seed, int descs) {
  double walked = 0;
  double plain = 0;
  in_system(seed, [&](System& sys, sg::components::AppComponent& app) {
    sg::components::LockClient lock(sys.invoker(app, "lock"), sys.kernel());
    std::vector<Value> ids;
    for (int i = 0; i < descs; ++i) {
      ids.push_back(lock.alloc(app.id()));
      lock.take(app.id(), ids.back());
    }
    auto round = [&] {
      const Clock::time_point start = Clock::now();
      for (const Value id : ids) {
        lock.release(app.id(), id);
        lock.take(app.id(), id);
      }
      return seconds_between(start, Clock::now());
    };
    plain = round();
    sys.kernel().inject_crash(sys.lock().id());
    walked = round();
  });
  return (walked - plain) * 1e6 / descs;
}

double parse_ns(int parses) {
  std::vector<std::string> requests;
  for (const auto& [path, body] : sg::websrv::bench_documents()) {
    requests.push_back(sg::websrv::build_request_keepalive(path));
  }
  std::size_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < parses; ++i) {
    const auto parsed = sg::websrv::parse_request(requests[static_cast<std::size_t>(i) % requests.size()]);
    sink += parsed.has_value() ? parsed->path.size() : 1;
  }
  const double elapsed = seconds_between(start, Clock::now());
  if (sink == 0) return -1;  // Keeps the loop observable.
  return elapsed * 1e9 / parses;
}

double submit_ns(std::uint64_t seed, int submits) {
  System sys(machine(seed, FtMode::kSuperGlue));
  const auto owner = sys.create_app("netif").id();
  sg::websrv::ConnectionLayer conns(sys.cbufs(), owner);
  const std::string raw = sg::websrv::build_request_keepalive(sg::websrv::bench_documents().front().first);
  Value conn = conns.open();
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < submits; ++i) {
    if (!conns.submit(conn, raw).has_value()) {
      conn = conns.open();
      conns.submit(conn, raw);
    }
    conns.complete(conn);
  }
  return seconds_between(start, Clock::now()) * 1e9 / submits;
}

/// The per-request wire cost every web variant pays (network_stack_work)
/// plus the response-checksum oracle, averaged over the served documents.
double netstack_us(std::uint64_t seed, int rounds) {
  System sys(machine(seed, FtMode::kSuperGlue));
  const auto owner = sys.create_app("netif").id();
  auto& cbufs = sys.cbufs();
  auto slice_of = [&](const std::string& bytes) {
    const auto buf = cbufs.alloc(owner, bytes.size());
    cbufs.write(owner, buf, 0, bytes.data(), bytes.size());
    return sg::websrv::Slice{buf, 0, static_cast<std::uint32_t>(bytes.size())};
  };
  std::vector<std::pair<sg::websrv::Slice, sg::websrv::Slice>> exchanges;
  for (const auto& [path, body] : sg::websrv::bench_documents()) {
    exchanges.emplace_back(slice_of(sg::websrv::build_request_keepalive(path)),
                           slice_of(sg::websrv::build_response(200, sg::websrv::status_reason(200), body)));
  }
  std::uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const auto& [request, response] : exchanges) {
      sg::websrv::network_stack_work(cbufs, request, response);
      sink += sg::websrv::slice_checksum(cbufs, response);
    }
  }
  const double elapsed = seconds_between(start, Clock::now());
  if (sink == 0) return -1;  // Keeps the loop observable.
  return elapsed * 1e6 / (static_cast<double>(rounds) * static_cast<double>(exchanges.size()));
}

}  // namespace

double ProbeCosts::switch_us_at(double threads) const {
  const double xs[] = {2, 8, 16};
  const double ys[] = {switch_us_n2, switch_us_n8, switch_us_n16};
  if (threads <= xs[0]) return ys[0];
  for (int i = 1; i < 3; ++i) {
    if (threads <= xs[i]) {
      return ys[i - 1] + (ys[i] - ys[i - 1]) * (threads - xs[i - 1]) / (xs[i] - xs[i - 1]);
    }
  }
  return ys[2];
}

ProbeCosts run_probes(std::uint64_t seed, bool small) {
  const int scale = small ? 10 : 1;
  ProbeCosts costs;
  costs.switch_us_n2 = median_of("probe.kernel.switch.n2", [&] { return switch_us(2, 4000 / scale); });
  costs.switch_us_n8 = median_of("probe.kernel.switch.n8", [&] { return switch_us(8, 4000 / scale); });
  costs.switch_us_n16 = median_of("probe.kernel.switch.n16", [&] { return switch_us(16, 4000 / scale); });
  costs.invoke_ns = median_of("probe.kernel.invoke", [&] { return invoke_ns(100000 / scale); });
  costs.thd_spawn_us = median_of("probe.kernel.thd_spawn", [&] { return thd_spawn_us(4, 50 / scale); });
  for (const bool teardown : {false, true}) {
    Spans::Scope scope(spans(), teardown ? "probe.components.teardown" : "probe.components.boot");
    std::vector<double> samples;
    for (int i = 0; i < 30; ++i) {
      samples.push_back(scaled([&] { return machine_us(seed + static_cast<std::uint64_t>(i), teardown); }));
    }
    (teardown ? costs.teardown_us : costs.boot_us) = median(samples);
  }
  {
    // Same seeded op mix in the three FT modes, interleaved so host drift
    // hits each mode alike.
    Spans::Scope scope(spans(), "probe.c3.track");
    std::vector<double> none, c3, superglue;
    const int pairs = small ? 2000 : 40000;  // The tracked-invoke unit size.
    for (int i = 0; i < kRepeats; ++i) {
      for (const FtMode mode : {FtMode::kNone, FtMode::kC3, FtMode::kSuperGlue}) {
        const double ns = scaled([&] {
          const UnitResult unit = run_tracked_unit(seed, mode, pairs);
          return unit.host_s * 1e9 / static_cast<double>(unit.ops);
        });
        (mode == FtMode::kNone ? none : mode == FtMode::kC3 ? c3 : superglue).push_back(ns);
      }
    }
    costs.none_op_ns = median(none);
    costs.c3_track_ns = median(superglue) - costs.none_op_ns;
    costs.c3stubs_track_ns = median(c3) - costs.none_op_ns;
  }
  costs.walk_us_per_desc = median_of("probe.c3.walk", [&] { return walk_us_per_desc(seed, 64); });
  costs.reboot_us = median_of("probe.booter.reboot", [&] { return reboot_us(seed, 200 / scale); });
  costs.parse_ns = median_of("probe.websrv.parse", [&] { return parse_ns(200000 / scale); });
  costs.submit_ns = median_of("probe.websrv.submit", [&] { return submit_ns(seed, 200000 / scale); });
  costs.netstack_us = median_of("probe.websrv.netstack", [&] { return netstack_us(seed, 2000 / scale); });
  return costs;
}

}  // namespace sgbench
