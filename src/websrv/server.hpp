#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "components/system.hpp"
#include "websrv/conn.hpp"

namespace sg::websrv {

/// Configuration of one closed-loop web-server benchmark run (§V-E): `ab`
/// issues `total_requests` with at most `concurrency` outstanding; the server
/// is either the componentized COMPOSITE web server (using all six system
/// services) or the monolithic baseline standing in for Apache-on-Linux.
struct WebServerConfig {
  int workers = 3;
  int total_requests = 50000;
  int concurrency = 10;
  /// false => monolithic fast path (the Apache stand-in, see DESIGN.md).
  bool componentized = true;
  /// Crash one system component every `fault_period` virtual µs (0 = never),
  /// rotating through the six services — the red crosses of Fig 7.
  kernel::VirtualTime fault_period = 0;
  /// Restrict crash injection to these services (names as in
  /// System::service_names()); empty = rotate through all six. The
  /// stale-handle regression tests pin this to ramfs/mman so base mode (no
  /// recovery stubs) is exercised against exactly the services whose
  /// descriptors the workers cache.
  std::vector<std::string> fault_targets;
};

struct WebServerResult {
  int completed = 0;
  int errors = 0;
  double elapsed_sec = 0.0;
  double requests_per_sec = 0.0;
  int crashes_injected = 0;
  /// Completed requests per virtual-time window (for the Fig 7 timeline),
  /// plus the windows in which a crash was injected.
  kernel::VirtualTime window_us = 20000;
  std::vector<int> completed_per_window;
  std::vector<int> crash_windows;
  /// Connection-layer + response-cache accounting (zero-copy path proof).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t handle_refreshes = 0;
  std::uint64_t connections_opened = 0;
};

/// The request pipeline shared by the closed-loop harness (run_web_server)
/// and the open-loop generator (run_open_loop, websrv/loadgen.hpp): HTTP
/// parse in the httpd component, per-worker descriptor caches against the
/// six system services, slice-served responses out of a shared ResponseCache,
/// and the connection-layer network cost — identical per byte for the
/// componentized and monolithic variants.
///
/// Worker contexts each own a private application component, so their C3 /
/// SuperGlue client stubs are per-thread (no shared-stub mutation across
/// cores); all cross-worker state (response cache, connection rings, the
/// request queue in the drivers) is either a trusted short-hold-mutex
/// structure or a plain atomic. That is what makes the suite clean under
/// ThreadSanitizer at SG_CORES=4 (enforced by CI).
class RequestEngine {
 public:
  RequestEngine(components::System& sys, bool componentized);
  ~RequestEngine();

  RequestEngine(const RequestEngine&) = delete;
  RequestEngine& operator=(const RequestEngine&) = delete;

  /// Per-worker serving context. Construct on the main thread (resolves
  /// invokers); call init() once on the worker's simulated thread (allocates
  /// its cache lock + idle timer), serve() per request, and shutdown() before
  /// the thread exits (closes the cached file descriptors — leaking them
  /// across runs was part of the stale-handle bug).
  class Worker {
   public:
    Worker(RequestEngine& engine, int index);
    ~Worker();

    void init();
    /// Serves one request slice end to end; returns true iff the response
    /// was the correct 200 for the requested document.
    bool serve(Slice request);
    void shutdown();

    /// Event wait/trigger through this worker's own component + stub (evt
    /// descriptors are global, so the generator's events work from here).
    kernel::Value wait(kernel::Value evtid);
    void notify(kernel::Value evtid);
    kernel::CompId comp_id() const;

   private:
    friend class RequestEngine;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Documents served, keyed by pathid (hash of the textual path).
  const std::map<kernel::Value, std::string>& documents() const { return body_of_path_; }

  /// The serving epoch: moves whenever the RamFS or the memory manager is
  /// micro-rebooted. Epoch-keyed caches (response slices, worker fd/mapid
  /// handles) stop matching across a recovery, which is the invalidation
  /// that closes the stale-handle bug.
  std::int64_t serving_epoch() const;

  ResponseCache& cache() { return *cache_; }
  const ConnectionLayer& connections() const { return *conns_; }
  ConnectionLayer& connections() { return *conns_; }
  components::System& system() { return sys_; }
  bool componentized() const { return componentized_; }
  /// The network-interface component: owner of the connection rings and the
  /// response arena; the load generators invoke evt/ramfs through it.
  components::AppComponent& netif() { return *netif_; }
  kernel::CompId netif_id() const;
  /// The protocol component (componentized engines only) — exposed so tests
  /// can assert http_parse's distinct 400-vs-405 outcomes directly.
  kernel::CompId httpd_id() const;

  std::uint64_t handle_refreshes() const { return handle_refreshes_.load(); }

 private:
  friend class Worker;

  components::System& sys_;
  bool componentized_;
  components::AppComponent* netif_ = nullptr;
  std::unique_ptr<ConnectionLayer> conns_;
  std::unique_ptr<ResponseCache> cache_;
  class HttpdComponent;
  class MonolithComponent;
  std::unique_ptr<HttpdComponent> httpd_;
  std::unique_ptr<MonolithComponent> monolith_;
  kernel::FnIndex parse_fn_ = kernel::kNoFnIndex;   ///< httpd's "http_parse".
  kernel::FnIndex handle_fn_ = kernel::kNoFnIndex;  ///< monolith's "handle".
  std::map<kernel::Value, std::string> body_of_path_;
  /// Expected full-response checksum per pathid (the serve-correctness
  /// oracle, compared zero-copy against the served slice).
  std::map<kernel::Value, std::uint64_t> expected_sum_;
  std::atomic<std::uint64_t> handle_refreshes_{0};
};

/// Runs the closed-loop web-server benchmark on an already-constructed
/// System (whose FtMode decides base/C3/SuperGlue). Builds the server
/// components, the load generator, and (optionally) the fault injector;
/// drives the kernel to completion; returns the measured throughput.
WebServerResult run_web_server(components::System& system, const WebServerConfig& config);

/// The document set served by the benchmark (path -> body).
std::vector<std::pair<std::string, std::string>> bench_documents();

}  // namespace sg::websrv
