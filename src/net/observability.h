#ifndef DATACELL_NET_OBSERVABILITY_H_
#define DATACELL_NET_OBSERVABILITY_H_

#include <string>

#include "core/engine.h"
#include "net/http_server.h"

namespace datacell {

/// The engine's HTTP observability endpoint: wires an HttpServer to a live
/// Engine. Routes:
///
///   /healthz          liveness probe ("ok")
///   /metrics          Prometheus exposition, byte-identical to
///                     Engine::MetricsText(); optional ?prefix=<name-prefix>
///                     filter (the \metrics prefix view over HTTP)
///   /trace            Chrome trace_event JSON of the trace ring (empty
///                     object when tracing is off)
///   /queries          JSON array: per-query name/sql/pipeline state (the
///                     \explain pipeline text included) plus the per-step
///                     profiler snapshot
///
/// All handlers call snapshot-style engine accessors that are safe while
/// the scheduler runs; scraping a live engine is the point.
class ObservabilityServer {
 public:
  /// `engine` must outlive this server.
  explicit ObservabilityServer(Engine* engine);
  ~ObservabilityServer() { Stop(); }

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and serves until Stop.
  Status Start(uint16_t port);
  void Stop() { server_.Stop(); }

  bool running() const { return server_.running(); }
  uint16_t port() const { return server_.port(); }
  int64_t requests() const { return server_.requests(); }

  /// The /queries JSON document (exposed for tests and the shell).
  std::string QueriesJson() const;

 private:
  Engine* engine_;
  HttpServer server_;
};

/// Appends `s` JSON-escaped (quotes, backslashes, control characters).
void AppendJsonString(std::string& out, const std::string& s);

}  // namespace datacell

#endif  // DATACELL_NET_OBSERVABILITY_H_
