// Interactive DataCell shell: a minimal SQL client for exploring the engine.
// Reads ';'-terminated statements from stdin and supports a few meta
// commands. Continuous queries are submitted with the \watch command and
// their results print as they arrive.
//
//   ./build/examples/datacell_shell
//   datacell> create basket s (x int, label string);
//   datacell> \watch big select x, label from [select * from s] as t
//             where t.x > 10;
//   datacell> insert into s values (50, 'hit');
//   datacell> \stats
//   datacell> \quit
//
// `--shards N` (default 1) sets how many engine shards the shell's one
// ShardedEngine runs. With one shard every statement goes straight to that
// engine. With more, DDL fans out to every shard, stream inserts route per
// the partition recipes, \watch places queries per their verdict, \shards
// shows the routes and placements, and \analyze, \stats, \metrics and
// \profile report per shard. \trace and \serve need a single shard.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "adapters/csv.h"
#include "common/string_util.h"
#include "core/shard.h"
#include "net/observability.h"

using namespace datacell;

namespace {

void PrintTable(const Table& t) {
  const Schema& schema = t.schema();
  // Header.
  std::string header;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) header += " | ";
    header += schema.field(c).name;
  }
  std::printf("%s\n", header.c_str());
  std::printf("%s\n", std::string(header.size(), '-').c_str());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::printf("%s\n", FormatCsvRow(t.GetRow(i)).c_str());
  }
  std::printf("(%zu rows)\n", t.num_rows());
}

ShardedEngineOptions ShellOptions(size_t num_shards) {
  ShardedEngineOptions opts;
  opts.num_shards = num_shards;
  // The shell drives the scheduler itself after every statement, so the
  // deterministic mode gives immediate, ordered output.
  opts.engine.factor_common_subplans = true;
  // Keep a bounded event timeline so \trace has something to dump.
  opts.engine.trace_capacity = 1 << 14;
  // Sample engine telemetry into the sys.* baskets once a second so
  // `select * from sys.baskets as b ...` works out of the box.
  opts.engine.monitor_tick_us = 1'000'000;
  return opts;
}

/// Strips trailing ';' and blanks from a meta-command argument.
std::string TrimArg(std::string arg) {
  while (!arg.empty() && (arg.back() == ';' || arg.back() == ' ')) {
    arg.pop_back();
  }
  return arg;
}

class Shell {
 public:
  explicit Shell(size_t num_shards) : engine_(ShellOptions(num_shards)) {}

  int Run() {
    std::string shards = sharded() ? std::to_string(engine_.num_shards()) +
                                         " shards; "
                                   : "";
    std::printf("DataCell shell — %send statements with ';', \\help for help\n",
                shards.c_str());
    std::string buffer;
    std::string line;
    std::printf("datacell> ");
    std::fflush(stdout);
    while (std::getline(std::cin, line)) {
      std::string trimmed(Trim(line));
      if (!trimmed.empty() && trimmed[0] == '\\') {
        if (!HandleMeta(trimmed)) return 0;
        Prompt(buffer);
        continue;
      }
      buffer += line;
      buffer += '\n';
      size_t pos;
      while ((pos = buffer.find(';')) != std::string::npos) {
        std::string stmt = buffer.substr(0, pos);
        buffer.erase(0, pos + 1);
        if (!Trim(stmt).empty()) Execute(stmt);
      }
      Prompt(buffer);
    }
    return 0;
  }

 private:
  using QueryPlacement = ShardedEngine::QueryPlacement;

  bool sharded() const { return engine_.num_shards() > 1; }

  void Prompt(const std::string& buffer) {
    std::printf(Trim(buffer).empty() ? "datacell> " : "......... ");
    std::fflush(stdout);
  }

  void Execute(const std::string& sql) {
    auto result = engine_.ExecuteSql(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    if ((*result)->num_columns() > 0) {
      PrintTable(**result);
    } else {
      std::printf("ok\n");
    }
    // Fire any continuous queries affected by inserts.
    engine_.Drain();
  }

  /// The frontend query named by `arg` (its id or name), or null.
  const QueryPlacement* FindQuery(const std::string& arg, QueryId* id) const {
    for (QueryId q = 0; q < engine_.num_queries(); ++q) {
      const QueryPlacement* p = *engine_.GetPlacement(q);
      if (p->name != arg && std::to_string(q) != arg) continue;
      *id = q;
      return p;
    }
    return nullptr;
  }

  /// The registration of a placed query's instance on shard `s`.
  const Engine::QueryInfo& Instance(size_t s, QueryId local) {
    return **engine_.shard(s).GetQuery(local);
  }

  /// " [shard <s>]" when several shards report, "" otherwise.
  std::string ShardTag(size_t s) const {
    return sharded() ? " [shard " + std::to_string(s) + "]" : "";
  }

  /// \trace and \serve drive one engine; sharded parity is future work.
  bool RefusedWhenSharded(const char* cmd) const {
    if (sharded()) {
      std::printf("\\%s is per-engine; not available with --shards\n", cmd);
    }
    return sharded();
  }

  /// \analyze: the union of the shard reports, then per query instance
  /// (one per query; across shards, each query's first instance) its pass-3
  /// report with the effective verdict when live state demotes it, and
  /// where it is placed; then the pass-4 bound of every instance next to
  /// the bytes it measured.
  void Analyze() {
    std::printf("%s", engine_.Analyze().ToString().c_str());
    bool any = false;
    for (QueryId id = 0; id < engine_.num_queries(); ++id) {
      const QueryPlacement& p = **engine_.GetPlacement(id);
      const auto& [s, local] = p.shard_queries.front();
      const Engine::QueryInfo& q = Instance(s, local);
      if (q.partition == nullptr) continue;
      if (!any) {
        std::printf("-- partition safety (shard fan-out) --\n");
        any = true;
      }
      std::string reason;
      analysis::PartitionVerdict effective =
          engine_.shard(s).EffectivePartitionVerdict(q, &reason);
      std::printf("query '%s':\n%s", q.name.c_str(),
                  q.partition->Describe().c_str());
      if (effective != q.partition->verdict) {
        std::printf("  effective: %s (%s)\n",
                    analysis::PartitionVerdictName(effective), reason.c_str());
      }
      if (sharded()) std::printf("  placement: %s\n", p.placement.c_str());
    }
    any = false;
    for (QueryId id = 0; id < engine_.num_queries(); ++id) {
      const QueryPlacement& p = **engine_.GetPlacement(id);
      for (const auto& [s, local] : p.shard_queries) {
        const Engine::QueryInfo& q = Instance(s, local);
        if (q.state == nullptr) continue;
        if (!any) {
          std::printf("-- state bounds (pass 4) --\n");
          any = true;
        }
        std::printf("query '%s'%s:\n%s", q.name.c_str(), ShardTag(s).c_str(),
                    q.state->Describe().c_str());
        std::printf("  measured: %zu B (high water %zu B)\n",
                    q.factory->state_bytes(),
                    q.factory->state_bytes_high_water());
      }
    }
  }

  void Profile(const std::string& arg) {
    if (arg == "on" || arg == "off") {
      for (size_t s = 0; s < engine_.num_shards(); ++s) {
        engine_.shard(s).SetProfiling(arg == "on");
      }
      std::printf("profiling %s\n", arg.c_str());
      return;
    }
    if (arg.empty()) {
      std::printf("usage: \\profile on|off  or  \\profile <id|name>\n");
      return;
    }
    QueryId id = 0;
    const QueryPlacement* p = FindQuery(arg, &id);
    if (p == nullptr) {
      std::printf("no registered query '%s'\n", arg.c_str());
      return;
    }
    for (const auto& [s, local] : p->shard_queries) {
      std::printf("query %zu (%s)%s: %s\n", id, p->name.c_str(),
                  ShardTag(s).c_str(), Instance(s, local).sql.c_str());
      auto report = engine_.shard(s).ProfileReport(local);
      if (report.ok()) {
        std::printf("%s", report->c_str());
      } else {
        std::printf("error: %s\n", report.status().ToString().c_str());
      }
    }
    if (!engine_.shard(0).profiling()) {
      std::printf("(profiling is off; \\profile on to collect per-step "
                  "counters)\n");
    }
  }

  void Trace(const std::string& arg) {
    if (RefusedWhenSharded("trace")) return;
    Engine& engine = engine_.shard(0);
    if (engine.trace() == nullptr) {
      std::printf("tracing is disabled (rebuild with -DDATACELL_TRACE=ON to enable)\n");
      return;
    }
    if (arg == "on" || arg == "off") {
      engine.SetTraceEnabled(arg == "on");
      std::printf("tracing %s\n", arg.c_str());
      return;
    }
    std::string path = arg;
    if (StartsWith(arg, "dump")) path = std::string(Trim(arg.substr(4)));
    if (path.empty()) {
      std::printf("usage: \\trace on|off  or  \\trace dump <file>  (open "
                  "in chrome://tracing or ui.perfetto.dev)\n");
      return;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::printf("error: cannot open '%s'\n", path.c_str());
      return;
    }
    out << engine.TraceJson();
    std::printf("wrote %zu trace events to %s\n", engine.trace()->size(),
                path.c_str());
  }

  void Serve(const std::string& arg) {
    if (RefusedWhenSharded("serve")) return;
    if (arg == "stop") {
      if (observe_ != nullptr) {
        observe_->Stop();
        observe_.reset();
        std::printf("observability server stopped\n");
      } else {
        std::printf("observability server is not running\n");
      }
      return;
    }
    if (observe_ != nullptr && observe_->running()) {
      std::printf("already serving on http://127.0.0.1:%u/\n",
                  observe_->port());
      return;
    }
    uint16_t port = 0;
    if (!arg.empty()) {
      long parsed = std::strtol(arg.c_str(), nullptr, 10);
      if (parsed < 0 || parsed > 65535) {
        std::printf("error: bad port '%s'\n", arg.c_str());
        return;
      }
      port = static_cast<uint16_t>(parsed);
    }
    observe_ = std::make_unique<ObservabilityServer>(&engine_.shard(0));
    if (auto st = observe_->Start(port); !st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      observe_.reset();
      return;
    }
    std::printf("serving http://127.0.0.1:%u/  (/metrics /trace /queries "
                "/healthz; \\serve stop to stop)\n",
                observe_->port());
  }

  void Explain(const std::string& arg) {
    // A registered query id or name explains the *chosen* execution
    // pipeline (specialized step list, or interpreter + fallback reason);
    // anything else is compiled ad hoc and shown as its MAL plan.
    QueryId id = 0;
    if (const QueryPlacement* p = FindQuery(arg, &id)) {
      const auto& [s, local] = p->shard_queries.front();
      const Engine::QueryInfo& q = Instance(s, local);
      std::printf("query %zu (%s): %s\n", id, p->name.c_str(), q.sql.c_str());
      if (sharded()) std::printf("placement: %s\n", p->placement.c_str());
      std::printf("%s", q.factory->PipelineDescription().c_str());
      std::printf("\n%s", q.factory->ExplainPlan().c_str());
      return;
    }
    // Shard catalogs stay identical under DDL fan-out, so shard 0 stands
    // for all.
    auto mal = engine_.shard(0).ExplainSql(arg);
    if (mal.ok()) {
      std::printf("%s", mal->c_str());
    } else {
      std::printf("error: %s\n", mal.status().ToString().c_str());
    }
  }

  void Watch(const std::string& rest) {
    std::istringstream in(rest);
    std::string name;
    in >> name;
    std::string sql;
    std::getline(in, sql);
    auto q = engine_.SubmitContinuousQuery(name, TrimArg(sql));
    if (!q.ok()) {
      std::printf("error: %s\n", q.status().ToString().c_str());
      return;
    }
    auto printer = std::make_shared<CallbackSink>(
        [name](const Table& batch, Timestamp) {
          for (size_t i = 0; i < batch.num_rows(); ++i) {
            std::printf("[%s] %s\n", name.c_str(),
                        FormatCsvRow(batch.GetRow(i)).c_str());
          }
        });
    if (auto st = engine_.Subscribe(*q, printer); !st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return;
    }
    std::string where =
        sharded() ? " (" + (*engine_.GetPlacement(*q))->placement + ")" : "";
    std::printf("continuous query '%s' registered%s\n", name.c_str(),
                where.c_str());
  }

  bool HandleMeta(const std::string& cmd) {
    if (StartsWith(cmd, "\\quit") || StartsWith(cmd, "\\q")) {
      return false;
    }
    if (StartsWith(cmd, "\\help")) {
      std::printf(
          "  <sql>;                 run DDL / INSERT / one-time SELECT\n"
          "  \\watch <name> <sql>;   submit a continuous query; results "
          "print as they arrive\n"
          "  \\explain <sql>         show the MAL plan of a query\n"
          "  \\explain <id|name>     show a registered query's execution\n"
          "                         pipeline (specialized steps or\n"
          "                         interpreter fallback reason) and plan\n"
          "  \\analyze               static analysis of the registered net "
          "(dataflow lints,\n"
          "                         partition verdicts, state bounds; with\n"
          "                         --shards N > 1 per shard, plus each "
          "placement)\n"
          "  \\shards                per-shard report: routes, placements, "
          "counters\n"
          "  \\stats                 engine statistics (per shard)\n"
          "  \\metrics [prefix]      Prometheus text exposition (optionally "
          "only\n"
          "                         series whose name starts with prefix)\n"
          "  \\profile on|off        toggle the per-step pipeline profiler\n"
          "  \\profile <id|name>     per-step profile of a registered query\n"
          "                         (one report per shard instance)\n"
          "  \\trace on|off          toggle event timeline recording\n"
          "  \\trace dump <file>     dump the event timeline as Chrome "
          "trace JSON\n"
          "  \\serve [port]          start the HTTP observability endpoint\n"
          "                         (/metrics /trace /queries /healthz)\n"
          "                         \\trace and \\serve need --shards 1\n"
          "  \\tables                list catalog relations\n"
          "  \\dump                  catalog as CREATE statements\n"
          "  \\quit                  exit\n");
      return true;
    }
    if (StartsWith(cmd, "\\shards")) {
      std::printf("%s", engine_.ShardsReport().c_str());
      return true;
    }
    if (StartsWith(cmd, "\\analyze")) {
      Analyze();
      return true;
    }
    if (StartsWith(cmd, "\\stats")) {
      for (size_t s = 0; s < engine_.num_shards(); ++s) {
        if (sharded()) std::printf("# shard %zu\n", s);
        std::printf("%s", engine_.shard(s).StatsReport().c_str());
      }
      return true;
    }
    if (StartsWith(cmd, "\\metrics")) {
      std::string prefix(Trim(cmd.substr(8)));
      // Across shards: the frontend registry (router and merge counters),
      // then each shard's.
      if (sharded()) {
        std::printf("%s", engine_.metrics().PrometheusText(prefix).c_str());
      }
      for (size_t s = 0; s < engine_.num_shards(); ++s) {
        if (sharded()) std::printf("# shard %zu\n", s);
        std::printf("%s", engine_.shard(s).MetricsText(prefix).c_str());
      }
      return true;
    }
    if (StartsWith(cmd, "\\profile")) {
      Profile(TrimArg(std::string(Trim(cmd.substr(8)))));
      return true;
    }
    if (StartsWith(cmd, "\\trace")) {
      Trace(std::string(Trim(cmd.substr(6))));
      return true;
    }
    if (StartsWith(cmd, "\\serve")) {
      Serve(std::string(Trim(cmd.substr(6))));
      return true;
    }
    if (StartsWith(cmd, "\\dump")) {
      std::printf("%s", engine_.shard(0).DumpCatalogSql().c_str());
      return true;
    }
    if (StartsWith(cmd, "\\tables")) {
      Catalog& catalog = engine_.shard(0).catalog();
      for (const std::string& name : catalog.Names()) {
        auto kind = catalog.KindOf(name);
        auto table = catalog.Get(name);
        std::printf("  %-24s %s(%s)\n", name.c_str(),
                    kind.ok() && *kind == RelationKind::kBasket ? "basket "
                                                                : "table  ",
                    table.ok() ? (*table)->schema().ToString().c_str() : "?");
      }
      return true;
    }
    if (StartsWith(cmd, "\\explain ")) {
      Explain(TrimArg(cmd.substr(9)));
      return true;
    }
    if (StartsWith(cmd, "\\watch ")) {
      Watch(cmd.substr(7));
      return true;
    }
    std::printf("unknown command %s (try \\help)\n", cmd.c_str());
    return true;
  }

  ShardedEngine engine_;
  std::unique_ptr<ObservabilityServer> observe_;
};

}  // namespace

int main(int argc, char** argv) {
  size_t num_shards = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed < 1) {
        std::fprintf(stderr, "bad --shards value '%s'\n", argv[i]);
        return 1;
      }
      num_shards = static_cast<size_t>(parsed);
    } else {
      std::fprintf(stderr, "usage: %s [--shards N]\n", argv[0]);
      return 1;
    }
  }
  Shell shell(num_shards);
  return shell.Run();
}
